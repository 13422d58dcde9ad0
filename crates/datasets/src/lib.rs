//! # printed-datasets
//!
//! Data substrate for the printed-ML co-design workspace: dataset
//! containers, min–max normalization, seeded 70/30 splits, `Q0.f`
//! fixed-point quantization, and seeded synthetic generators standing in
//! for the eight UCI benchmarks of the paper (which are unavailable in this
//! offline environment — see `DESIGN.md` §2).
//!
//! ```
//! use printed_datasets::Benchmark;
//!
//! // The paper's exact preprocessing: normalize → 70/30 split → 4-bit
//! // quantization.
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! assert!(train.len() > test.len());
//! assert!(train.iter().all(|(s, _)| s.iter().all(|&lvl| lvl < 16)));
//! # Ok::<(), printed_datasets::dataset::DatasetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod index;
pub mod io;
pub mod planes;
pub mod quantize;
pub mod registry;
pub mod synth;

pub use dataset::{Dataset, DatasetError};
pub use index::DatasetIndex;
pub use io::{parse_csv, read_csv, to_csv, write_csv, CsvError};
pub use planes::ThermometerPlanes;
pub use quantize::{dequantize_level, quantize_level, QuantizedDataset};
pub use registry::{Benchmark, BenchmarkSpec, TRAIN_FRACTION};
pub use synth::{balance_scale, GaussianSpec};
