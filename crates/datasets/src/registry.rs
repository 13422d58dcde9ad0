//! The eight benchmark datasets of the paper's evaluation.
//!
//! Each [`Benchmark`] synthesizes a stand-in for the corresponding UCI
//! dataset (unavailable offline — see `DESIGN.md` §2 for the substitution
//! rationale): sample count, feature count, class count, and class
//! imbalance match the original; the generator difficulty is tuned so that
//! 4-bit decision trees of depth ≤ 8 score close to the paper's Table I
//! accuracy (recorded here as [`BenchmarkSpec::target_accuracy`]).
//!
//! ```
//! use printed_datasets::registry::Benchmark;
//!
//! let ds = Benchmark::Seeds.load();
//! assert_eq!(ds.len(), 210);
//! assert_eq!(ds.n_features(), 7);
//! assert_eq!(ds.n_classes(), 3);
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! assert_eq!(train.len() + test.len(), 210);
//! # Ok::<(), printed_datasets::dataset::DatasetError>(())
//! ```

use core::fmt;
use std::str::FromStr;

use crate::dataset::{Dataset, DatasetError};
use crate::quantize::QuantizedDataset;
use crate::synth::{balance_scale, GaussianSpec};

/// Train fraction used throughout the paper: 70% train / 30% test.
pub const TRAIN_FRACTION: f64 = 0.7;

/// The benchmark datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// White wine quality (11 physico-chemical features, 7 quality classes,
    /// heavily imbalanced). Paper accuracy: 52.8%.
    WhiteWine,
    /// Cardiotocography NSP (21 features, 3 classes). Paper: 90.6%.
    Cardio,
    /// Arrhythmia (279 features, 16 sparse classes, 452 samples).
    /// Paper: 62.7%.
    Arrhythmia,
    /// Balance scale (4 features, 3 classes, multiplicative rule).
    /// Paper: 77.7%.
    BalanceScale,
    /// Vertebral column, 3 classes (6 biomechanical features). Paper: 86.0%.
    Vertebral3C,
    /// Seeds (7 geometric kernel features, 3 wheat varieties). Paper: 90.5%.
    Seeds,
    /// Vertebral column, 2 classes. Paper: 87.1%.
    Vertebral2C,
    /// Pen-based handwritten digits (16 features, 10 classes, 10992
    /// samples). Paper: 95.0%.
    Pendigits,
}

/// Static description of a benchmark: its shape and the paper-published
/// accuracy the synthetic stand-in is calibrated toward.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Canonical lowercase name (also the `FromStr` token).
    pub name: &'static str,
    /// Display name as printed in the paper's tables.
    pub display: &'static str,
    /// Number of samples.
    pub n_samples: usize,
    /// Number of features.
    pub n_features: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Test accuracy (%) the paper's baseline decision tree reports in
    /// Table I — the calibration target for the synthetic generator.
    pub target_accuracy: f64,
}

impl Benchmark {
    /// All benchmarks, in Table I row order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::WhiteWine,
        Benchmark::Cardio,
        Benchmark::Arrhythmia,
        Benchmark::BalanceScale,
        Benchmark::Vertebral3C,
        Benchmark::Seeds,
        Benchmark::Vertebral2C,
        Benchmark::Pendigits,
    ];

    /// The benchmark's static spec.
    pub fn spec(self) -> BenchmarkSpec {
        match self {
            Benchmark::WhiteWine => BenchmarkSpec {
                name: "whitewine",
                display: "WhiteWine",
                n_samples: 4898,
                n_features: 11,
                n_classes: 7,
                target_accuracy: 52.8,
            },
            Benchmark::Cardio => BenchmarkSpec {
                name: "cardio",
                display: "Cardio",
                n_samples: 2126,
                n_features: 21,
                n_classes: 3,
                target_accuracy: 90.6,
            },
            Benchmark::Arrhythmia => BenchmarkSpec {
                name: "arrhythmia",
                display: "Arrhythmia",
                n_samples: 452,
                n_features: 279,
                n_classes: 16,
                target_accuracy: 62.7,
            },
            Benchmark::BalanceScale => BenchmarkSpec {
                name: "balance-scale",
                display: "Balance-Scale",
                n_samples: 625,
                n_features: 4,
                n_classes: 3,
                target_accuracy: 77.7,
            },
            Benchmark::Vertebral3C => BenchmarkSpec {
                name: "vertebral-3c",
                display: "Vertebral-3C",
                n_samples: 310,
                n_features: 6,
                n_classes: 3,
                target_accuracy: 86.0,
            },
            Benchmark::Seeds => BenchmarkSpec {
                name: "seeds",
                display: "Seeds",
                n_samples: 210,
                n_features: 7,
                n_classes: 3,
                target_accuracy: 90.5,
            },
            Benchmark::Vertebral2C => BenchmarkSpec {
                name: "vertebral-2c",
                display: "Vertebral-2C",
                n_samples: 310,
                n_features: 6,
                n_classes: 2,
                target_accuracy: 87.1,
            },
            Benchmark::Pendigits => BenchmarkSpec {
                name: "pendigits",
                display: "Pendigits",
                n_samples: 10992,
                n_features: 16,
                n_classes: 10,
                target_accuracy: 95.0,
            },
        }
    }

    /// Deterministic seed for the benchmark's generator and split.
    fn seed(self) -> u64 {
        // Fixed per benchmark so every experiment in the workspace sees the
        // same data.
        match self {
            Benchmark::WhiteWine => 0x5757_0001,
            Benchmark::Cardio => 0x5757_0002,
            Benchmark::Arrhythmia => 0x5757_0003,
            Benchmark::BalanceScale => 0x5757_0004,
            Benchmark::Vertebral3C => 0x5757_0005,
            Benchmark::Seeds => 0x5757_0006,
            Benchmark::Vertebral2C => 0x5757_0007,
            Benchmark::Pendigits => 0x5757_0008,
        }
    }

    /// Generates the synthetic stand-in dataset (deterministic).
    pub fn load(self) -> Dataset {
        let s = self.spec();
        match self {
            Benchmark::BalanceScale => {
                balance_scale(s.display, s.n_samples, 0.08, 0.0, self.seed())
            }
            Benchmark::WhiteWine => GaussianSpec {
                name: s.display.into(),
                n_samples: s.n_samples,
                n_features: s.n_features,
                n_informative: 11,
                n_classes: s.n_classes,
                // Wine-quality distribution (quality 3..9).
                class_weights: vec![0.004, 0.033, 0.297, 0.449, 0.180, 0.036, 0.001],
                separation: 0.10,
                sigma: 0.24,
                label_noise: 0.34,
                axis_balanced: false,
                seed: self.seed(),
            }
            .generate(),
            Benchmark::Cardio => GaussianSpec {
                name: s.display.into(),
                n_samples: s.n_samples,
                n_features: s.n_features,
                n_informative: 21,
                n_classes: s.n_classes,
                class_weights: vec![0.78, 0.14, 0.08],
                separation: 0.17,
                sigma: 0.24,
                label_noise: 0.06,
                axis_balanced: false,
                seed: self.seed(),
            }
            .generate(),
            Benchmark::Arrhythmia => GaussianSpec {
                name: s.display.into(),
                n_samples: s.n_samples,
                n_features: s.n_features,
                n_informative: 32,
                n_classes: s.n_classes,
                // Dominant "normal" class plus a long tail, as in UCI.
                class_weights: vec![
                    0.54, 0.10, 0.03, 0.03, 0.03, 0.06, 0.01, 0.005, 0.02, 0.11, 0.001, 0.001,
                    0.002, 0.01, 0.01, 0.05,
                ],
                separation: 0.20,
                sigma: 0.18,
                label_noise: 0.15,
                axis_balanced: false,
                seed: self.seed(),
            }
            .generate(),
            Benchmark::Vertebral3C => GaussianSpec {
                name: s.display.into(),
                n_samples: s.n_samples,
                n_features: s.n_features,
                n_informative: 5,
                n_classes: s.n_classes,
                class_weights: vec![0.19, 0.48, 0.32],
                separation: 0.75,
                sigma: 0.12,
                label_noise: 0.04,
                axis_balanced: true,
                seed: self.seed(),
            }
            .generate(),
            Benchmark::Seeds => GaussianSpec {
                name: s.display.into(),
                n_samples: s.n_samples,
                n_features: s.n_features,
                n_informative: 5,
                n_classes: s.n_classes,
                class_weights: vec![],
                separation: 0.42,
                sigma: 0.14,
                label_noise: 0.05,
                axis_balanced: false,
                seed: self.seed(),
            }
            .generate(),
            Benchmark::Vertebral2C => GaussianSpec {
                name: s.display.into(),
                n_samples: s.n_samples,
                n_features: s.n_features,
                n_informative: 5,
                n_classes: s.n_classes,
                class_weights: vec![0.32, 0.68],
                separation: 0.65,
                sigma: 0.13,
                label_noise: 0.06,
                axis_balanced: true,
                seed: self.seed(),
            }
            .generate(),
            Benchmark::Pendigits => GaussianSpec {
                name: s.display.into(),
                n_samples: s.n_samples,
                n_features: s.n_features,
                n_informative: 16,
                n_classes: s.n_classes,
                class_weights: vec![],
                separation: 0.30,
                sigma: 0.12,
                label_noise: 0.03,
                axis_balanced: false,
                seed: self.seed(),
            }
            .generate(),
        }
    }

    /// Loads, normalizes, and splits 70/30 — the paper's preprocessing up
    /// to (but excluding) quantization. The split is seeded per benchmark,
    /// so the rows here correspond one-to-one with
    /// [`Benchmark::load_quantized`]'s.
    ///
    /// # Errors
    ///
    /// Propagates [`DatasetError`] from the split (cannot occur for the
    /// built-in benchmark sizes).
    pub fn load_split(self) -> Result<(Dataset, Dataset), DatasetError> {
        self.load()
            .normalized()
            .train_test_split(TRAIN_FRACTION, self.seed() ^ 0xabcd)
    }

    /// Loads, normalizes, splits 70/30, and quantizes to `bits` bits — the
    /// paper's exact preprocessing pipeline.
    ///
    /// # Errors
    ///
    /// Propagates [`DatasetError`] from the split (cannot occur for the
    /// built-in benchmark sizes).
    pub fn load_quantized(
        self,
        bits: u32,
    ) -> Result<(QuantizedDataset, QuantizedDataset), DatasetError> {
        let (train, test) = self.load_split()?;
        Ok((
            QuantizedDataset::from_dataset(&train, bits),
            QuantizedDataset::from_dataset(&test, bits),
        ))
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().display)
    }
}

impl FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.to_ascii_lowercase();
        Benchmark::ALL
            .into_iter()
            .find(|b| b.spec().name == needle || b.spec().display.to_ascii_lowercase() == needle)
            .ok_or(ParseBenchmarkError)
    }
}

/// Error parsing a [`Benchmark`] name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBenchmarkError;

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark name (expected one of: ")?;
        for (i, b) in Benchmark::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", b.spec().name)?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ParseBenchmarkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_match_their_specs() {
        for b in Benchmark::ALL {
            let spec = b.spec();
            let ds = b.load();
            assert_eq!(ds.len(), spec.n_samples, "{b}");
            assert_eq!(ds.n_features(), spec.n_features, "{b}");
            assert_eq!(ds.n_classes(), spec.n_classes, "{b}");
        }
    }

    #[test]
    fn loads_are_deterministic() {
        for b in [Benchmark::Seeds, Benchmark::BalanceScale] {
            assert_eq!(b.load(), b.load());
        }
    }

    #[test]
    fn quantized_pipeline_shapes() {
        let (train, test) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        assert_eq!(train.len(), 217);
        assert_eq!(test.len(), 93);
        assert_eq!(train.bits(), 4);
        assert_eq!(train.n_classes(), 2);
        for (s, _) in train.iter() {
            assert!(s.iter().all(|&l| l < 16));
        }
    }

    #[test]
    fn imbalance_is_preserved() {
        // Label noise redistributes a little mass to rare classes, but the
        // dominant quality classes must still tower over the tails.
        let counts = Benchmark::WhiteWine.load().class_counts();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > 5 * min,
            "wine quality classes are imbalanced: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 4898);
    }

    #[test]
    fn parse_accepts_canonical_and_display_names() {
        assert_eq!("seeds".parse::<Benchmark>().unwrap(), Benchmark::Seeds);
        assert_eq!(
            "Balance-Scale".parse::<Benchmark>().unwrap(),
            Benchmark::BalanceScale
        );
        assert_eq!(
            "vertebral-3c".parse::<Benchmark>().unwrap(),
            Benchmark::Vertebral3C
        );
        assert!("nonsense".parse::<Benchmark>().is_err());
        let msg = "nonsense".parse::<Benchmark>().unwrap_err().to_string();
        assert!(msg.contains("pendigits"));
    }

    #[test]
    fn display_matches_paper_row_labels() {
        assert_eq!(Benchmark::WhiteWine.to_string(), "WhiteWine");
        assert_eq!(Benchmark::Vertebral2C.to_string(), "Vertebral-2C");
    }
}
