//! Precomputed per-dataset training index: feature-major level columns
//! and class-count prefix sums.
//!
//! Split-candidate enumeration reads every sample once per feature at
//! every tree node, so its memory layout dominates training wall time.
//! [`DatasetIndex`] computes, **once per dataset**, everything the
//! trainers' incremental split engine needs:
//!
//! * **feature-major columns** — `column(f)[i] == sample(i)[f]`, so a
//!   per-node scan of one feature walks contiguous bytes instead of
//!   striding across row-major samples;
//! * **class-count prefix sums over levels** — `counts_below(f,
//!   level)[c]` is the number of class-`c` samples with `column(f) <
//!   level`, so any level-range class histogram of the *whole* dataset is
//!   a subtraction, with no per-sample scan at all.
//!
//! The index is plain read-only data (`Sync`), built once and shared by
//! every training across a τ×depth sweep grid.
//!
//! ```
//! use printed_datasets::{Benchmark, DatasetIndex};
//!
//! let (train, _) = Benchmark::Seeds.load_quantized(4)?;
//! let index = DatasetIndex::new(&train);
//! // Class histogram of samples with feature 0 in levels [4, 8):
//! let lo = index.counts_below(0, 4);
//! let hi = index.counts_below(0, 8);
//! let in_range: u32 = lo.iter().zip(hi).map(|(&a, &b)| b - a).sum();
//! assert_eq!(in_range as usize,
//!            index.column(0).iter().filter(|&&level| (4..8).contains(&level)).count());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use crate::quantize::QuantizedDataset;

/// Read-only per-dataset training index (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetIndex {
    n_samples: usize,
    n_features: usize,
    n_classes: usize,
    levels: usize,
    /// Feature-major level matrix: feature `f` occupies
    /// `columns[f * n_samples .. (f + 1) * n_samples]`.
    columns: Vec<u8>,
    /// Sample labels, one per sample (u32: datasets are index-arena sized).
    labels: Vec<u32>,
    /// Per-feature class-count prefix sums: entry
    /// `((f * (levels + 1) + level) * n_classes + class)` counts class
    /// `class` samples with `column(f) < level`.
    prefix: Vec<u32>,
}

impl DatasetIndex {
    /// Builds the index for `data`. `O(features × (samples + levels ×
    /// classes))` time and space — run once, share everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds more than `u32::MAX` samples (the index
    /// stores sample ids as `u32`).
    pub fn new(data: &QuantizedDataset) -> Self {
        let n = data.len();
        assert!(u32::try_from(n).is_ok(), "dataset too large for u32 ids");
        let n_features = data.n_features();
        let n_classes = data.n_classes();
        let levels = 1usize << data.bits();

        let labels: Vec<u32> = (0..n).map(|i| data.label(i) as u32).collect();
        let mut columns = vec![0u8; n_features * n];
        for (i, (sample, _)) in data.iter().enumerate() {
            for (f, &level) in sample.iter().enumerate() {
                columns[f * n + i] = level;
            }
        }

        let mut prefix = vec![0u32; n_features * (levels + 1) * n_classes];
        for f in 0..n_features {
            let column = &columns[f * n..(f + 1) * n];
            // Row `level + 1` first holds the level × class histogram,
            // then the running sum turns row `level` into the class
            // histogram of everything strictly below it.
            let rows =
                &mut prefix[f * (levels + 1) * n_classes..(f + 1) * (levels + 1) * n_classes];
            for (&level, &label) in column.iter().zip(&labels) {
                rows[(level as usize + 1) * n_classes + label as usize] += 1;
            }
            for at in n_classes..rows.len() {
                rows[at] += rows[at - n_classes];
            }
        }

        Self {
            n_samples: n,
            n_features,
            n_classes,
            levels,
            columns,
            labels,
            prefix,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.n_samples
    }

    /// True for an index over zero samples.
    pub fn is_empty(&self) -> bool {
        self.n_samples == 0
    }

    /// Feature-space dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of quantization levels (`2^bits`).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Sample labels, indexed by sample id.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The contiguous level column of `feature`: `column(f)[i]` is
    /// `data.sample(i)[f]`.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range.
    pub fn column(&self, feature: usize) -> &[u8] {
        assert!(feature < self.n_features, "feature out of range");
        &self.columns[feature * self.n_samples..(feature + 1) * self.n_samples]
    }

    /// Class histogram of samples whose `feature` level is strictly below
    /// `level` (`level` may be `levels()`, giving the whole dataset's
    /// class counts). One `u32` per class.
    ///
    /// # Panics
    ///
    /// Panics if `feature` or `level` is out of range.
    pub fn counts_below(&self, feature: usize, level: usize) -> &[u32] {
        assert!(feature < self.n_features, "feature out of range");
        assert!(level <= self.levels, "level out of range");
        let at = (feature * (self.levels + 1) + level) * self.n_classes;
        &self.prefix[at..at + self.n_classes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::registry::Benchmark;

    fn index_of(bench: Benchmark) -> (QuantizedDataset, DatasetIndex) {
        let (train, _) = bench.load_quantized(4).unwrap();
        let index = DatasetIndex::new(&train);
        (train, index)
    }

    #[test]
    fn columns_transpose_the_samples() {
        let (data, index) = index_of(Benchmark::Seeds);
        assert_eq!(index.len(), data.len());
        for (i, (sample, label)) in data.iter().enumerate() {
            assert_eq!(index.labels()[i] as usize, label);
            for (f, &level) in sample.iter().enumerate() {
                assert_eq!(index.column(f)[i], level);
            }
        }
    }

    #[test]
    fn prefix_sums_match_naive_counting() {
        let (data, index) = index_of(Benchmark::Vertebral3C);
        for f in 0..data.n_features() {
            for level in 0..=index.levels() {
                let counts = index.counts_below(f, level);
                for (c, &count) in counts.iter().enumerate().take(data.n_classes()) {
                    let naive = data
                        .iter()
                        .filter(|(s, l)| (s[f] as usize) < level && *l == c)
                        .count();
                    assert_eq!(count as usize, naive, "f={f} level={level} c={c}");
                }
            }
        }
    }

    #[test]
    fn whole_dataset_counts_equal_class_counts() {
        let (data, index) = index_of(Benchmark::Seeds);
        let full = index.counts_below(0, index.levels());
        let expected = data.class_counts();
        assert_eq!(
            full.iter().map(|&c| c as usize).collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn tiny_dataset_by_hand() {
        let ds = Dataset::from_rows(
            "t",
            1,
            vec![
                (vec![0.9], 1),
                (vec![0.1], 0),
                (vec![0.9], 0),
                (vec![0.1], 1),
            ],
        )
        .unwrap();
        let q = QuantizedDataset::from_dataset(&ds, 2);
        let index = DatasetIndex::new(&q);
        assert_eq!(index.levels(), 4);
        // 0.1 → level 0, 0.9 → level 3.
        assert_eq!(index.column(0), &[3, 0, 3, 0]);
        assert_eq!(index.counts_below(0, 0), &[0, 0]);
        assert_eq!(index.counts_below(0, 1), &[1, 1]);
        assert_eq!(index.counts_below(0, 4), &[2, 2]);
    }
}
