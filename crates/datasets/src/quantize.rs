//! Fixed-point quantization of normalized features.
//!
//! The paper feeds classifiers 4-bit inputs in `Q0.4` format: a normalized
//! value `v ∈ [0, 1]` becomes the integer level `⌊v · 2^bits⌋`, saturated at
//! `2^bits − 1`. Level `k` is exactly the count of thermometer taps below
//! the input — i.e. the number the bespoke ADC's unary output encodes —
//! which is what ties this module to the ADC models downstream.
//!
//! ```
//! use printed_datasets::quantize::quantize_level;
//!
//! assert_eq!(quantize_level(0.75, 4), 12);   // 0.75 = 12/16
//! assert_eq!(quantize_level(0.0, 4), 0);
//! assert_eq!(quantize_level(1.0, 4), 15);    // saturates
//! ```

use crate::dataset::Dataset;

/// Quantizes a normalized value to a `bits`-bit level in `0..2^bits`.
///
/// Values are clamped to `[0, 1]` first, so callers can pass mildly
/// out-of-range values produced by floating-point normalization.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 8, or if `value` is NaN.
pub fn quantize_level(value: f64, bits: u32) -> u8 {
    assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
    assert!(!value.is_nan(), "cannot quantize NaN");
    let v = value.clamp(0.0, 1.0);
    let max = (1u16 << bits) - 1;
    ((v * f64::from(1u16 << bits)) as u16).min(max) as u8
}

/// The normalized midpoint value represented by a quantized level.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 8, or `level ≥ 2^bits`.
pub fn dequantize_level(level: u8, bits: u32) -> f64 {
    assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
    assert!(
        (level as u16) < (1u16 << bits),
        "level {level} out of range for {bits} bits"
    );
    f64::from(level) / f64::from(1u16 << bits)
}

/// A dataset quantized to `bits`-bit integer levels.
///
/// This is the form every trainer in the workspace consumes: thresholds and
/// comparisons live in level space, where threshold `C` corresponds to
/// thermometer tap `C` of the input's ADC.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDataset {
    name: String,
    bits: u32,
    n_features: usize,
    n_classes: usize,
    levels: Vec<Vec<u8>>,
    labels: Vec<usize>,
}

impl QuantizedDataset {
    /// Quantizes a (normalized) dataset to `bits` bits per feature.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8` (propagated from
    /// [`quantize_level`]). Feature values outside `[0, 1]` are clamped.
    pub fn from_dataset(dataset: &Dataset, bits: u32) -> Self {
        let levels = dataset
            .iter()
            .map(|(s, _)| s.iter().map(|&v| quantize_level(v, bits)).collect())
            .collect();
        Self {
            name: dataset.name().to_owned(),
            bits,
            n_features: dataset.n_features(),
            n_classes: dataset.n_classes(),
            levels,
            labels: dataset.labels().to_vec(),
        }
    }

    /// The dataset's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Quantization precision in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The `i`-th sample's quantized levels.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> &[u8] {
        &self.levels[i]
    }

    /// The `i`-th sample's label.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Iterates `(levels, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], usize)> + '_ {
        self.levels
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// The distinct levels feature `f` takes in this dataset, ascending —
    /// the candidate thresholds a trainer evaluates ("∀ C value in dataset
    /// for I_i" in the paper's Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `f ≥ n_features`.
    pub fn distinct_levels(&self, f: usize) -> Vec<u8> {
        assert!(f < self.n_features, "feature {f} out of range");
        let mut seen = [false; 256];
        for s in &self.levels {
            seen[s[f] as usize] = true;
        }
        (0u16..256)
            .filter(|&l| seen[l as usize])
            .map(|l| l as u8)
            .collect()
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_matches_q04_examples() {
        // Q0.4: .1011₂ = 11/16
        assert_eq!(quantize_level(11.0 / 16.0, 4), 11);
        assert_eq!(quantize_level(0.6875, 4), 11);
        assert_eq!(quantize_level(0.5, 4), 8);
        assert_eq!(quantize_level(0.49, 4), 7);
    }

    #[test]
    fn quantize_saturates_and_clamps() {
        assert_eq!(quantize_level(1.0, 4), 15);
        assert_eq!(quantize_level(1.5, 4), 15);
        assert_eq!(quantize_level(-0.2, 4), 0);
    }

    #[test]
    fn quantize_is_monotone() {
        let mut prev = 0;
        for i in 0..=1000 {
            let lvl = quantize_level(i as f64 / 1000.0, 4);
            assert!(lvl >= prev);
            prev = lvl;
        }
    }

    #[test]
    fn dequantize_roundtrips_to_same_level() {
        for bits in 1..=8u32 {
            for level in 0..(1u16 << bits) {
                let v = dequantize_level(level as u8, bits);
                assert_eq!(quantize_level(v, bits), level as u8, "bits={bits}");
            }
        }
    }

    #[test]
    fn quantized_dataset_roundtrip() {
        let ds = Dataset::from_rows(
            "q",
            2,
            vec![
                (vec![0.0, 1.0], 0),
                (vec![0.5, 0.25], 1),
                (vec![0.75, 0.75], 0),
            ],
        )
        .unwrap();
        let q = QuantizedDataset::from_dataset(&ds, 4);
        assert_eq!(q.len(), 3);
        assert_eq!(q.sample(0), &[0, 15]);
        assert_eq!(q.sample(1), &[8, 4]);
        assert_eq!(q.sample(2), &[12, 12]);
        assert_eq!(q.label(1), 1);
        assert_eq!(q.n_classes(), 2);
        assert_eq!(q.bits(), 4);
    }

    #[test]
    fn distinct_levels_are_sorted_unique() {
        let ds = Dataset::from_rows(
            "d",
            1,
            vec![
                (vec![0.9], 0),
                (vec![0.1], 0),
                (vec![0.9], 1),
                (vec![0.5], 1),
            ],
        )
        .unwrap();
        let q = QuantizedDataset::from_dataset(&ds, 4);
        assert_eq!(q.distinct_levels(0), vec![1, 8, 14]);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn rejects_zero_bits() {
        quantize_level(0.5, 0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        quantize_level(f64::NAN, 4);
    }
}
