//! Thermometer bit-planes of a quantized split: 64 samples per word.
//!
//! A unary (thermometer) ADC turns a level `x` into the digits
//! `U_t = [x ≥ t]`. [`ThermometerPlanes`] stores, for every `(feature,
//! level)`, the digit `U_level` of every sample as a bitset — sample `s`
//! at bit `s % 64` of word `s / 64` — plus one bitset per class marking
//! the samples with that label. Evaluating a two-level cover over unary
//! literals then costs one word AND per literal per 64 samples, with no
//! per-sample encoding.
//!
//! The planes are built in one pass over the samples (each sample sets
//! its bit at its exact level) followed by a suffix OR over the levels,
//! so plane `t` ends up holding every sample whose level is `≥ t`. Lanes
//! past the last sample are zero in every plane and every class mask.
//!
//! ```
//! use printed_datasets::{Benchmark, ThermometerPlanes};
//!
//! let (_, test) = Benchmark::Seeds.load_quantized(4)?;
//! let planes = ThermometerPlanes::new(&test);
//! let at_least_9: u32 = planes.plane(0, 9).iter().map(|w| w.count_ones()).sum();
//! assert_eq!(at_least_9 as usize, test.iter().filter(|(s, _)| s[0] >= 9).count());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use crate::quantize::QuantizedDataset;

/// Read-only thermometer bit-planes and class masks of a quantized
/// dataset (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThermometerPlanes {
    n_samples: usize,
    n_features: usize,
    n_classes: usize,
    levels: usize,
    words: usize,
    /// Plane `(f, level)` occupies `[(f · levels + level) · words..][..words]`;
    /// one all-zero plane follows the last feature's.
    planes: Vec<u64>,
    /// Class `c`'s sample mask occupies `[c · words..][..words]`.
    classes: Vec<u64>,
}

impl ThermometerPlanes {
    /// Builds the planes of `data`: `O(features × (samples + levels ×
    /// words))` time, `features × levels × ⌈samples / 64⌉` words.
    pub fn new(data: &QuantizedDataset) -> Self {
        let n_samples = data.len();
        let n_features = data.n_features();
        let n_classes = data.n_classes();
        let levels = 1usize << data.bits();
        let words = n_samples.div_ceil(64);

        let mut planes = vec![0u64; (n_features * levels + 1) * words];
        let mut classes = vec![0u64; n_classes * words];
        for (s, (sample, label)) in data.iter().enumerate() {
            let (word, bit) = (s / 64, 1u64 << (s % 64));
            for (f, &level) in sample.iter().enumerate() {
                planes[(f * levels + level as usize) * words + word] |= bit;
            }
            classes[label * words + word] |= bit;
        }
        // Suffix OR: plane `t` absorbs plane `t + 1`, which by then holds
        // every level above it.
        for f in 0..n_features {
            for level in (0..levels - 1).rev() {
                let at = (f * levels + level) * words;
                let (lower, upper) = planes.split_at_mut(at + words);
                for (w, &above) in lower[at..].iter_mut().zip(&upper[..words]) {
                    *w |= above;
                }
            }
        }

        Self {
            n_samples,
            n_features,
            n_classes,
            levels,
            words,
            planes,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.n_samples
    }

    /// True for planes over zero samples.
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

    /// Words per plane (`⌈samples / 64⌉`).
    pub fn words(&self) -> usize {
        self.words
    }

    /// The samples whose `feature` level is `≥ level`, as a bitset. A
    /// level at or above [`levels`](Self::levels) selects no sample.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range.
    pub fn plane(&self, feature: usize, level: u8) -> &[u64] {
        assert!(feature < self.n_features, "feature out of range");
        let slot = if (level as usize) < self.levels {
            feature * self.levels + level as usize
        } else {
            self.n_features * self.levels
        };
        &self.planes[slot * self.words..(slot + 1) * self.words]
    }

    /// The samples labelled `class`, as a bitset. A class at or above
    /// [`n_classes`](Self::n_classes) labels no sample.
    pub fn class_mask(&self, class: usize) -> &[u64] {
        if class < self.n_classes {
            &self.classes[class * self.words..(class + 1) * self.words]
        } else {
            let zero = self.n_features * self.levels * self.words;
            &self.planes[zero..zero + self.words]
        }
    }

    /// Mask of the lanes of word `w` that hold a sample.
    pub fn valid(&self, w: usize) -> u64 {
        match self.n_samples.saturating_sub(64 * w) {
            n if n >= 64 => !0,
            n => (1u64 << n) - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::registry::Benchmark;

    fn bit(words: &[u64], s: usize) -> bool {
        words[s / 64] >> (s % 64) & 1 == 1
    }

    #[test]
    fn planes_hold_every_thermometer_digit() {
        for bits in [1, 4, 8] {
            let (_, test) = Benchmark::Vertebral3C.load_quantized(bits).unwrap();
            let planes = ThermometerPlanes::new(&test);
            assert_eq!(planes.words(), test.len().div_ceil(64));
            for f in 0..test.n_features() {
                for level in 0..=255u8 {
                    let plane = planes.plane(f, level);
                    for (s, (sample, _)) in test.iter().enumerate() {
                        assert_eq!(
                            bit(plane, s),
                            sample[f] >= level,
                            "bits {bits} f{f} t{level}"
                        );
                    }
                    // Lanes past the last sample stay clear.
                    for s in test.len()..64 * planes.words() {
                        assert!(!bit(plane, s));
                    }
                }
            }
            for c in 0..=test.n_classes() {
                let mask = planes.class_mask(c);
                for s in 0..64 * planes.words() {
                    assert_eq!(bit(mask, s), s < test.len() && test.label(s) == c);
                }
            }
        }
    }

    #[test]
    fn valid_masks_the_tail_word() {
        for n in [1usize, 63, 64, 65, 128, 129] {
            let rows = (0..n).map(|i| (vec![i as f64 / n as f64], i % 2)).collect();
            let q = QuantizedDataset::from_dataset(&Dataset::from_rows("t", 1, rows).unwrap(), 2);
            let planes = ThermometerPlanes::new(&q);
            let lanes: u32 = (0..planes.words())
                .map(|w| planes.valid(w).count_ones())
                .sum();
            assert_eq!(lanes as usize, n);
            assert_eq!(
                planes.plane(0, 0),
                (0..planes.words())
                    .map(|w| planes.valid(w))
                    .collect::<Vec<_>>()
            );
        }
    }
}
