//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on eight UCI datasets that are not available in this
//! offline environment, so the benchmark registry synthesizes stand-ins that
//! match each dataset's *shape* — sample count, feature count, class count,
//! class imbalance — and a tuned *difficulty*, so that 4-bit decision trees
//! of depth ≤ 8 reach accuracies close to the paper's Table I. Two
//! generator families cover the benchmarks:
//!
//! * [`GaussianSpec`] — class-conditional Gaussians in an informative
//!   subspace plus irrelevant uniform features and label noise. Fits the
//!   sensor-style datasets (Cardio, Vertebral, Seeds, Pendigits, WhiteWine,
//!   Arrhythmia).
//! * [`balance_scale`] — the Balance-Scale rule (`left_weight·left_dist`
//!   vs `right_weight·right_dist`), generated from its actual generative
//!   process. The multiplicative decision boundary is intrinsically hard
//!   for axis-aligned trees, matching the paper's 77.7%.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

/// Draws one standard-normal sample (Box–Muller).
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Specification of a class-conditional Gaussian dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianSpec {
    /// Dataset name.
    pub name: String,
    /// Total number of samples.
    pub n_samples: usize,
    /// Total feature count (informative + irrelevant).
    pub n_features: usize,
    /// Number of informative features (the rest are uniform noise).
    pub n_informative: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Relative class weights (need not sum to 1); uniform when empty.
    pub class_weights: Vec<f64>,
    /// Minimum pairwise distance between class centers in the informative
    /// subspace (before noise). Larger ⇒ easier.
    pub separation: f64,
    /// Standard deviation of the per-feature Gaussian noise around a class
    /// center. Larger ⇒ harder.
    pub sigma: f64,
    /// Probability that a sample's label is replaced by a uniformly random
    /// class (irreducible error).
    pub label_noise: f64,
    /// When true, class centers are placed so their pairwise difference has
    /// the *same magnitude on every informative axis* (random signs). No
    /// single feature then separates the classes on its own, forcing an
    /// axis-aligned tree to combine several features — the structure of
    /// datasets like Vertebral whose published trees use most inputs.
    pub axis_balanced: bool,
    /// RNG seed; the generator is fully deterministic given the spec.
    pub seed: u64,
}

impl GaussianSpec {
    /// Generates the dataset.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (zero samples/classes, more
    /// informative features than features, weights length mismatch, or
    /// non-finite parameters).
    pub fn generate(&self) -> Dataset {
        assert!(
            self.n_samples >= self.n_classes,
            "need at least one sample per class"
        );
        assert!(self.n_classes >= 2, "need at least two classes");
        assert!(self.n_informative >= 1 && self.n_informative <= self.n_features);
        assert!(
            self.class_weights.is_empty() || self.class_weights.len() == self.n_classes,
            "class_weights must be empty or match n_classes"
        );
        assert!(self.separation > 0.0 && self.sigma >= 0.0 && self.label_noise >= 0.0);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let centers = self.sample_centers(&mut rng);
        let counts = self.class_sample_counts();

        let mut rows = Vec::with_capacity(self.n_samples);
        for (class, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                let center = &centers[class];
                let features: Vec<f64> = (0..self.n_features)
                    .map(|f| {
                        if f < self.n_informative {
                            (center[f] + self.sigma * normal(&mut rng)).clamp(0.0, 1.0)
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect();
                let label = if self.label_noise > 0.0 && rng.gen::<f64>() < self.label_noise {
                    rng.gen_range(0..self.n_classes)
                } else {
                    class
                };
                rows.push((features, label));
            }
        }
        // Make sure every class index exists even under label noise (class
        // count is part of the dataset's identity).
        for class in 0..self.n_classes {
            if !rows.iter().any(|&(_, l)| l == class) {
                let idx = rng.gen_range(0..rows.len());
                rows[idx].1 = class;
            }
        }
        Dataset::from_rows(self.name.clone(), self.n_features, rows)
            .expect("generator produces consistent rows")
    }

    /// Places centers on a sign-vector lattice around a base point so every
    /// pairwise difference spreads across all informative axes.
    fn sample_axis_balanced_centers(&self, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let d = self.n_informative;
        // Per-axis half-step so two centers differing on every axis sit
        // `separation` apart: 2·delta·sqrt(d) = separation.
        let delta = self.separation / (2.0 * (d as f64).sqrt());
        let base: Vec<f64> = (0..d).map(|_| rng.gen_range(0.3..0.7)).collect();
        let mut signs_seen: Vec<Vec<f64>> = Vec::new();
        let mut centers = Vec::with_capacity(self.n_classes);
        while centers.len() < self.n_classes {
            let signs: Vec<f64> = (0..d)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            if signs_seen.contains(&signs) {
                continue;
            }
            signs_seen.push(signs.clone());
            centers.push(
                base.iter()
                    .zip(&signs)
                    .map(|(b, s)| (b + s * delta).clamp(0.05, 0.95))
                    .collect(),
            );
        }
        centers
    }

    /// Rejection-samples class centers with pairwise separation in the
    /// informative subspace.
    fn sample_centers(&self, rng: &mut StdRng) -> Vec<Vec<f64>> {
        if self.axis_balanced {
            return self.sample_axis_balanced_centers(rng);
        }
        let mut centers: Vec<Vec<f64>> = Vec::with_capacity(self.n_classes);
        let mut sep = self.separation;
        let mut attempts = 0usize;
        while centers.len() < self.n_classes {
            let candidate: Vec<f64> = (0..self.n_informative)
                .map(|_| rng.gen_range(0.1..0.9))
                .collect();
            let ok = centers.iter().all(|c| {
                let d2: f64 = c
                    .iter()
                    .zip(&candidate)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                d2.sqrt() >= sep
            });
            if ok {
                centers.push(candidate);
            }
            attempts += 1;
            if attempts.is_multiple_of(2000) {
                // The requested separation does not fit this many classes in
                // the unit cube; relax gradually rather than loop forever.
                sep *= 0.8;
            }
        }
        centers
    }

    /// Largest-remainder apportionment of samples to classes by weight.
    fn class_sample_counts(&self) -> Vec<usize> {
        let weights: Vec<f64> = if self.class_weights.is_empty() {
            vec![1.0; self.n_classes]
        } else {
            self.class_weights.clone()
        };
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights
            .iter()
            .map(|w| w / total * self.n_samples as f64)
            .collect();
        let mut counts: Vec<usize> = exact.iter().map(|&e| e as usize).collect();
        // Guarantee at least one sample per class.
        for c in counts.iter_mut() {
            if *c == 0 {
                *c = 1;
            }
        }
        let mut assigned: usize = counts.iter().sum();
        // Distribute remaining samples to the largest remainders (or trim
        // from the largest classes if the minimum-1 rule overshot).
        let mut order: Vec<usize> = (0..self.n_classes).collect();
        order.sort_by(|&a, &b| {
            let ra = exact[a] - exact[a].floor();
            let rb = exact[b] - exact[b].floor();
            rb.partial_cmp(&ra).expect("finite remainders")
        });
        let mut i = 0;
        while assigned < self.n_samples {
            counts[order[i % self.n_classes]] += 1;
            assigned += 1;
            i += 1;
        }
        while assigned > self.n_samples {
            let max = (0..self.n_classes)
                .max_by_key(|&c| counts[c])
                .expect("non-empty");
            assert!(counts[max] > 1, "cannot trim below one sample per class");
            counts[max] -= 1;
            assigned -= 1;
        }
        counts
    }
}

/// Generates a Balance-Scale-style dataset from its true generative rule.
///
/// Four features (left weight, left distance, right weight, right distance)
/// take five discrete values each; the label compares the torques:
/// left > right ⇒ class 0 ("L"), equal ⇒ class 1 ("B"), less ⇒ class 2
/// ("R"). `n_samples` rows are drawn uniformly (the real dataset enumerates
/// all 625 combinations; uniform sampling of the same space keeps the class
/// prior ≈ 46%/8%/46%). `label_noise` flips a row's label to a uniformly
/// random class with that probability, and `jitter` adds zero-mean Gaussian
/// measurement noise (σ, in normalized units) to each feature — together the
/// knobs that keep depth selection from memorizing the deterministic rule
/// with a huge tree.
///
/// # Panics
///
/// Panics if `n_samples == 0`, `label_noise` is not in `[0, 1)`, or
/// `jitter` is negative.
pub fn balance_scale(
    name: &str,
    n_samples: usize,
    label_noise: f64,
    jitter: f64,
    seed: u64,
) -> Dataset {
    assert!(n_samples > 0, "need at least one sample");
    assert!(
        (0.0..1.0).contains(&label_noise),
        "label_noise must be in [0, 1)"
    );
    assert!(jitter >= 0.0, "jitter must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let lw = rng.gen_range(1..=5u32);
        let ld = rng.gen_range(1..=5u32);
        let rw = rng.gen_range(1..=5u32);
        let rd = rng.gen_range(1..=5u32);
        let mut label = match (lw * ld).cmp(&(rw * rd)) {
            std::cmp::Ordering::Greater => 0,
            std::cmp::Ordering::Equal => 1,
            std::cmp::Ordering::Less => 2,
        };
        if label_noise > 0.0 && rng.gen::<f64>() < label_noise {
            label = rng.gen_range(0..3);
        }
        let features = [lw, ld, rw, rd]
            .into_iter()
            .map(|v| (v as f64 / 5.0 + jitter * normal(&mut rng)).clamp(0.0, 1.0))
            .collect();
        rows.push((features, label));
    }
    // Ensure all three classes appear (class 1 is rare at small n).
    if !rows.iter().any(|&(_, l)| l == 1) {
        rows[0] = (vec![0.4, 0.4, 0.4, 0.4], 1);
    }
    if !rows.iter().any(|&(_, l)| l == 0) {
        rows.push((vec![1.0, 1.0, 0.2, 0.2], 0));
    }
    if !rows.iter().any(|&(_, l)| l == 2) {
        rows.push((vec![0.2, 0.2, 1.0, 1.0], 2));
    }
    Dataset::from_rows(name, 4, rows).expect("consistent rows")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GaussianSpec {
        GaussianSpec {
            name: "synth".into(),
            n_samples: 300,
            n_features: 6,
            n_informative: 4,
            n_classes: 3,
            class_weights: vec![],
            separation: 0.5,
            sigma: 0.08,
            label_noise: 0.02,
            axis_balanced: false,
            seed: 7,
        }
    }

    #[test]
    fn generator_matches_spec_shape() {
        let ds = spec().generate();
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.n_features(), 6);
        assert_eq!(ds.n_classes(), 3);
        for (s, _) in ds.iter() {
            for &v in s {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(spec().generate(), spec().generate());
        let mut other = spec();
        other.seed = 8;
        assert_ne!(spec().generate(), other.generate());
    }

    #[test]
    fn class_weights_shape_the_counts() {
        let mut s = spec();
        s.class_weights = vec![8.0, 1.0, 1.0];
        s.label_noise = 0.0;
        let counts = s.generate().class_counts();
        assert!(counts[0] > 3 * counts[1], "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 300);
    }

    #[test]
    fn exact_sample_count_with_awkward_weights() {
        let mut s = spec();
        s.n_samples = 101;
        s.n_classes = 7;
        s.class_weights = vec![0.004, 0.033, 0.29, 0.45, 0.18, 0.035, 0.008];
        let ds = s.generate();
        assert_eq!(ds.len(), 101);
        assert_eq!(ds.n_classes(), 7);
        assert!(ds.class_counts().iter().all(|&c| c >= 1));
    }

    #[test]
    fn separable_classes_are_nearly_pure() {
        // Wide separation + tiny noise ⇒ a 1-NN-style center check should
        // recover almost all labels.
        let s = GaussianSpec {
            separation: 0.8,
            sigma: 0.02,
            label_noise: 0.0,
            axis_balanced: false,
            n_classes: 2,
            n_features: 2,
            n_informative: 2,
            n_samples: 200,
            class_weights: vec![],
            name: "sep".into(),
            seed: 3,
        };
        let ds = s.generate();
        // Compute class means and check most samples are closer to their
        // own mean.
        let mut means = vec![vec![0.0; 2]; 2];
        let counts = ds.class_counts();
        for (x, l) in ds.iter() {
            means[l][0] += x[0];
            means[l][1] += x[1];
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            m[0] /= c as f64;
            m[1] /= c as f64;
        }
        let correct = ds
            .iter()
            .filter(|(x, l)| {
                let d = |m: &Vec<f64>| (x[0] - m[0]).powi(2) + (x[1] - m[1]).powi(2);
                let own = d(&means[*l]);
                let other = d(&means[1 - *l]);
                own < other
            })
            .count();
        assert!(correct as f64 / ds.len() as f64 > 0.97);
    }

    #[test]
    fn balance_scale_rule_holds() {
        let ds = balance_scale("bs", 625, 0.0, 0.0, 11);
        assert_eq!(ds.n_features(), 4);
        assert_eq!(ds.n_classes(), 3);
        for (x, l) in ds.iter() {
            let lt = x[0] * x[1];
            let rt = x[2] * x[3];
            let expect = if lt > rt + 1e-9 {
                0
            } else if (lt - rt).abs() < 1e-9 {
                1
            } else {
                2
            };
            assert_eq!(l, expect);
        }
        // Class distribution ≈ 46/8/46.
        let counts = ds.class_counts();
        assert!(counts[1] < counts[0] / 2);
        assert!(counts[1] < counts[2] / 2);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn rejects_single_class() {
        let mut s = spec();
        s.n_classes = 1;
        s.generate();
    }
}
