//! ADC-aware decision-tree training — the paper's Algorithm 1.
//!
//! The trainer is Gini-based CART with one change: at every split node it
//! considers *all* candidates whose Gini score is within `τ` of the best,
//! and picks among them by induced hardware cost:
//!
//! 1. **`S_Z` (zero-cost)** — the exact `(feature, C)` pair was already
//!    selected somewhere in the tree: reusing it costs only wiring.
//! 2. **`S_M` (medium-cost)** — the feature already has an ADC but needs a
//!    new output digit: one extra comparator on an existing ADC.
//! 3. **`S_H` (high-cost)** — a brand-new input: a new ADC (with one
//!    comparator).
//!
//! The first non-empty set wins. Within `S_M`/`S_H` the *lowest threshold*
//! `C` is preferred, because low-order taps have lower reference voltages
//! and therefore cheaper comparators (paper §III-B / Fig. 3); remaining
//! ties go to the best Gini, then uniformly at random (seeded).
//!
//! With `τ = 0` the candidate set contains only Gini-optimal splits, so
//! accuracy is unaffected — property-tested in this crate's test-suite.
//!
//! Growth itself is [`printed_dtree::cart::grow`], the breadth-first loop
//! CART and forests share; Algorithm 1 is only the chooser it is handed
//! (the selection rule above plus the `S_Z`/`S_M`/`S_H` tallies and the
//! selected-pair state).
//!
//! ```
//! use printed_codesign::train::{train_adc_aware, AdcAwareConfig};
//! use printed_datasets::Benchmark;
//!
//! let (train, _test) = Benchmark::Seeds.load_quantized(4)?;
//! let tree = train_adc_aware(&train, &AdcAwareConfig { tau: 0.01, max_depth: 4, ..Default::default() });
//! assert!(tree.depth() <= 4);
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use printed_datasets::{DatasetIndex, QuantizedDataset};
use printed_dtree::cart::{
    grow, is_pure, majority_class, split_candidates, AnnotatedTree, CartConfig, SplitCandidate,
    SplitEngine,
};
use printed_dtree::{DecisionTree, IndexArena, Node};
use printed_telemetry::{keys, Recorder};

/// Configuration for [`train_adc_aware`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcAwareConfig {
    /// Depth cap (the paper sweeps 2..=8).
    pub max_depth: usize,
    /// Gini slack `τ`: candidates within `best + τ` are eligible for
    /// hardware-aware selection (the paper sweeps 0..=0.03 step 0.005).
    pub tau: f64,
    /// Minimum samples a node must hold to split.
    pub min_samples_split: usize,
    /// Seed for the (rare) uniform tie-breaks of Algorithm 1.
    pub seed: u64,
}

impl Default for AdcAwareConfig {
    fn default() -> Self {
        Self {
            max_depth: 8,
            tau: 0.0,
            min_samples_split: 2,
            seed: 0x0ADC,
        }
    }
}

/// How a candidate pair relates to the hardware already committed — the
/// paper's three cost classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CostClass {
    Zero,
    Medium,
    High,
}

fn classify(
    candidate: &SplitCandidate,
    selected: &BTreeSet<(usize, u8)>,
    used_features: &BTreeSet<usize>,
) -> CostClass {
    if selected.contains(&(candidate.feature, candidate.threshold)) {
        CostClass::Zero
    } else if used_features.contains(&candidate.feature) {
        CostClass::Medium
    } else {
        CostClass::High
    }
}

/// Trains a decision tree with Algorithm 1.
///
/// Nodes are grown breadth-first ("for 0 ≤ node < Total nodes" in the
/// paper), with the selected-pair set `DT` shared across the whole tree.
///
/// # Panics
///
/// Panics if `data` is empty or `tau` is negative/not finite.
pub fn train_adc_aware(data: &QuantizedDataset, config: &AdcAwareConfig) -> DecisionTree {
    train_adc_aware_recorded(data, config, &Recorder::disabled())
}

/// [`train_adc_aware`] with instrumentation: emits one
/// [`keys::TRAIN_SPAN`] per tree (fields `gini_evals`, `s_z`, `s_m`,
/// `s_h`, `nodes`) and bumps the global `train.*` counters. With a
/// disabled recorder this is exactly [`train_adc_aware`] — the tallies are
/// plain local integers, so the trained tree (and the RNG stream) is
/// bit-identical either way.
pub fn train_adc_aware_recorded(
    data: &QuantizedDataset,
    config: &AdcAwareConfig,
    recorder: &Recorder,
) -> DecisionTree {
    train_adc_aware_annotated(data, config, recorder).tree
}

/// [`train_adc_aware_recorded`], additionally returning the per-node
/// majority classes (see [`AnnotatedTree`]), from which
/// [`AnnotatedTree::truncated`] derives every shallower depth cap. The
/// tree and the RNG stream are bit-identical to the unannotated path — the
/// majorities were always computed; this merely keeps them.
///
/// Builds a fresh [`DatasetIndex`]; sweep drivers training many trees on
/// the same dataset should build the index once and call
/// [`train_adc_aware_annotated_with_index`].
pub fn train_adc_aware_annotated(
    data: &QuantizedDataset,
    config: &AdcAwareConfig,
    recorder: &Recorder,
) -> AnnotatedTree {
    let index = DatasetIndex::new(data);
    train_adc_aware_annotated_with_index(data, &index, config, recorder)
}

/// [`train_adc_aware_annotated`] with a caller-provided (shared)
/// [`DatasetIndex`] — the whole τ×depth sweep grid reuses one index.
///
/// # Panics
///
/// As for [`train_adc_aware`]; additionally panics if `index` was not
/// built from `data`.
pub fn train_adc_aware_annotated_with_index(
    data: &QuantizedDataset,
    index: &DatasetIndex,
    config: &AdcAwareConfig,
    recorder: &Recorder,
) -> AnnotatedTree {
    assert!(
        index.len() == data.len() && index.n_features() == data.n_features(),
        "index must be built from the training dataset"
    );
    let mut selected = BTreeSet::new();
    let mut used_features = BTreeSet::new();
    let mut engine = SplitEngine::new(index);
    let mut arena = IndexArena::new();
    arena.reset_identity(data.len());
    train_adc_aware_seeded(
        &mut engine,
        &mut arena,
        config,
        &mut selected,
        &mut used_features,
        recorder,
    )
}

/// Trains an *ensemble* with Algorithm 1 where the `S_Z`/`S_M` hardware
/// state is shared **across trees**: a pair selected by tree 0 is zero-cost
/// for tree 1 (same comparator, extra wire), and an input with an ADC stays
/// medium-cost everywhere. Each tree sees a bootstrap resample, so the
/// ensemble gains diversity while the comparator pool stays small — the
/// natural extension of the paper's Algorithm 1 to printed forests.
///
/// # Panics
///
/// As for [`train_adc_aware`]; additionally panics if `trees == 0`.
pub fn train_adc_aware_forest(
    data: &QuantizedDataset,
    config: &AdcAwareConfig,
    trees: usize,
) -> printed_dtree::Forest {
    assert!(trees >= 1, "need at least one tree");
    let mut selected: BTreeSet<(usize, u8)> = BTreeSet::new();
    let mut used_features: BTreeSet<usize> = BTreeSet::new();
    let mut boot_rng = StdRng::seed_from_u64(config.seed ^ 0xB007);
    // One index, engine, and arena for the whole ensemble; only the
    // arena's root subset (the bootstrap resample) changes per tree.
    let index = DatasetIndex::new(data);
    let mut engine = SplitEngine::new(&index);
    let mut arena = IndexArena::new();
    let members: Vec<DecisionTree> = (0..trees)
        .map(|t| {
            let indices: Vec<usize> = (0..data.len())
                .map(|_| boot_rng.gen_range(0..data.len()))
                .collect();
            let cfg = AdcAwareConfig {
                seed: config.seed.wrapping_add(t as u64),
                ..*config
            };
            arena.reset_from(&indices);
            train_adc_aware_seeded(
                &mut engine,
                &mut arena,
                &cfg,
                &mut selected,
                &mut used_features,
                &Recorder::disabled(),
            )
            .tree
        })
        .collect();
    printed_dtree::Forest::from_trees(members)
}

/// Algorithm 1 over the arena's current root subset, with externally owned
/// hardware state (so ensembles can share it): [`grow`] does the growth,
/// and the chooser handed to it applies [`select_split`], tallies the
/// `S_Z`/`S_M`/`S_H` classes and commits each pick to `selected` and
/// `used_features`. Also returns the per-slot majority classes.
fn train_adc_aware_seeded(
    engine: &mut SplitEngine<'_>,
    arena: &mut IndexArena,
    config: &AdcAwareConfig,
    selected: &mut BTreeSet<(usize, u8)>,
    used_features: &mut BTreeSet<usize>,
    recorder: &Recorder,
) -> AnnotatedTree {
    assert!(
        config.tau.is_finite() && config.tau >= 0.0,
        "tau must be a non-negative finite number, got {}",
        config.tau
    );
    // Per-tree tallies are plain integers, counted unconditionally: the
    // cost is negligible and keeping them outside the Recorder guarantees
    // instrumentation cannot perturb the RNG stream or the grown tree.
    let mut span = recorder.span(keys::TRAIN_SPAN);
    let (mut gini_evals, mut s_z, mut s_m, mut s_h) = (0u64, 0u64, 0u64, 0u64);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let cart_cfg = CartConfig {
        max_depth: config.max_depth,
        min_samples_split: config.min_samples_split,
        threshold_strides: Vec::new(),
    };

    let annotated = grow(engine, arena, &cart_cfg, |candidates| {
        gini_evals += candidates.len() as u64;
        if candidates.is_empty() {
            return None;
        }
        let split = select_split(candidates, selected, used_features, config.tau, &mut rng);
        // Classify against the hardware state *before* committing the
        // split — afterwards every pick would look zero-cost.
        match classify(&split, selected, used_features) {
            CostClass::Zero => s_z += 1,
            CostClass::Medium => s_m += 1,
            CostClass::High => s_h += 1,
        }
        selected.insert((split.feature, split.threshold));
        used_features.insert(split.feature);
        Some(split)
    });

    if recorder.is_enabled() {
        let nodes = annotated.tree.nodes();
        let split_nodes = nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count() as u64;
        recorder.add(keys::GINI_EVALS, gini_evals);
        recorder.add(keys::SPLIT_ZERO, s_z);
        recorder.add(keys::SPLIT_MEDIUM, s_m);
        recorder.add(keys::SPLIT_HIGH, s_h);
        recorder.add(keys::TREES_TRAINED, 1);
        recorder.add(keys::TRAIN_NODES, split_nodes);
        span.record("gini_evals", gini_evals);
        span.record("s_z", s_z);
        span.record("s_m", s_m);
        span.record("s_h", s_h);
        span.record("nodes", nodes.len());
    }
    span.finish();
    annotated
}

/// Algorithm 1's selection rule over one node's candidate set.
fn select_split(
    candidates: &[SplitCandidate],
    selected: &BTreeSet<(usize, u8)>,
    used_features: &BTreeSet<usize>,
    tau: f64,
    rng: &mut StdRng,
) -> SplitCandidate {
    let best_gini = candidates
        .iter()
        .map(|c| c.gini)
        .fold(f64::INFINITY, f64::min);
    let eligible: Vec<&SplitCandidate> = candidates
        .iter()
        .filter(|c| c.gini <= best_gini + tau + 1e-12)
        .collect();
    debug_assert!(!eligible.is_empty());

    let of_class = |class: CostClass| -> Vec<&SplitCandidate> {
        eligible
            .iter()
            .copied()
            .filter(|c| classify(c, selected, used_features) == class)
            .collect()
    };

    let zero = of_class(CostClass::Zero);
    let pool: Vec<&SplitCandidate> = if !zero.is_empty() {
        // Zero-cost reuse: best Gini wins, ties at random.
        zero
    } else {
        let medium = of_class(CostClass::Medium);
        let z = if !medium.is_empty() {
            medium
        } else {
            of_class(CostClass::High)
        };
        // Lowest threshold first (cheapest comparator), then best Gini.
        let c_min = z.iter().map(|c| c.threshold).min().expect("non-empty");
        z.into_iter().filter(|c| c.threshold == c_min).collect()
    };

    let g_min = pool.iter().map(|c| c.gini).fold(f64::INFINITY, f64::min);
    let finalists: Vec<&SplitCandidate> = pool
        .into_iter()
        .filter(|c| (c.gini - g_min).abs() <= 1e-12)
        .collect();
    *finalists[rng.gen_range(0..finalists.len())]
}

/// Scalar reference implementation of Algorithm 1: per-node recounting via
/// [`split_candidates`] and `Iterator::partition`, no index, no arena, no
/// instrumentation — the executable specification the vectorized trainer
/// is pinned bit-identical against (same candidates, same RNG stream, same
/// tree). Kept for tests and diagnostics; production callers should use
/// [`train_adc_aware`].
///
/// # Panics
///
/// As for [`train_adc_aware`].
pub fn train_adc_aware_reference(data: &QuantizedDataset, config: &AdcAwareConfig) -> DecisionTree {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert!(
        config.tau.is_finite() && config.tau >= 0.0,
        "tau must be a non-negative finite number, got {}",
        config.tau
    );
    let mut selected: BTreeSet<(usize, u8)> = BTreeSet::new();
    let mut used_features: BTreeSet<usize> = BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let cart_cfg = CartConfig {
        max_depth: config.max_depth,
        min_samples_split: config.min_samples_split,
        threshold_strides: Vec::new(),
    };

    let mut nodes: Vec<Node> = Vec::new();
    let mut queue: VecDeque<(usize, Vec<usize>, usize)> = VecDeque::new();
    nodes.push(Node::Leaf { class: 0 });
    queue.push_back((0, (0..data.len()).collect(), 0));

    while let Some((slot, indices, depth)) = queue.pop_front() {
        let majority = majority_class(data, &indices);
        let stop = depth >= config.max_depth
            || indices.len() < config.min_samples_split
            || is_pure(data, &indices);
        if stop {
            nodes[slot] = Node::Leaf { class: majority };
            continue;
        }
        let candidates = split_candidates(data, &indices, &cart_cfg);
        if candidates.is_empty() {
            nodes[slot] = Node::Leaf { class: majority };
            continue;
        }
        let split = select_split(&candidates, &selected, &used_features, config.tau, &mut rng);
        selected.insert((split.feature, split.threshold));
        used_features.insert(split.feature);

        let (lo_idx, hi_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| data.sample(i)[split.feature] < split.threshold);
        debug_assert!(!lo_idx.is_empty() && !hi_idx.is_empty());

        let lo_slot = nodes.len();
        nodes.push(Node::Leaf { class: 0 });
        let hi_slot = nodes.len();
        nodes.push(Node::Leaf { class: 0 });
        nodes[slot] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            lo: lo_slot,
            hi: hi_slot,
        };
        queue.push_back((lo_slot, lo_idx, depth + 1));
        queue.push_back((hi_slot, hi_idx, depth + 1));
    }

    DecisionTree::from_nodes(data.bits(), data.n_features(), data.n_classes(), nodes)
        .expect("trainer builds valid trees")
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;
    use printed_dtree::cart::{train, CartConfig};

    #[test]
    fn tau_zero_matches_cart_accuracy() {
        // With τ = 0 only Gini-optimal splits are eligible, so training
        // accuracy equals plain CART's (tie-breaking may differ).
        for benchmark in [
            Benchmark::Seeds,
            Benchmark::Vertebral2C,
            Benchmark::BalanceScale,
        ] {
            let (train_data, _) = benchmark.load_quantized(4).unwrap();
            for depth in [2, 4] {
                let cart = train(&train_data, &CartConfig::with_max_depth(depth));
                let aware = train_adc_aware(
                    &train_data,
                    &AdcAwareConfig {
                        max_depth: depth,
                        tau: 0.0,
                        ..Default::default()
                    },
                );
                let ca = cart.accuracy(&train_data);
                let aa = aware.accuracy(&train_data);
                assert!(
                    (ca - aa).abs() < 0.02,
                    "{benchmark} depth {depth}: cart {ca} vs aware {aa}"
                );
            }
        }
    }

    #[test]
    fn positive_tau_reduces_hardware() {
        let (train_data, _) = Benchmark::Cardio.load_quantized(4).unwrap();
        let strict = train_adc_aware(
            &train_data,
            &AdcAwareConfig {
                max_depth: 6,
                tau: 0.0,
                ..Default::default()
            },
        );
        let relaxed = train_adc_aware(
            &train_data,
            &AdcAwareConfig {
                max_depth: 6,
                tau: 0.02,
                ..Default::default()
            },
        );
        // Hardware proxy: distinct (feature, threshold) pairs = retained
        // comparators.
        assert!(
            relaxed.distinct_pairs().len() <= strict.distinct_pairs().len(),
            "relaxed {} vs strict {}",
            relaxed.distinct_pairs().len(),
            strict.distinct_pairs().len()
        );
    }

    #[test]
    fn aware_training_prefers_low_thresholds() {
        // Among near-tied candidates the trainer must pick lower C values
        // on average than an unaware CART would on the same data.
        let (train_data, _) = Benchmark::WhiteWine.load_quantized(4).unwrap();
        let cart = train(&train_data, &CartConfig::with_max_depth(5));
        let aware = train_adc_aware(
            &train_data,
            &AdcAwareConfig {
                max_depth: 5,
                tau: 0.02,
                ..Default::default()
            },
        );
        let mean_threshold = |t: &printed_dtree::DecisionTree| {
            let pairs = t.distinct_pairs();
            pairs.iter().map(|&(_, c)| c as f64).sum::<f64>() / pairs.len() as f64
        };
        assert!(
            mean_threshold(&aware) <= mean_threshold(&cart) + 0.5,
            "aware {} vs cart {}",
            mean_threshold(&aware),
            mean_threshold(&cart)
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (train_data, _) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let cfg = AdcAwareConfig {
            max_depth: 5,
            tau: 0.01,
            ..Default::default()
        };
        assert_eq!(
            train_adc_aware(&train_data, &cfg),
            train_adc_aware(&train_data, &cfg)
        );
        let other = AdcAwareConfig { seed: 999, ..cfg };
        // Different seeds may or may not differ; just ensure it runs.
        let _ = train_adc_aware(&train_data, &other);
    }

    #[test]
    fn aware_forest_shares_comparators_across_trees() {
        use printed_dtree::forest::{train_forest, ForestConfig};
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let cfg = AdcAwareConfig {
            max_depth: 3,
            tau: 0.015,
            ..Default::default()
        };
        let aware = train_adc_aware_forest(&train_data, &cfg, 3);
        let unaware = train_forest(
            &train_data,
            &ForestConfig {
                trees: 3,
                max_depth: 3,
                feature_fraction: 1.0,
                seed: cfg.seed,
            },
        );
        // The shared S_Z/S_M state must keep the union comparator pool at
        // or below the hardware-blind forest's.
        assert!(
            aware.distinct_pairs().len() <= unaware.distinct_pairs().len(),
            "aware {} vs unaware {}",
            aware.distinct_pairs().len(),
            unaware.distinct_pairs().len()
        );
        // And the ensemble still classifies.
        assert!(aware.accuracy(&test_data) > 0.6);
        assert_eq!(aware.trees().len(), 3);
    }

    #[test]
    fn aware_forest_is_deterministic() {
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let cfg = AdcAwareConfig {
            max_depth: 3,
            tau: 0.01,
            ..Default::default()
        };
        assert_eq!(
            train_adc_aware_forest(&train_data, &cfg, 3),
            train_adc_aware_forest(&train_data, &cfg, 3)
        );
    }

    #[test]
    fn vectorized_trainer_matches_scalar_reference() {
        // The engine/arena path must reproduce the scalar reference
        // bit-for-bit: same candidates → same RNG stream → same tree.
        for benchmark in [Benchmark::Seeds, Benchmark::Cardio, Benchmark::WhiteWine] {
            let (train_data, _) = benchmark.load_quantized(4).unwrap();
            for tau in [0.0, 0.01, 0.03] {
                let cfg = AdcAwareConfig {
                    max_depth: 8,
                    tau,
                    ..Default::default()
                };
                assert_eq!(
                    train_adc_aware(&train_data, &cfg),
                    train_adc_aware_reference(&train_data, &cfg),
                    "{benchmark} tau {tau}"
                );
            }
        }
    }

    #[test]
    fn respects_depth_cap() {
        let (train_data, _) = Benchmark::Pendigits.load_quantized(4).unwrap();
        let tree = train_adc_aware(
            &train_data,
            &AdcAwareConfig {
                max_depth: 3,
                tau: 0.005,
                ..Default::default()
            },
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn recorded_training_tallies_without_changing_the_tree() {
        use printed_telemetry::FieldValue;
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let cfg = AdcAwareConfig {
            max_depth: 4,
            tau: 0.01,
            ..Default::default()
        };
        let plain = train_adc_aware(&train_data, &cfg);
        let (recorder, sink) = Recorder::collecting();
        let recorded = train_adc_aware_recorded(&train_data, &cfg, &recorder);
        assert_eq!(plain, recorded, "instrumentation must not perturb training");
        let snap = sink.snapshot();
        assert_eq!(snap.counter(keys::TREES_TRAINED), 1);
        assert!(snap.counter(keys::GINI_EVALS) > 0);
        // The very first split faces an empty hardware state, so at least
        // one selection lands in S_H.
        assert!(snap.counter(keys::SPLIT_HIGH) >= 1);
        let spans: Vec<_> = snap.spans_named(keys::TRAIN_SPAN).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].field("gini_evals").and_then(FieldValue::as_u64),
            Some(snap.counter(keys::GINI_EVALS))
        );
    }

    #[test]
    fn truncation_matches_fresh_training_on_benchmarks() {
        // The prefix-sharing claim: training at depth D and truncating to
        // d <= D is bit-identical to training at d with the same seed,
        // because BFS growth commits every depth < d decision (splits, RNG
        // draws, selected/used_features mutations) before any depth-d node.
        for benchmark in [Benchmark::Seeds, Benchmark::Vertebral2C] {
            let (train_data, _) = benchmark.load_quantized(4).unwrap();
            for tau in [0.0, 0.01, 0.03] {
                let deep_cfg = AdcAwareConfig {
                    max_depth: 8,
                    tau,
                    ..Default::default()
                };
                let annotated =
                    train_adc_aware_annotated(&train_data, &deep_cfg, &Recorder::disabled());
                for depth in 1..=8 {
                    let fresh = train_adc_aware(
                        &train_data,
                        &AdcAwareConfig {
                            max_depth: depth,
                            ..deep_cfg
                        },
                    );
                    assert_eq!(
                        annotated.truncated(depth),
                        fresh,
                        "{benchmark} tau {tau} depth {depth}: truncation must equal fresh training"
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_handles_degenerate_caps() {
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let annotated = train_adc_aware_annotated(
            &train_data,
            &AdcAwareConfig {
                max_depth: 4,
                tau: 0.01,
                ..Default::default()
            },
            &Recorder::disabled(),
        );
        // Cap 0: a single root-majority leaf.
        let stump = annotated.truncated(0);
        assert_eq!(stump.nodes().len(), 1);
        assert_eq!(stump.depth(), 0);
        // Cap >= trained depth: the tree unchanged.
        for cap in [annotated.tree.depth(), 9, usize::MAX] {
            assert_eq!(annotated.truncated(cap), annotated.tree);
        }
        // Caps in between never exceed the cap.
        for cap in 1..4 {
            assert!(annotated.truncated(cap).depth() <= cap);
        }
    }

    #[test]
    fn annotated_majorities_match_rederivation_from_data() {
        // The trainer's free per-slot majorities agree with
        // DecisionTree::node_majorities re-derived by routing the training
        // set — the two ways of annotating a tree are interchangeable.
        let (train_data, _) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let annotated = train_adc_aware_annotated(
            &train_data,
            &AdcAwareConfig {
                max_depth: 5,
                tau: 0.01,
                ..Default::default()
            },
            &Recorder::disabled(),
        );
        assert_eq!(
            annotated.majorities,
            annotated.tree.node_majorities(&train_data)
        );
    }

    #[test]
    #[should_panic(expected = "tau")]
    fn rejects_negative_tau() {
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        train_adc_aware(
            &train_data,
            &AdcAwareConfig {
                tau: -0.01,
                ..Default::default()
            },
        );
    }
}
