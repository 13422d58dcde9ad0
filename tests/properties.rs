//! Property-based tests (proptest) of the workspace's core invariants, as
//! indexed in DESIGN.md §5.

use proptest::collection::vec;
use proptest::prelude::*;

use printed_ml::adc::{BespokeAdcBank, UnaryCode};
use printed_ml::analog::ladder::Ladder;
use printed_ml::codesign::train::{train_adc_aware, AdcAwareConfig};
use printed_ml::codesign::{decode_one_hot, AnalogColumns, PackedAnalogTree, UnaryClassifier};
use printed_ml::datasets::{quantize_level, Dataset, QuantizedDataset, ThermometerPlanes};
use printed_ml::dtree::baseline::{baseline_netlist, decode_label, encode_sample};
use printed_ml::dtree::cart::{train, CartConfig};
use printed_ml::dtree::{DecisionTree, Node};
use printed_ml::logic::blocks;
use printed_ml::logic::netlist::Netlist;
use printed_ml::logic::qm::minimize;
use printed_ml::logic::sim::PackedNetlist;
use printed_ml::logic::sop::{Cube, Sop};
use printed_ml::pdk::AnalogModel;

/// Strategy: a random valid decision tree over `n_features` 4-bit features
/// and `n_classes` classes, built top-down from a random shape seed.
fn arb_tree(n_features: usize, n_classes: usize) -> impl Strategy<Value = DecisionTree> {
    vec((any::<bool>(), 0..n_features, 1u8..16, 0..n_classes), 1..64)
        .prop_map(move |decisions| tree_from_decisions(4, n_features, n_classes, &decisions))
}

/// Strategy: [`arb_tree`] at a random precision `bits` ∈ 1..=8, each
/// threshold folded into `1..2^bits`.
fn arb_tree_any_bits(n_features: usize, n_classes: usize) -> impl Strategy<Value = DecisionTree> {
    (
        1u32..9,
        vec(
            (any::<bool>(), 0..n_features, any::<u8>(), 0..n_classes),
            1..64,
        ),
    )
        .prop_map(move |(bits, decisions)| {
            let max_tap = (1u16 << bits) - 1;
            let decisions: Vec<_> = decisions
                .into_iter()
                .map(|(split, f, tap, class)| {
                    (split, f, (1 + u16::from(tap) % max_tap) as u8, class)
                })
                .collect();
            tree_from_decisions(bits, n_features, n_classes, &decisions)
        })
}

/// Builds a tree top-down from `(split?, feature, threshold, class)`
/// decisions consumed in BFS order; depth capped by consumption.
fn tree_from_decisions(
    bits: u32,
    n_features: usize,
    n_classes: usize,
    decisions: &[(bool, usize, u8, usize)],
) -> DecisionTree {
    let mut nodes: Vec<Node> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut cursor = 0usize;
    nodes.push(Node::Leaf { class: 0 });
    queue.push_back((0usize, 0usize)); // (slot, depth)
    while let Some((slot, depth)) = queue.pop_front() {
        let (split, feature, threshold, class) = decisions[cursor % decisions.len()];
        cursor += 1;
        if split && depth < 4 && cursor < decisions.len() {
            let lo = nodes.len();
            nodes.push(Node::Leaf { class: 0 });
            let hi = nodes.len();
            nodes.push(Node::Leaf { class: 0 });
            nodes[slot] = Node::Split {
                feature,
                threshold,
                lo,
                hi,
            };
            queue.push_back((lo, depth + 1));
            queue.push_back((hi, depth + 1));
        } else {
            nodes[slot] = Node::Leaf { class };
        }
    }
    DecisionTree::from_nodes(bits, n_features, n_classes, nodes)
        .expect("construction is valid by design")
}

/// Strategy: a random combinational netlist over `n_inputs` inputs with up
/// to `max_gates` gates drawn from the two-input cells, wired to arbitrary
/// earlier signals, with a handful of outputs.
fn arb_netlist(n_inputs: usize, max_gates: usize) -> impl Strategy<Value = Netlist> {
    use printed_ml::pdk::CellKind;
    let kinds = [
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Inv,
    ];
    vec((0usize..6, any::<u16>(), any::<u16>()), 1..max_gates).prop_map(move |specs| {
        let mut nl = Netlist::new("random");
        let inputs: Vec<_> = (0..n_inputs).map(|i| nl.input(format!("x{i}"))).collect();
        let mut signals = inputs.clone();
        for (k, a, b) in specs {
            let kind = kinds[k];
            let pick = |r: u16, pool: &[printed_ml::logic::Signal]| pool[r as usize % pool.len()];
            let sig = if kind == CellKind::Inv {
                nl.gate(kind, &[pick(a, &signals)])
            } else {
                nl.gate(kind, &[pick(a, &signals), pick(b, &signals)])
            };
            signals.push(sig);
        }
        // A few outputs from the tail of the signal list.
        let n = signals.len();
        for (i, &s) in signals[n.saturating_sub(3)..].iter().enumerate() {
            nl.output(format!("o{i}"), s);
        }
        nl
    })
}

/// Levels as analog values: `level / 2^bits` sits on tap `level`
/// exactly, so quantizing at `bits` gives the levels back.
fn analog_level(sample: &[u8], bits: u32) -> Vec<f64> {
    let full = f64::from(1u32 << bits);
    sample.iter().map(|&l| f64::from(l) / full).collect()
}

/// Training sets the trainers must survive, cut from `batch`: every
/// label replaced by the first (one class), feature `feature` pinned to
/// the first sample's level, every feature pinned (only the labels
/// vary), and the first sample alone.
fn degenerate_training_sets(
    batch: &[(Vec<u8>, usize)],
    bits: u32,
    feature: usize,
) -> Vec<QuantizedDataset> {
    let (first, first_label) = &batch[0];
    let one_class: Vec<_> = batch
        .iter()
        .map(|(s, _)| (s.clone(), *first_label))
        .collect();
    let one_constant: Vec<_> = batch
        .iter()
        .map(|(s, label)| {
            let mut s = s.clone();
            s[feature] = first[feature];
            (s, *label)
        })
        .collect();
    let all_constant: Vec<_> = batch
        .iter()
        .map(|(_, label)| (first.clone(), *label))
        .collect();
    let single = vec![(first.clone(), *first_label)];
    [one_class, one_constant, all_constant, single]
        .into_iter()
        .map(|rows| {
            let rows = rows
                .into_iter()
                .map(|(s, label)| (analog_level(&s, bits), label))
                .collect();
            let data = Dataset::from_rows("degenerate", 4, rows).unwrap();
            QuantizedDataset::from_dataset(&data, bits)
        })
        .collect()
}

/// The checks of `all_representations_agree_on_random_trees` for one
/// tree on one batch of `(levels, label)` samples at the tree's
/// precision.
fn assert_representations_agree(tree: &DecisionTree, batch: &[(Vec<u8>, usize)], cut: usize) {
    let bits = tree.bits();
    let samples: Vec<Vec<u8>> = batch.iter().map(|(s, _)| s.clone()).collect();
    let unary = UnaryClassifier::from_tree(tree);
    let baseline = baseline_netlist(tree);
    let shared = unary.to_netlist();
    let two_level = unary.to_two_level_netlist();
    let nand_nand = unary.to_nand_nand_netlist();
    for sample in &samples {
        let expected = tree.predict(sample);
        assert_eq!(unary.predict(sample), Some(expected));
        assert_eq!(
            decode_label(&baseline.eval(&encode_sample(sample, bits))),
            expected
        );
        let digits = unary.encode_sample(sample);
        for netlist in [&shared, &two_level, &nand_nand] {
            let outs = netlist.eval(&digits);
            let hot: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter(|(_, &o)| o)
                .map(|(c, _)| c)
                .collect();
            assert_eq!(&hot, &vec![expected], "{}", netlist.name());
        }
    }
    // Fifth evaluator: the word-parallel simulator over the whole batch.
    let encoded: Vec<Vec<bool>> = samples.iter().map(|s| unary.encode_sample(s)).collect();
    for netlist in [&shared, &two_level, &nand_nand] {
        let sim = PackedNetlist::compile(netlist);
        let mut lanes = sim.lanes(encoded.len());
        lanes.load(&encoded);
        sim.simulate(&mut lanes);
        for (p, (sample, digits)) in samples.iter().zip(&encoded).enumerate() {
            let outs = sim.outputs_at(&lanes, p);
            assert_eq!(&outs, &netlist.eval(digits), "{}", netlist.name());
            assert_eq!(decode_one_hot(&outs), Some(tree.predict(sample)));
        }
    }
    // Sixth evaluator: the packed analog walk at the nominal
    // thresholds, on the samples as analog levels (`level / 2^bits`
    // sits on tap `level` exactly) labelled with the tree's own
    // predictions, so every sample must land on its leaf.
    let rows: Vec<(Vec<f64>, usize)> = samples
        .iter()
        .map(|s| (analog_level(s, bits), tree.predict(s)))
        .collect();
    let analog = Dataset::from_rows("levels", 4, rows).unwrap();
    let columns = AnalogColumns::new(&analog, tree.used_features());
    let mut packed = PackedAnalogTree::new(tree, &columns);
    let nominal = packed.nominal_thresholds().to_vec();
    assert_eq!(packed.accuracy(&columns, &nominal), 1.0);
    // Seventh evaluator: bit-sliced scoring over the thermometer
    // planes of batch prefixes (and through the packed classifier),
    // against the tree walk's accuracy on the drawn labels, to the f64
    // bit.
    for n in [1, 63, 64, 65, 128, 129, 200, cut] {
        let rows = batch[..n]
            .iter()
            .map(|(s, label)| (analog_level(s, bits), *label))
            .collect();
        let labelled = Dataset::from_rows("batch", 4, rows).unwrap();
        let quantized = QuantizedDataset::from_dataset(&labelled, bits);
        for (i, sample) in samples[..n].iter().enumerate() {
            assert_eq!(quantized.sample(i), sample.as_slice());
        }
        let want = tree.accuracy(&quantized).to_bits();
        let planes = ThermometerPlanes::new(&quantized);
        assert_eq!(unary.accuracy_on(&planes).to_bits(), want, "{} samples", n);
        assert_eq!(
            unary.packed().accuracy(&quantized).to_bits(),
            want,
            "{} samples",
            n
        );
    }
}

proptest! {
    /// Pruning dead gates never changes observable behavior.
    #[test]
    fn prune_preserves_function_on_random_netlists(nl in arb_netlist(4, 24)) {
        use printed_ml::logic::equiv::check_equivalence;
        let mut pruned = nl.clone();
        pruned.prune();
        prop_assert!(pruned.gate_count() <= nl.gate_count());
        prop_assert!(check_equivalence(&nl, &pruned, 5).is_equivalent());
    }

    /// Verilog export stays well-formed for arbitrary netlists.
    #[test]
    fn verilog_well_formed_on_random_netlists(nl in arb_netlist(3, 16)) {
        use printed_ml::logic::verilog::to_verilog;
        let v = to_verilog(&nl);
        prop_assert_eq!(v.matches("module ").count(), 1);
        prop_assert_eq!(v.matches("endmodule").count(), 1);
        prop_assert_eq!(
            v.matches("  assign ").count(),
            nl.gate_count() + nl.outputs().len()
        );
    }

    /// Unary codes are prefix-closed and `I ≥ C ⇔ U_C` for every pair.
    #[test]
    fn unary_identity_holds(level in 0u8..16, c in 0u8..16) {
        let code = UnaryCode::from_level(level, 4);
        prop_assert_eq!(code.gte_const(c), level >= c);
        // Prefix closure.
        for k in 2..=15usize {
            if code.digit(k) {
                prop_assert!(code.digit(k - 1));
            }
        }
        prop_assert_eq!(code.to_level(), level);
    }

    /// The bespoke comparator netlist equals integer comparison for any
    /// constant and any input width 2..=8.
    #[test]
    fn gte_const_netlist_is_integer_comparison(
        width in 2usize..=8,
        c in 0u32..256,
        v in 0u32..256,
    ) {
        let c = c % (1 << width);
        let v = v % (1 << width);
        let mut nl = Netlist::new("prop");
        let bus = nl.input_bus("i", width);
        let out = blocks::gte_const(&mut nl, &bus, c);
        nl.output("o", out);
        let bits: Vec<bool> = (0..width).map(|k| (v >> k) & 1 == 1).collect();
        prop_assert_eq!(nl.eval(&bits)[0], v >= c);
    }

    /// Quine–McCluskey minimization is logically equivalent to its onset
    /// for random functions of up to 8 variables.
    #[test]
    fn qm_preserves_function(
        num_vars in 2usize..=8,
        onset_bits in vec(any::<bool>(), 256),
    ) {
        let size = 1usize << num_vars;
        let onset: Vec<u32> =
            (0..size).filter(|&m| onset_bits[m]).map(|m| m as u32).collect();
        let sop = minimize(num_vars, &onset, &[]);
        for (m, &expected) in onset_bits.iter().enumerate().take(size) {
            let assignment: Vec<bool> =
                (0..num_vars).map(|v| m & (1 << v) != 0).collect();
            prop_assert_eq!(sop.eval(&assignment), expected, "minterm {}", m);
        }
    }

    /// SOP safe simplification preserves the function.
    #[test]
    fn sop_simplify_preserves_function(
        cubes in vec(vec((0usize..6, any::<bool>()), 0..5), 0..8),
    ) {
        // Deduplicate conflicting polarities within a cube (keep first).
        let cubes: Vec<Cube> = cubes
            .into_iter()
            .map(|lits| {
                let mut seen = std::collections::BTreeMap::new();
                for (v, p) in lits {
                    seen.entry(v).or_insert(p);
                }
                let lits: Vec<(usize, bool)> = seen.into_iter().collect();
                Cube::from_literals(&lits)
            })
            .collect();
        let sop = Sop::from_cubes(6, cubes);
        let simplified = sop.simplified();
        for m in 0..(1u32 << 6) {
            let assignment: Vec<bool> = (0..6).map(|v| m & (1 << v) != 0).collect();
            prop_assert_eq!(sop.eval(&assignment), simplified.eval(&assignment));
        }
        prop_assert!(simplified.literal_count() <= sop.literal_count());
    }

    /// Pruned ladders keep every retained tap at its full-ladder voltage.
    #[test]
    fn ladder_pruning_is_electrically_equivalent(
        taps in vec(1usize..16, 1..8),
    ) {
        let full = Ladder::full(4, 1.0, 2500.0).tap_voltages().expect("solves");
        let pruned = Ladder::pruned(4, &taps, 1.0, 2500.0).expect("valid taps");
        let v = pruned.tap_voltages().expect("solves");
        for &t in pruned.taps() {
            prop_assert!((v[&t] - full[&t]).abs() < 1e-12, "tap {}", t);
        }
        // Power is invariant under merging.
        prop_assert!(
            (pruned.static_power_watts() - 1.0 / (16.0 * 2500.0)).abs() < 1e-15
        );
    }

    /// Quantization is monotone and inverse-consistent.
    #[test]
    fn quantizer_is_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantize_level(lo, 4) <= quantize_level(hi, 4));
    }

    /// Bespoke ADC area grows strictly with comparator count and its power
    /// grows with tap order.
    #[test]
    fn bespoke_adc_cost_monotonicity(
        taps in vec(1usize..16, 1..10),
        extra_tap in 1usize..16,
    ) {
        let model = AnalogModel::egfet();
        let mut bank = BespokeAdcBank::new(4);
        for &t in &taps {
            bank.require(0, t).expect("valid");
        }
        let before = bank.cost(&model);
        let mut bigger = bank.clone();
        bigger.require(1, extra_tap).expect("valid");
        let after = bigger.cost(&model);
        prop_assert!(after.area > before.area);
        prop_assert!(after.power > before.power);
        prop_assert_eq!(after.comparators, before.comparators + 1);
    }

    /// CART training accuracy never decreases with depth, on random small
    /// datasets.
    #[test]
    fn cart_training_accuracy_monotone_in_depth(
        rows in vec((vec(0.0f64..1.0, 3), 0usize..3), 12..40),
    ) {
        // Ensure at least two classes exist.
        let mut rows = rows;
        rows[0].1 = 0;
        rows[1].1 = 1;
        let ds = Dataset::from_rows("prop", 3, rows).expect("consistent rows");
        let q = QuantizedDataset::from_dataset(&ds.normalized(), 4);
        let mut prev = 0.0f64;
        for depth in 0..=5 {
            let tree = train(&q, &CartConfig::with_max_depth(depth));
            let acc = tree.accuracy(&q);
            prop_assert!(acc >= prev - 1e-12, "depth {}: {} < {}", depth, acc, prev);
            prev = acc;
        }
    }

    /// The vectorized split engine is pinned bit-for-bit to the scalar
    /// reference scan: for random datasets at 1..=8 bits, node subsets,
    /// and per-feature stride grids, both paths return the same
    /// candidates in the same order with the same `gini` f64 bit pattern.
    /// Sixteen labels over at most 47 rows leave classes absent from the
    /// node, the case the engine's present-class Gini sums skip; 7 and 8
    /// bits spread the cells over a two- and four-word occupancy mask.
    #[test]
    fn split_engine_matches_scalar_scan_bit_for_bit(
        rows in vec((vec(0.0f64..1.0, 4), 0usize..16), 12..48),
        subset_bits in vec(any::<bool>(), 48),
        bits in 1u32..=8,
        strides in vec(1u8..=128, 4),
        strided in any::<bool>(),
    ) {
        use printed_ml::datasets::DatasetIndex;
        use printed_ml::dtree::cart::{split_candidates, SplitEngine};
        let mut rows = rows;
        rows[0].1 = 0;
        rows[1].1 = 1;
        let ds = Dataset::from_rows("prop", 4, rows).expect("consistent rows");
        let q = QuantizedDataset::from_dataset(&ds.normalized(), bits);
        let config = CartConfig {
            threshold_strides: if strided {
                // Clamp to powers of two, the stride contract.
                strides.iter().map(|s| s.next_power_of_two()).collect()
            } else {
                Vec::new()
            },
            ..CartConfig::default()
        };
        let subset: Vec<usize> = (0..q.len()).filter(|&i| subset_bits[i]).collect();
        let index = DatasetIndex::new(&q);
        let mut engine = SplitEngine::new(&index);
        // Both the whole-dataset fast path and an arbitrary subset.
        let full: Vec<usize> = (0..q.len()).collect();
        for node in [&full, &subset] {
            if node.is_empty() {
                continue;
            }
            let scalar = split_candidates(&q, node, &config);
            let ids: Vec<u32> = node.iter().map(|&i| i as u32).collect();
            let fast = engine.candidates(&ids, &config);
            prop_assert_eq!(fast.len(), scalar.len());
            for (f, s) in fast.iter().zip(&scalar) {
                prop_assert_eq!((f.feature, f.threshold), (s.feature, s.threshold));
                prop_assert_eq!(f.gini.to_bits(), s.gini.to_bits());
            }
        }
    }

    /// For arbitrary valid trees at 1..=8 bits, the baseline netlist, the
    /// unary covers, and all three unary netlist styles — evaluated
    /// pattern by pattern and word-parallel — agree with tree prediction
    /// on a random batch, and bit-sliced scoring agrees with the tree's
    /// accuracy on batches of 1, 63, 64, 65, 128, 129, 200 and a random
    /// 1..200 samples, across word boundaries. Constant trees (one
    /// universe cube), classes without cubes, and label 3, which no tree
    /// predicts, all occur. So do trees trained on degenerate data:
    /// single-class data, a constant feature, constant features
    /// throughout, a single sample, and depth-0 caps.
    #[test]
    fn all_representations_agree_on_random_trees(
        tree in arb_tree_any_bits(4, 3),
        raw in vec((vec(any::<u8>(), 4), 0usize..4), 200),
        cut in 1usize..200,
        degenerate in (0usize..4, 0usize..5),
    ) {
        // Fold the raw levels onto the tree's precision.
        let bits = tree.bits();
        let batch: Vec<(Vec<u8>, usize)> = raw
            .into_iter()
            .map(|(s, label)| (s.into_iter().map(|l| l >> (8 - bits)).collect(), label))
            .collect();
        assert_representations_agree(&tree, &batch, cut);
        let (feature, depth) = degenerate;
        for data in degenerate_training_sets(&batch, bits, feature) {
            for max_depth in [0, depth] {
                let cart = train(&data, &CartConfig::with_max_depth(max_depth));
                assert_representations_agree(&cart, &batch, cut);
                let aware = AdcAwareConfig {
                    max_depth,
                    tau: 0.01,
                    ..AdcAwareConfig::default()
                };
                assert_representations_agree(&train_adc_aware(&data, &aware), &batch, cut);
            }
        }
    }

    /// Structural queries agree with each other: paths, distinct pairs,
    /// used features, depth and node counts.
    #[test]
    fn tree_structural_queries_are_consistent(tree in arb_tree(5, 4)) {
        // paths cover the space exactly once.
        let paths = tree.paths();
        prop_assert_eq!(paths.len(), tree.leaf_count());
        // distinct pairs ⊆ split pairs; used features ⊆ 0..n.
        let pairs = tree.distinct_pairs();
        prop_assert!(pairs.len() <= tree.split_count());
        for f in tree.used_features() {
            prop_assert!(f < tree.n_features());
        }
        // depth consistency.
        prop_assert!(tree.depth() <= 4);
        prop_assert_eq!(tree.split_count() + tree.leaf_count(), tree.nodes().len());
    }

    /// One-hot decoding returns `Some(class)` exactly when exactly one
    /// class line is asserted — the contract fault campaigns score against.
    #[test]
    fn decode_one_hot_iff_exactly_one(outputs in vec(any::<bool>(), 0..12)) {
        let hot: Vec<usize> = outputs
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        match decode_one_hot(&outputs) {
            Some(class) => prop_assert_eq!(hot, vec![class]),
            None => prop_assert_ne!(hot.len(), 1),
        }
    }

    /// Benign-fault identity: sticking a gate at the value it already
    /// computes for a given input leaves every output unchanged.
    #[test]
    fn benign_faults_are_invisible(
        nl in arb_netlist(4, 24),
        inputs in vec(any::<bool>(), 4),
        gate_pick in any::<u16>(),
    ) {
        use printed_ml::logic::faults::{FaultyNetlist, StuckAt};
        let gate = gate_pick as usize % nl.gate_count();
        let fault_free = nl.eval_all(&inputs);
        let fault = StuckAt { gate, value: fault_free[gate] };
        let faulty = FaultyNetlist::new(&nl, fault);
        prop_assert_eq!(faulty.eval(&inputs), nl.eval(&inputs));
    }

    /// Sweep checkpoints survive the write→resume round trip losslessly for
    /// arbitrary trees and grid points, including through the file-level
    /// loader with a torn (crash-truncated) final line.
    #[test]
    fn checkpoint_lines_round_trip_losslessly(
        tree in arb_tree(4, 3),
        tau in 0.0f64..0.2,
        depth in 1usize..9,
        accuracy in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        use printed_ml::codesign::checkpoint::{load_lines, CheckpointLine, GridRecord};
        let line = CheckpointLine { tau, depth, test_accuracy: accuracy, tree };
        let encoded = line.encode(seed);
        let decoded = CheckpointLine::decode(&encoded, seed).expect("own lines decode");
        prop_assert_eq!(&decoded, &line);
        // A crash mid-append leaves a partial last line; the loader keeps
        // the whole lines and drops the torn one.
        let torn = format!("{encoded}\n{}", &encoded[..encoded.len() / 2]);
        prop_assert_eq!(load_lines::<CheckpointLine>(&torn, seed), vec![line]);
    }

    /// Prefix-sharing equivalence — the sweep engine's load-bearing claim:
    /// training Algorithm 1 at a deep cap and truncating to `d` is
    /// bit-identical to training at `d` with the same seed, for random
    /// datasets, τ values, seeds, and caps (including the degenerate
    /// `d = 0`/`d = 1` and `d ≥` trained-depth cases). CART, which the
    /// reference model's depth selection truncates, obeys the same law.
    #[test]
    fn truncation_equals_fresh_training_on_random_data(
        rows in vec((vec(0.0f64..1.0, 3), 0usize..3), 12..40),
        tau in 0.0f64..0.05,
        seed in any::<u64>(),
        cap in 0usize..=6,
    ) {
        use printed_ml::codesign::train::train_adc_aware_annotated;
        use printed_ml::telemetry::Recorder;
        let mut rows = rows;
        rows[0].1 = 0;
        rows[1].1 = 1;
        let ds = Dataset::from_rows("prop", 3, rows).expect("consistent rows");
        let q = QuantizedDataset::from_dataset(&ds.normalized(), 4);
        let deep_cfg = AdcAwareConfig { max_depth: 6, tau, min_samples_split: 2, seed };
        let deep = train_adc_aware_annotated(&q, &deep_cfg, &Recorder::disabled());
        let fresh = train_adc_aware(&q, &AdcAwareConfig { max_depth: cap, ..deep_cfg });
        prop_assert_eq!(deep.truncated(cap), fresh);
        let deep_cart = train(&q, &CartConfig::with_max_depth(6));
        let fresh_cart = train(&q, &CartConfig::with_max_depth(cap));
        prop_assert_eq!(deep_cart.truncated(cap, &deep_cart.node_majorities(&q)), fresh_cart);
    }
}

/// Shared fixture for the campaign properties below: the quick-grid Seeds
/// sweep plus its test splits, trained once per process — each proptest
/// case then only pays for the two Monte-Carlo campaigns it compares.
fn campaign_fixture() -> &'static (printed_ml::codesign::Exploration, QuantizedDataset, Dataset) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(printed_ml::codesign::Exploration, QuantizedDataset, Dataset)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        use printed_ml::codesign::explore::{explore, ExplorationConfig};
        use printed_ml::datasets::Benchmark;
        let (train, test) = Benchmark::Seeds.load_quantized(4).expect("built-ins load");
        let (_, analog_test) = Benchmark::Seeds.load_split().expect("built-ins split");
        let sweep = explore(&train, &test, &ExplorationConfig::quick());
        (sweep, test, analog_test)
    })
}

proptest! {
    /// DESIGN.md §6 sequential statistics: under the exact completion
    /// bounds, the budgeted campaign's admit/reject decision for every
    /// grid point — and therefore the robust selection — agrees exactly
    /// with an exhaustive campaign at the same per-candidate budget, for
    /// arbitrary budgets, seeds, selection constraints, and loss floors,
    /// while never spending more trials.
    #[test]
    fn budgeted_campaign_decisions_agree_with_exhaustive(
        budget in 4usize..=16,
        seed in 0u64..1024,
        loss in 0.01f64..0.10,
        yield_bound in (any::<bool>(), 0.5f64..1.0),
        fault_bound in (any::<bool>(), 0.0f64..0.8),
        droop_bound in (any::<bool>(), 0.0f64..0.4),
    ) {
        use printed_ml::codesign::{
            AdaptiveBudget, RobustnessCampaign, RobustnessConstraints,
        };
        use printed_ml::telemetry::Recorder;

        let (sweep, test, analog_test) = campaign_fixture();
        let pick = |(on, v): (bool, f64)| if on { Some(v) } else { None };
        let constraints = RobustnessConstraints {
            min_yield: pick(yield_bound),
            min_worst_fault: pick(fault_bound),
            min_droop_margin: pick(droop_bound),
        };
        let floor = sweep.reference_accuracy - loss;

        let mut exhaustive = RobustnessCampaign::quick();
        exhaustive.trials = budget;
        exhaustive.seed = seed;
        let full = exhaustive.run(sweep, test, analog_test, &Recorder::disabled());

        let budgeted = {
            let mut campaign = RobustnessCampaign::quick();
            campaign.trials = budget;
            campaign.seed = seed;
            campaign.budgeted(
                AdaptiveBudget::new(budget)
                    .with_constraints(constraints)
                    .with_floor(floor),
            )
        }
        .run(sweep, test, analog_test, &Recorder::disabled());

        prop_assert_eq!(budgeted.profiles.len(), full.profiles.len());
        prop_assert!(budgeted.trials_spent <= full.trials_spent);
        for (b, f) in budgeted.profiles.iter().zip(&full.profiles) {
            prop_assert_eq!((b.tau.to_bits(), b.depth), (f.tau.to_bits(), f.depth));
            let decide = |p: &printed_ml::codesign::RobustnessProfile| {
                p.robust_accuracy() >= floor - 1e-12 && constraints.admits(p)
            };
            prop_assert_eq!(
                decide(&b.profile),
                decide(&f.profile),
                "decision diverged at τ={} depth {} (budget {}, seed {})",
                b.tau, b.depth, budget, seed
            );
        }
        let key = |c: Option<&printed_ml::codesign::CandidateDesign>| {
            c.map(|c| (c.tau.to_bits(), c.depth))
        };
        prop_assert_eq!(
            key(sweep.select_robust(loss, &budgeted, &constraints)),
            key(sweep.select_robust(loss, &full, &constraints))
        );
    }
}
