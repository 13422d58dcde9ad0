//! End-to-end integration tests: the full co-design pipeline across crates,
//! checking functional equivalence at every representation boundary
//! (tree → unary covers → gate-level netlists → behavioral ADC front-end).

use printed_ml::adc::ConventionalAdc;
use printed_ml::codesign::explore::{explore, ExplorationConfig};
use printed_ml::codesign::{synthesize_unary, CodesignFlow, UnaryClassifier};
use printed_ml::datasets::Benchmark;
use printed_ml::dtree::baseline::{baseline_netlist, decode_label, encode_sample};
use printed_ml::dtree::cart::train_depth_selected;
use printed_ml::dtree::synthesize_baseline;
use printed_ml::pdk::AnalogModel;

const SMALL: [Benchmark; 4] = [
    Benchmark::Seeds,
    Benchmark::Vertebral2C,
    Benchmark::Vertebral3C,
    Benchmark::BalanceScale,
];

/// The baseline gate-level netlist computes exactly what the tree predicts,
/// on every test sample of every small benchmark.
#[test]
fn baseline_netlist_equals_tree() {
    for benchmark in SMALL {
        let (train, test) = benchmark.load_quantized(4).expect("built-ins load");
        let model = train_depth_selected(&train, &test, 8);
        let netlist = baseline_netlist(&model.tree);
        for (sample, _) in test.iter() {
            let bits = encode_sample(sample, 4);
            assert_eq!(
                decode_label(&netlist.eval(&bits)),
                model.tree.predict(sample),
                "{benchmark}: {sample:?}"
            );
        }
    }
}

/// The unary netlist (prefix-shared) and the pure two-level netlist both
/// compute exactly what the tree predicts, one-hot, on every test sample.
#[test]
fn unary_netlists_equal_tree() {
    for benchmark in SMALL {
        let (train, test) = benchmark.load_quantized(4).expect("built-ins load");
        let model = train_depth_selected(&train, &test, 8);
        let unary = UnaryClassifier::from_tree(&model.tree);
        for netlist in [unary.to_netlist(), unary.to_two_level_netlist()] {
            for (sample, _) in test.iter() {
                let outs = netlist.eval(&unary.encode_sample(sample));
                let hot: Vec<usize> = outs
                    .iter()
                    .enumerate()
                    .filter(|(_, &o)| o)
                    .map(|(c, _)| c)
                    .collect();
                assert_eq!(hot.len(), 1, "{benchmark} {}: one-hot", netlist.name());
                assert_eq!(hot[0], model.tree.predict(sample), "{benchmark}");
            }
        }
    }
}

/// The analog chain agrees with the digital chain: converting an analog
/// test input through the behavioral bespoke ADC produces exactly the unary
/// digits the quantized sample implies.
#[test]
fn behavioral_adc_matches_quantizer_on_real_data() {
    let benchmark = Benchmark::Seeds;
    let (_, test_q) = benchmark.load_quantized(4).expect("built-ins load");
    let (_, test_f) = benchmark.load_split().expect("built-ins split");
    let (train_q, _) = benchmark.load_quantized(4).expect("built-ins load");
    let model = train_depth_selected(&train_q, &test_q, 6);
    let bank = UnaryClassifier::from_tree(&model.tree).adc_bank();
    let analog = AnalogModel::egfet();
    let adc = ConventionalAdc::new(4);

    for i in 0..test_f.len() {
        let analog_sample = test_f.sample(i);
        let quantized_sample = test_q.sample(i);
        for (feature, _) in bank.iter() {
            // Quantizer and behavioral converter agree per feature…
            assert_eq!(
                adc.convert(analog_sample[feature]),
                quantized_sample[feature],
                "sample {i}, feature {feature}"
            );
            // …and the bespoke ADC's unary digits match the level.
            for (tap, digit) in bank.convert(feature, analog_sample[feature], &analog) {
                assert_eq!(
                    digit,
                    (quantized_sample[feature] as usize) >= tap,
                    "sample {i}, feature {feature}, tap {tap}"
                );
            }
        }
    }
}

/// The co-design always beats the baseline on power, and the full explorer
/// produces self-powered designs within 1% accuracy loss on the small
/// benchmarks (the paper's Table II claim).
#[test]
#[ignore = "reproduction gap: the repo's rand stream generates different synthetic datasets than the anchors were tuned on; first failure: Balance-Scale power reduction x1.67 against the required >2 -- see EXPERIMENTS.md 'Open reproduction gaps'"]
fn codesign_beats_baseline_and_self_powers() {
    for benchmark in SMALL {
        let (train, test) = benchmark.load_quantized(4).expect("built-ins load");
        let model = train_depth_selected(&train, &test, 8);
        let baseline = synthesize_baseline(&model.tree);
        let unary = synthesize_unary(&model.tree);
        let r = unary.reduction_vs(&baseline);
        assert!(
            r.power_factor > 2.0,
            "{benchmark}: power ×{:.2}",
            r.power_factor
        );
        assert!(
            r.area_factor > 1.0,
            "{benchmark}: area ×{:.2}",
            r.area_factor
        );

        let sweep = explore(&train, &test, &ExplorationConfig::quick());
        let chosen = sweep
            .select(0.01)
            .unwrap_or_else(|| sweep.most_accurate().expect("non-empty sweep"));
        assert!(
            chosen.system.is_self_powered(),
            "{benchmark}: {} over budget",
            chosen.system.total_power()
        );
    }
}

/// Every synthesized circuit (baseline and unary) meets the 20 Hz timing
/// budget on every benchmark.
#[test]
fn all_circuits_meet_20hz_timing() {
    for benchmark in Benchmark::ALL {
        let (train, test) = benchmark.load_quantized(4).expect("built-ins load");
        let model = train_depth_selected(&train, &test, 8);
        let baseline = synthesize_baseline(&model.tree);
        let unary = synthesize_unary(&model.tree);
        assert!(
            baseline.digital.meets_timing(50.0),
            "{benchmark} baseline: {}",
            baseline.digital.critical_path
        );
        assert!(
            unary.digital.meets_timing(50.0),
            "{benchmark} unary: {}",
            unary.digital.critical_path
        );
        // The unary two-level logic is also much shallower than the
        // comparator-plus-mux chain of the baseline.
        assert!(unary.digital.critical_path <= baseline.digital.critical_path);
    }
}

/// A traced quick-grid flow records exactly one candidate span per grid
/// point, one span per stage, and a selection event — the observability
/// contract the `PRINTED_TRACE` tooling relies on.
#[test]
fn traced_flow_records_one_candidate_span_per_grid_point() {
    use printed_ml::telemetry::keys;
    let (train, test) = Benchmark::Seeds.load_quantized(4).expect("built-ins load");
    let grid = ExplorationConfig::quick();
    let expected = grid.taus.len() * grid.depths.len();
    let expected_taus = grid.taus.len();
    let outcome = CodesignFlow::new(&train, &test).grid(grid).traced().run();
    let trace = outcome.trace().expect("traced flow carries a trace");
    assert_eq!(trace.sweep.total_candidates, expected);
    assert_eq!(trace.sweep.candidates.len(), expected);
    for stage in [
        keys::STAGE_REFERENCE,
        keys::STAGE_BASELINE,
        keys::STAGE_SWEEP,
        keys::STAGE_SELECTION,
    ] {
        assert!(trace.stage(stage).is_some(), "missing {stage}");
    }
    // Prefix sharing: one training per τ, everything else derived.
    assert_eq!(trace.counter(keys::TREES_TRAINED), expected_taus as u64);
    assert_eq!(
        trace.counter(keys::TREES_SHARED),
        (expected - expected_taus) as u64
    );
    let selections = trace
        .events
        .iter()
        .filter(|e| e.name == keys::SELECTED_EVENT)
        .count();
    assert_eq!(selections, 1, "exactly one selection event");
    // The selection stage also attributes hardware: one `adc` event per
    // ADC-backed input and one `class_logic` event per class label.
    let system = &outcome.chosen.system;
    let adc_events = trace.events.iter().filter(|e| e.name == keys::ADC_EVENT);
    assert_eq!(adc_events.count(), system.input_count());
    let class_events = trace.events.iter().filter(|e| e.name == keys::CLASS_EVENT);
    assert_eq!(class_events.count(), train.n_classes());
    assert_eq!(
        trace.counter(keys::HW_COMPARATORS_RETAINED),
        system.comparator_count() as u64
    );
}

/// Robustness-aware selection demonstrably diverges from plain selection
/// on Seeds: the power-minimal candidate within the loss budget has a thin
/// supply-droop margin, so a modest droop constraint steers the campaign
/// toward a different grid point — end-to-end through the flow and visible
/// in the rendered `printed-trace report` robustness section.
#[test]
fn robust_selection_diverges_from_plain_on_seeds() {
    use printed_ml::codesign::{RobustnessCampaign, RobustnessConstraints};
    use printed_ml::report::CostReport;
    use printed_ml::telemetry::Recorder;

    let (train, test) = Benchmark::Seeds.load_quantized(4).expect("built-ins load");
    let (_, analog_test) = Benchmark::Seeds.load_split().expect("built-ins split");
    let grid = ExplorationConfig::quick();
    let sweep = explore(&train, &test, &grid);
    let campaign = RobustnessCampaign::quick();
    let outcome = campaign.run(&sweep, &test, &analog_test, &Recorder::disabled());
    let constraints = RobustnessConstraints {
        min_droop_margin: Some(0.2),
        ..RobustnessConstraints::default()
    };

    let plain = sweep.select(0.05).expect("Seeds admits a 5%-loss design");
    let robust = sweep
        .select_robust(0.05, &outcome, &constraints)
        .expect("a droop-tolerant design exists on the quick grid");
    assert!(
        (plain.tau, plain.depth) != (robust.tau, robust.depth),
        "selections agree at (τ={}, depth {}) — the droop constraint did not bite",
        plain.tau,
        plain.depth
    );
    // The divergence is *because* of robustness: the plain choice violates
    // the droop constraint, the robust choice satisfies it within the same
    // accuracy budget.
    let plain_profile = outcome
        .profile_for(plain.tau, plain.depth)
        .expect("every candidate was profiled");
    assert!(!constraints.admits(plain_profile));
    let robust_profile = outcome
        .profile_for(robust.tau, robust.depth)
        .expect("every candidate was profiled");
    assert!(constraints.admits(robust_profile));
    assert!(
        robust_profile.robust_accuracy() >= sweep.reference_accuracy - 0.05 - 1e-12,
        "robust accuracy {} under the floor",
        robust_profile.robust_accuracy()
    );

    // Same divergence end-to-end: the flow with the constrained campaign
    // picks the robust design, and the report renders its profile.
    let flow_outcome = CodesignFlow::new(&train, &test)
        .grid(grid)
        .accuracy_loss(0.05)
        .robustness_with(campaign, &analog_test, constraints)
        .traced()
        .run();
    assert_eq!(
        (flow_outcome.chosen.tau, flow_outcome.chosen.depth),
        (robust.tau, robust.depth)
    );
    let report = CostReport::from_trace(flow_outcome.trace().expect("traced run"));
    assert_eq!(report.robustness.len(), sweep.candidates.len());
    let text = report.render_text();
    assert!(text.contains("robustness"), "missing section:\n{text}");
    assert!(text.contains("worst-fault"), "missing header:\n{text}");
}

/// The explorer's selected designs reproduce the Fig. 5 monotonicity on a
/// real benchmark: looser accuracy constraints never need more power.
#[test]
fn constraint_relaxation_is_monotone() {
    let (train, test) = Benchmark::Cardio.load_quantized(4).expect("built-ins load");
    let sweep = explore(&train, &test, &ExplorationConfig::quick());
    let mut last = f64::INFINITY;
    for loss in [0.0, 0.01, 0.02, 0.05, 0.10] {
        if let Some(c) = sweep.select(loss) {
            let p = c.system.total_power().uw();
            assert!(p <= last + 1e-9, "loss {loss}: {p} vs {last}");
            last = p;
        }
    }
}
