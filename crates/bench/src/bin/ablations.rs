//! Ablations and extension experiments beyond the paper's tables:
//!
//! 1. **Algorithm 1 τ sensitivity** — retained comparators and ADC power
//!    across the Gini-slack sweep.
//! 2. **Unary netlist styles** — prefix-shared (Fig. 2b) vs pure two-level
//!    AND-OR vs NAND–NAND, plus exact QM with thermometer don't-cares.
//! 3. **Serial-unary strawman** — the §II-C claim, quantified.
//! 4. **ADC architectures** — conventional flash vs SAR vs bespoke flash.
//! 5. **Stuck-at fault robustness** — classifier accuracy under single
//!    manufacturing defects.
//! 6. **Tree ensembles** — shared-ADC-bank forests vs the single tree.
//! 7. **Monte-Carlo mismatch** — accuracy under printing variation.
//!
//! Run with `cargo run --release -p printed-bench --bin ablations`.

use printed_analog::MismatchModel;
use printed_bench::{baseline_model, experiment_args, hrule, row_label, TraceHook, BITS};
use printed_codesign::mismatch::mismatch_accuracy_recorded;
use printed_codesign::train::{train_adc_aware_recorded, AdcAwareConfig};
use printed_codesign::UnaryClassifier;
use printed_datasets::Benchmark;
use printed_logic::report::{analyze, AnalysisConfig};
use printed_pdk::{AnalogModel, CellLibrary};
use printed_telemetry::Recorder;

type Ablation<'a> = (&'static str, &'a dyn Fn(&Recorder));

fn main() {
    experiment_args("ablations", false);
    let hook = TraceHook::from_env("ablations");
    let recorder = hook.recorder();
    // Each ablation runs under a `stage:` span so the PRINTED_TRACE
    // summary shows where the wall time goes.
    let staged: [Ablation; 7] = [
        ("stage:tau_sensitivity", &|r| ablation_tau(r)),
        ("stage:netlist_style", &|_| ablation_netlist_style()),
        ("stage:serial_strawman", &|_| ablation_serial_strawman()),
        ("stage:adc_architectures", &|_| ablation_adc_architectures()),
        ("stage:fault_robustness", &|_| ablation_fault_robustness()),
        ("stage:ensembles", &|_| ablation_ensembles()),
        ("stage:mismatch", &|r| ablation_mismatch(r)),
    ];
    for (stage, run) in staged {
        let span = recorder.span(stage);
        run(recorder);
        span.finish();
    }
    hook.finish_or_exit();
}

/// Tree ensembles with a shared bespoke ADC bank vs the single
/// depth-selected tree (the printed-random-forest follow-up direction).
fn ablation_ensembles() {
    use printed_codesign::ensemble::synthesize_ensemble;
    use printed_codesign::synthesize_unary;
    use printed_dtree::forest::{train_forest, ForestConfig};
    println!("Ablation — Tree ensembles (shared bespoke ADC bank) vs single tree");
    println!(
        "{:<14} | {:>10} {:>9} {:>9} | {:>10} {:>9} {:>9}",
        "Dataset", "single acc", "mm²", "µW", "3x3 acc", "mm²", "µW"
    );
    hrule(84);
    for benchmark in [Benchmark::Seeds, Benchmark::Vertebral3C, Benchmark::Cardio] {
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let single = baseline_model(benchmark);
        let single_sys = synthesize_unary(&single.tree);
        let forest = train_forest(
            &train,
            &ForestConfig {
                trees: 3,
                max_depth: 3,
                feature_fraction: 0.8,
                seed: 7,
            },
        );
        let forest_sys = synthesize_ensemble(&forest);
        println!(
            "{} | {:>9.1}% {:>9.2} {:>9.0} | {:>9.1}% {:>9.2} {:>9.0}",
            row_label(benchmark),
            single.test_accuracy * 100.0,
            single_sys.total_area().mm2(),
            single_sys.total_power().uw(),
            forest.accuracy(&test) * 100.0,
            forest_sys.total_area().mm2(),
            forest_sys.total_power().uw(),
        );
    }
    println!(
        "\nThree depth-3 trees share one comparator pool; whether the ensemble wins\n\
         depends on how much the trees' thresholds overlap.\n"
    );
}

/// Single-stuck-at fault campaigns over the unary classifier netlists.
fn ablation_fault_robustness() {
    use printed_codesign::robustness::fault_robustness;
    println!("Ablation — Accuracy under single stuck-at manufacturing defects");
    println!(
        "{:<14} | {:>9} | {:>9} | {:>9} | {:>7} | {:>7}",
        "Dataset", "fault-free", "mean", "worst", "faults", "benign"
    );
    hrule(76);
    for benchmark in [
        Benchmark::Seeds,
        Benchmark::Vertebral2C,
        Benchmark::Vertebral3C,
    ] {
        let model = baseline_model(benchmark);
        let (_, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let report = fault_robustness(&model.tree, &test);
        println!(
            "{} | {:>8.1}% | {:>8.1}% | {:>8.1}% | {:>7} | {:>6.0}%",
            row_label(benchmark),
            report.fault_free_accuracy * 100.0,
            report.mean_accuracy * 100.0,
            report.worst_accuracy * 100.0,
            report.fault_count,
            report.benign_fraction * 100.0,
        );
    }
    println!(
        "\nBespoke logic is lean: nearly every gate is load-bearing, so a single stuck\n\
         output costs tens of accuracy points on average. Manufacturing test (or\n\
         redundancy) is mandatory for printed classifiers — a finding the nominal-only\n\
         evaluation of the paper does not surface.\n"
    );
}

/// Front-end architecture comparison for one benchmark's input bank:
/// conventional flash vs SAR vs the co-design's bespoke flash.
fn ablation_adc_architectures() {
    use printed_adc::{ConventionalAdc, SarAdc};
    use printed_pdk::SequentialParams;
    println!("Ablation — ADC architectures for the same input banks (4-bit)");
    println!(
        "{:<14} | {:>5} | {:>12} | {:>12} | {:>12} | {:>10}",
        "Dataset", "#in", "flash µW", "SAR µW", "bespoke µW", "SAR ms"
    );
    hrule(84);
    let analog = AnalogModel::egfet();
    let seq = SequentialParams::egfet();
    for benchmark in [Benchmark::Seeds, Benchmark::Vertebral3C, Benchmark::Cardio] {
        let model = baseline_model(benchmark);
        let inputs = model.tree.used_features().len();
        let flash = ConventionalAdc::new(4).bank_cost(inputs, &analog);
        let sar = SarAdc::new(4);
        let sar_bank = sar.bank_cost(inputs, &analog);
        let bespoke = UnaryClassifier::from_tree(&model.tree)
            .adc_bank()
            .cost(&analog);
        println!(
            "{} | {:>5} | {:>12.0} | {:>12.0} | {:>12.0} | {:>10.1}",
            row_label(benchmark),
            inputs,
            flash.power.uw(),
            sar_bank.power.uw(),
            bespoke.power.uw(),
            sar.conversion_latency(&analog, &seq).ms(),
        );
    }
    println!(
        "\nSAR trades 15 comparators for one but pays in printed registers and a\n\
         multi-cycle conversion — and, unlike flash, offers no thermometer taps to\n\
         prune, so the bespoke co-design cannot be applied to it at all.\n"
    );
}

/// The §II-C strawman: a serial temporal-unary implementation vs the
/// paper's fully parallel one.
fn ablation_serial_strawman() {
    use printed_codesign::serial::estimate_serial_unary;
    use printed_codesign::synthesize_unary;
    println!("Ablation — Serial (temporal) unary strawman vs parallel unary (§II-C claim)");
    println!(
        "{:<14} | {:>9} {:>9} | {:>9} {:>9} | {:>5} {:>5} | {:>9} {:>6}",
        "Dataset", "ser mm²", "par mm²", "ser µW", "par µW", "sCmp", "pCmp", "ser ms", "20Hz?"
    );
    hrule(96);
    for benchmark in [
        Benchmark::Seeds,
        Benchmark::Vertebral3C,
        Benchmark::Cardio,
        Benchmark::BalanceScale,
    ] {
        let model = baseline_model(benchmark);
        let serial = estimate_serial_unary(&model.tree);
        let parallel = synthesize_unary(&model.tree);
        println!(
            "{} | {:>9.2} {:>9.2} | {:>9.0} {:>9.0} | {:>5} {:>5} | {:>9.1} {:>6}",
            row_label(benchmark),
            serial.area.mm2(),
            parallel.total_area().mm2(),
            serial.power.uw(),
            parallel.total_power().uw(),
            serial.comparators,
            parallel.comparator_count(),
            serial.latency.ms(),
            if serial.meets_20hz() { "yes" } else { "NO" },
        );
    }
    println!(
        "\nSerial unary does save comparators (one per input) but pays in registers,\n\
         control, and — decisively — a serialized conversion that cannot meet the\n\
         20 Hz cycle budget with millisecond-scale printed comparators.\n"
    );
}

/// τ sensitivity of Algorithm 1: comparators and ADC power vs τ.
fn ablation_tau(recorder: &Recorder) {
    println!("Ablation 1 — Algorithm 1 hardware-awareness vs τ (depth 6)");
    println!(
        "{:<14} | τ = 0.000 … 0.030: retained comparators (ADC µW)",
        "Dataset"
    );
    hrule(100);
    let analog = AnalogModel::egfet();
    for benchmark in [
        Benchmark::Cardio,
        Benchmark::Seeds,
        Benchmark::Vertebral3C,
        Benchmark::BalanceScale,
    ] {
        let (train, _) = benchmark.load_quantized(BITS).expect("built-ins load");
        let mut cells = Vec::new();
        for i in 0..=6 {
            let tau = i as f64 * 0.005;
            let tree = train_adc_aware_recorded(
                &train,
                &AdcAwareConfig {
                    max_depth: 6,
                    tau,
                    ..Default::default()
                },
                recorder,
            );
            let bank = UnaryClassifier::from_tree(&tree).adc_bank();
            let cost = bank.cost(&analog);
            cells.push(format!(
                "{}({:.0})",
                bank.comparator_count(),
                cost.power.uw()
            ));
        }
        println!("{} | {}", row_label(benchmark), cells.join("  "));
    }
    println!();
}

/// Prefix-shared (Fig. 2b style) vs pure two-level vs NAND–NAND unary
/// netlists.
fn ablation_netlist_style() {
    println!("Ablation 2 — Unary netlist style: prefix-shared vs two-level AND-OR vs NAND-NAND");
    println!(
        "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>12}",
        "Dataset", "shr mm²", "2lvl mm²", "nand mm²", "shr µW", "2lvl µW", "nand µW", "cells s/2/n"
    );
    hrule(104);
    let lib = CellLibrary::egfet();
    let cfg = AnalysisConfig::printed_20hz();
    for benchmark in Benchmark::ALL {
        let model = baseline_model(benchmark);
        let u = UnaryClassifier::from_tree(&model.tree);
        let shared = analyze(&u.to_netlist(), &lib, &cfg);
        let two = analyze(&u.to_two_level_netlist(), &lib, &cfg);
        let nand = analyze(&u.to_nand_nand_netlist(), &lib, &cfg);
        // Exact QM with thermometer don't-cares, when the literal count
        // permits enumerating the assignment space.
        let qm = u
            .to_minimized_netlist(12)
            .map(|nl| analyze(&nl, &lib, &cfg))
            .map(|r| format!("{:>6.0} µW", r.total_power().uw()))
            .unwrap_or_else(|| "     —   ".to_owned());
        println!(
            "{} | {:>9.2} {:>9.2} {:>9.2} | {:>9.0} {:>9.0} {:>9.0} | {:>3}/{:>3}/{:>3} | QM+dc {}",
            row_label(benchmark),
            shared.area.mm2(),
            two.area.mm2(),
            nand.area.mm2(),
            shared.total_power().uw(),
            two.total_power().uw(),
            nand.total_power().uw(),
            shared.cell_count,
            two.cell_count,
            nand.cell_count,
            qm,
        );
    }
    println!(
        "(QM+dc: exact Quine–McCluskey per class using thermometer-infeasible input\n\
         assignments as don't-cares — only enumerable for small classifiers.)\n"
    );
}

/// Accuracy under printing mismatch for the co-designed classifiers.
fn ablation_mismatch(recorder: &Recorder) {
    println!("Ablation 3 — Accuracy under printing variation (100 Monte-Carlo trials)");
    println!(
        "{:<14} | {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "Dataset", "nominal", "typ mean", "typ min", "typ max", "pes mean", "pes min", "pes max"
    );
    hrule(96);
    for benchmark in [
        Benchmark::Seeds,
        Benchmark::Vertebral2C,
        Benchmark::Vertebral3C,
        Benchmark::BalanceScale,
        Benchmark::Cardio,
    ] {
        let model = baseline_model(benchmark);
        let (_, test_analog) = benchmark.load_split().expect("built-ins split");
        let typical = mismatch_accuracy_recorded(
            &model.tree,
            &test_analog,
            &MismatchModel::typical_printed(),
            100,
            0xbeef,
            &AnalogModel::egfet(),
            recorder,
        );
        let pessimistic = mismatch_accuracy_recorded(
            &model.tree,
            &test_analog,
            &MismatchModel::pessimistic_printed(),
            100,
            0xbeef,
            &AnalogModel::egfet(),
            recorder,
        );
        println!(
            "{} | {:>7.1}% | {:>7.1}% {:>7.1}% {:>7.1}% | {:>7.1}% {:>7.1}% {:>7.1}%",
            row_label(benchmark),
            typical.nominal * 100.0,
            typical.mean * 100.0,
            typical.min * 100.0,
            typical.max * 100.0,
            pessimistic.mean * 100.0,
            pessimistic.min * 100.0,
            pessimistic.max * 100.0,
        );
    }
    println!(
        "\nTypical printing variation (5% resistor σ, 15 mV offset σ) costs only a few\n\
         accuracy points; the pessimistic corner (10%, 40 mV) is where low-order-tap\n\
         designs show their robustness advantage.\n"
    );

    // Converter-level view of the same variation: DNL/INL of the full
    // 4-bit flash (200 Monte-Carlo instances).
    use printed_adc::mc_linearity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    println!("Converter linearity under the same variation (4-bit flash, 200 instances):");
    for (label, model) in [
        ("typical", MismatchModel::typical_printed()),
        ("pessimistic", MismatchModel::pessimistic_printed()),
    ] {
        let lin = mc_linearity(
            &AnalogModel::egfet(),
            &model,
            200,
            &mut StdRng::seed_from_u64(0xD41),
        );
        println!(
            "  {label:<12} mean max |DNL| {:.2} LSB (worst {:.2}) | mean max |INL| {:.2} LSB | {:.0}% monotonic",
            lin.mean_max_dnl, lin.worst_dnl, lin.mean_max_inl, lin.monotonic_fraction * 100.0
        );
    }
}
