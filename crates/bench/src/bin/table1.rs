//! Reproduces **Table I**: evaluation of the baseline bespoke decision
//! trees (\[2\]) — accuracy, comparator count, input count, ADC and total
//! area/power — alongside the paper's published values for comparison.
//!
//! Run with `cargo run --release -p printed-bench --bin table1`.

use printed_bench::{
    baseline_design, experiment_args, hrule, outln, row_label, TraceHook, BENCHMARK_SPAN,
};
use printed_datasets::Benchmark;

/// Paper's Table I rows: (accuracy %, #comp, #inputs, ADC area, total area,
/// ADC power, total power).
const PAPER: [(f64, usize, usize, f64, f64, f64, f64); 8] = [
    (52.8, 207, 11, 17.3, 261.3, 5.4, 14.6),
    (90.6, 85, 19, 22.3, 114.4, 9.1, 12.5),
    (62.7, 39, 21, 23.5, 79.9, 10.0, 12.0),
    (77.7, 15, 4, 12.9, 30.6, 2.2, 2.9),
    (86.0, 7, 5, 13.6, 16.8, 2.5, 2.8),
    (90.5, 23, 5, 13.6, 27.3, 2.5, 3.2),
    (87.1, 7, 5, 13.6, 16.4, 2.5, 2.8),
    (95.0, 215, 16, 20.4, 268.7, 7.7, 17.2),
];

fn main() {
    experiment_args("table1", false);
    let hook = TraceHook::from_env("table1");
    outln!("Table I — Evaluation of the baseline bespoke decision trees [2]");
    outln!("(measured by this reproduction vs the paper's published values)\n");
    outln!(
        "{:<14} | {:>6} {:>6} | {:>6} {:>6} | {:>5} {:>4} | {:>7} {:>7} | {:>7} {:>7} | {:>6} {:>6} | {:>6} {:>6}",
        "Dataset", "Acc%", "paper", "#Comp", "paper", "#In", "pap",
        "ADCmm2", "paper", "TOTmm2", "paper", "ADCmW", "paper", "TOTmW", "paper"
    );
    hrule(140);

    let mut avg_area = 0.0;
    let mut avg_power = 0.0;
    let mut adc_area_share = 0.0;
    let mut adc_power_share = 0.0;
    let stage = hook.recorder().span("stage:benchmarks");
    for (benchmark, paper) in Benchmark::ALL.into_iter().zip(PAPER) {
        let span = hook
            .recorder()
            .span(BENCHMARK_SPAN)
            .field("dataset", benchmark.to_string());
        let (model, design) = baseline_design(benchmark);
        span.field("accuracy", model.test_accuracy).finish();
        let acc = model.test_accuracy * 100.0;
        let comps = model.tree.split_count();
        let inputs = design.input_count;
        let adc_area = design.adc.area.mm2();
        let tot_area = design.total_area().mm2();
        let adc_power = design.adc.power.mw();
        let tot_power = design.total_power().mw();
        avg_area += tot_area / 8.0;
        avg_power += tot_power / 8.0;
        adc_area_share += adc_area / tot_area;
        adc_power_share += adc_power / tot_power;
        outln!(
            "{} | {:>6.1} {:>6.1} | {:>6} {:>6} | {:>5} {:>4} | {:>7.1} {:>7.1} | {:>7.1} {:>7.1} | {:>6.1} {:>6.1} | {:>6.1} {:>6.1}",
            row_label(benchmark),
            acc, paper.0,
            comps, paper.1,
            inputs, paper.2,
            adc_area, paper.3,
            tot_area, paper.4,
            adc_power, paper.5,
            tot_power, paper.6,
        );
    }
    stage.finish();
    hrule(140);
    outln!("Average total: {avg_area:.1} mm², {avg_power:.2} mW  (paper: 102 mm², 8.5 mW)");
    outln!(
        "\nKey claims to check: every baseline exceeds the 2 mW harvester budget;\n\
         ADCs account for a large share of area (~40%) and power (~74%)."
    );
    outln!(
        "Measured ADC share: {:.0}% of area, {:.0}% of power",
        adc_area_share / 8.0 * 100.0,
        adc_power_share / 8.0 * 100.0
    );
    hook.finish_or_exit();
}
