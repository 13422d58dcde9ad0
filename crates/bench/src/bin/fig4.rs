//! Reproduces **Fig. 4**: total area and power reduction (×) of the
//! parallel unary architecture + bespoke ADCs over the baseline designs
//! of Table I — using the *same ADC-unaware trained models*, so the gains
//! here come purely from the hardware transformation, not from training.
//!
//! Run with `cargo run --release -p printed-bench --bin fig4`.

use printed_bench::{
    baseline_design, experiment_args, hrule, row_label, TraceHook, BENCHMARK_SPAN,
};
use printed_codesign::synthesize_unary;
use printed_datasets::Benchmark;

fn main() {
    experiment_args("fig4", false);
    let hook = TraceHook::from_env("fig4");
    println!("Fig. 4 — Area/power reduction vs baseline [2] (same models, bespoke ADCs");
    println!("+ parallel unary architecture only; paper averages: 3.0x area, 6.6x power)\n");
    println!(
        "{:<14} | {:>9} {:>9} | {:>9} {:>9} | {:>8} {:>8}",
        "Dataset", "base mm²", "ours mm²", "base mW", "ours mW", "area x", "power x"
    );
    hrule(88);

    let mut geo_area = 1.0f64;
    let mut geo_power = 1.0f64;
    let mut sum_area = 0.0f64;
    let mut sum_power = 0.0f64;
    let stage = hook.recorder().span("stage:benchmarks");
    for benchmark in Benchmark::ALL {
        let span = hook
            .recorder()
            .span(BENCHMARK_SPAN)
            .field("dataset", benchmark.to_string());
        let (model, baseline) = baseline_design(benchmark);
        let ours = synthesize_unary(&model.tree);
        let r = ours.reduction_vs(&baseline);
        span.field("power_factor", r.power_factor).finish();
        geo_area *= r.area_factor;
        geo_power *= r.power_factor;
        sum_area += r.area_factor;
        sum_power += r.power_factor;
        println!(
            "{} | {:>9.1} {:>9.1} | {:>9.2} {:>9.2} | {:>7.1}x {:>7.1}x",
            row_label(benchmark),
            baseline.total_area().mm2(),
            ours.total_area().mm2(),
            baseline.total_power().mw(),
            ours.total_power().mw(),
            r.area_factor,
            r.power_factor,
        );
    }
    stage.finish();
    hrule(88);
    println!(
        "Average: {:.1}x area, {:.1}x power (arithmetic) | {:.1}x / {:.1}x (geometric)",
        sum_area / 8.0,
        sum_power / 8.0,
        geo_area.powf(1.0 / 8.0),
        geo_power.powf(1.0 / 8.0),
    );
    println!("(paper: 3.0x area, 6.6x power on its testbed)");
    hook.finish_or_exit();
}
