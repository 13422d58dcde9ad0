//! Reproduces **Fig. 5**: the *additional* hardware gains delivered by the
//! ADC-aware training (Algorithm 1) on top of the Fig. 4 designs, under
//! accuracy-loss constraints of 0%, 1%, and 5%.
//!
//! Methodology as in the paper: brute-force τ ∈ {0, 0.005, …, 0.03} ×
//! depth ∈ {2..8}; for each constraint pick the most efficient design whose
//! test accuracy stays within the constraint of the ADC-unaware reference;
//! report the area/power reduction (%) relative to the unary+bespoke-ADC
//! design of the *unaware* model.
//!
//! Run with `cargo run --release -p printed-bench --bin fig5`. Passing
//! `--resume <prefix>` checkpoints each benchmark's sweep to
//! `<prefix>-<dataset>.ndjson` and resumes completed grid points from an
//! interrupted earlier run (`printed-trace watch` can tail those files).

use printed_bench::{
    experiment_args, explore_traced, hrule, load, outln, row_label, stderr_progress, TraceHook,
    BENCHMARK_SPAN,
};
use printed_codesign::explore::ExplorationConfig;
use printed_codesign::synthesize_unary;
use printed_datasets::Benchmark;

fn main() {
    let resume = experiment_args("fig5", true);
    let hook = TraceHook::from_env("fig5");
    let progress = stderr_progress();
    outln!("Fig. 5 — Additional gains from ADC-aware training (vs the Fig. 4 designs)");
    outln!("(paper averages: 0% loss → 11% area / 15% power; 5% loss → 45% / 57%)\n");
    outln!(
        "{:<14} | {:>16} | {:>16} | {:>16}",
        "Dataset",
        "0% loss (A/P)",
        "1% loss (A/P)",
        "5% loss (A/P)"
    );
    hrule(72);

    let losses = [0.0, 0.01, 0.05];
    let mut avg = [[0.0f64; 2]; 3];
    for benchmark in Benchmark::ALL {
        let span = hook
            .recorder()
            .span(BENCHMARK_SPAN)
            .field("dataset", benchmark.to_string());
        let (train, test) = load(benchmark);
        let mut grid = ExplorationConfig::paper();
        if let Some(prefix) = &resume {
            let slug = benchmark.to_string().to_lowercase();
            grid = grid.with_checkpoint(format!("{prefix}-{slug}.ndjson"));
        }
        let sweep = explore_traced(&train, &test, &grid, hook.recorder(), Some(&progress));
        span.finish();
        // The sweep's reference is the unaware model (the paper grid
        // reaches depth 8, the baseline cap).
        let unaware_system = synthesize_unary(&sweep.reference);

        let mut cells = Vec::new();
        for (k, &loss) in losses.iter().enumerate() {
            // Fall back to the most accurate candidate when the reference
            // accuracy is unreachable at 0% (can happen on noisy data).
            let chosen = sweep.choose(loss);
            let a0 = unaware_system.total_area().mm2();
            let p0 = unaware_system.total_power().uw();
            let area_gain = 100.0 * (1.0 - chosen.system.total_area().mm2() / a0);
            let power_gain = 100.0 * (1.0 - chosen.system.total_power().uw() / p0);
            avg[k][0] += area_gain / 8.0;
            avg[k][1] += power_gain / 8.0;
            cells.push(format!("{:>6.1}% /{:>6.1}%", area_gain, power_gain));
        }
        outln!(
            "{} | {} | {} | {}",
            row_label(benchmark),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    hrule(72);
    outln!(
        "Average        | {:>6.1}% /{:>6.1}% | {:>6.1}% /{:>6.1}% | {:>6.1}% /{:>6.1}%",
        avg[0][0],
        avg[0][1],
        avg[1][0],
        avg[1][1],
        avg[2][0],
        avg[2][1]
    );
    outln!(
        "\nPositive percentages are area/power *savings* of the ADC-aware model over the\n\
         unaware model, both synthesized with bespoke ADCs + unary logic."
    );
    hook.finish_or_exit();
}
