//! Reproduces **Table II**: the final co-designed decision trees (≤ 1%
//! accuracy loss) — absolute area/power, reductions vs the exact baseline
//! \[2\] and the approximate precision-scaled baseline \[7\], and the 2 mW
//! self-powering verdict.
//!
//! Run with `cargo run --release -p printed-bench --bin table2`. Passing
//! `--resume <prefix>` checkpoints each benchmark's sweep to
//! `<prefix>-<dataset>.ndjson` and resumes completed grid points from an
//! interrupted earlier run (`printed-trace watch` can tail those files).

use printed_bench::{
    experiment_args, explore_traced, hrule, load, outln, row_label, stderr_progress, TraceHook,
    BENCHMARK_SPAN, DEPTH_CAP,
};
use printed_codesign::explore::{Exploration, ExplorationConfig};
use printed_datasets::Benchmark;
use printed_dtree::approx::{synthesize_approx, ApproxConfig};
use printed_dtree::synthesize_baseline;
use printed_pdk::HARVESTER_BUDGET;

/// One published Table II row: (area mm², power mW, ×area vs \[2\], ×power
/// vs \[2\], ×area vs \[7\], ×power vs \[7\]); \[7\] not evaluated on Vertebral-2C.
type PaperRow = (f64, f64, f64, f64, Option<f64>, Option<f64>);

/// Paper's Table II rows.
const PAPER: [PaperRow; 8] = [
    (11.99, 1.26, 21.8, 11.3, Some(10.5), Some(4.3)),
    (10.13, 0.88, 11.3, 14.1, Some(4.4), Some(2.4)),
    (16.24, 0.85, 4.9, 14.1, Some(1.5), Some(1.3)),
    (4.92, 0.35, 6.2, 8.2, Some(5.8), Some(3.6)),
    (2.71, 0.17, 6.2, 16.2, Some(3.4), Some(2.7)),
    (3.26, 0.27, 8.4, 11.9, Some(1.2), Some(1.1)),
    (2.22, 0.15, 7.4, 18.5, None, None),
    (89.00, 6.12, 3.0, 2.8, Some(4.2), Some(2.6)),
];

fn main() {
    let resume = experiment_args("table2", true);
    let hook = TraceHook::from_env("table2");
    let progress = stderr_progress();
    outln!("Table II — Our co-designed decision trees (≤1% accuracy loss) vs [2] and [7]");
    outln!("(measured | paper in parentheses)\n");
    outln!(
        "{:<14} | {:>8} {:>8} | {:>7} {:>7} | {:>13} {:>13} | {:>13} {:>13} | {:>5}",
        "Dataset",
        "mm²",
        "(paper)",
        "mW",
        "(paper)",
        "vs[2] area",
        "vs[2] power",
        "vs[7] area",
        "vs[7] power",
        "<2mW"
    );
    hrule(132);

    let mut avg = [0.0f64; 6];
    let mut approx_counted = 0usize;
    // The Pendigits sweep is reused by the budget footnotes below — no
    // need to brute-force the paper grid on it three times.
    let mut pendigits_sweep: Option<Exploration> = None;
    for (benchmark, paper) in Benchmark::ALL.into_iter().zip(PAPER) {
        let span = hook
            .recorder()
            .span(BENCHMARK_SPAN)
            .field("dataset", benchmark.to_string());
        let (train, test) = load(benchmark);
        let baseline7 = synthesize_approx(
            &train,
            &test,
            &ApproxConfig {
                accuracy_loss_budget: 0.01,
                max_depth: DEPTH_CAP,
                min_bits: 1,
            },
        );
        let mut grid = ExplorationConfig::paper();
        if let Some(prefix) = &resume {
            let slug = benchmark.to_string().to_lowercase();
            grid = grid.with_checkpoint(format!("{prefix}-{slug}.ndjson"));
        }
        let sweep = explore_traced(&train, &test, &grid, hook.recorder(), Some(&progress));
        // The paper grid's deepest cap is DEPTH_CAP, so the sweep's
        // reference is baseline [2]'s model.
        let baseline2 = synthesize_baseline(&sweep.reference);
        let chosen = sweep.choose(0.01).clone();
        span.field("accuracy", chosen.test_accuracy).finish();

        let area = chosen.system.total_area().mm2();
        let power = chosen.system.total_power().mw();
        let a2 = baseline2.total_area().mm2() / area;
        let p2 = baseline2.total_power().mw() / power;
        let a7 = baseline7.total_area().mm2() / area;
        let p7 = baseline7.total_power().mw() / power;
        avg[0] += area / 8.0;
        avg[1] += power / 8.0;
        avg[2] += a2 / 8.0;
        avg[3] += p2 / 8.0;
        if paper.4.is_some() {
            avg[4] += a7;
            avg[5] += p7;
            approx_counted += 1;
        }
        let fmt7 = |v: f64, p: Option<f64>| match p {
            Some(pv) => format!("{v:>5.1}x ({pv:>4.1}x)"),
            None => format!("{v:>5.1}x (  – )"),
        };
        outln!(
            "{} | {:>8.2} ({:>6.2}) | {:>7.2} ({:>5.2}) | {:>5.1}x ({:>4.1}x) | {:>5.1}x ({:>4.1}x) | {} | {} | {:>5}",
            row_label(benchmark),
            area,
            paper.0,
            power,
            paper.1,
            a2,
            paper.2,
            p2,
            paper.3,
            fmt7(a7, paper.4),
            fmt7(p7, paper.5),
            if chosen.system.total_power() < HARVESTER_BUDGET { "yes" } else { "NO" },
        );
        if benchmark == Benchmark::Pendigits {
            pendigits_sweep = Some(sweep);
        }
    }
    hrule(132);
    outln!(
        "Average: {:.2} mm², {:.2} mW | vs[2]: {:.1}x area, {:.1}x power (paper: 8.6x / 12.2x) | \
         vs[7]: {:.1}x / {:.1}x (paper: 4.4x / 2.6x)",
        avg[0],
        avg[1],
        avg[2],
        avg[3],
        avg[4] / approx_counted as f64,
        avg[5] / approx_counted as f64,
    );
    outln!(
        "\nSelf-powering claim: every co-designed classifier except (possibly) Pendigits\n\
         fits the {} printed-energy-harvester budget.",
        HARVESTER_BUDGET
    );

    let sweep = pendigits_sweep.expect("Pendigits is in Benchmark::ALL");

    // Energy view (beyond the paper's static check): an over-budget design
    // still works duty-cycled.
    {
        use printed_pdk::Harvester;
        let h = Harvester::printed_default();
        if let Some(tight) = sweep.select(0.01) {
            let load = tight.system.total_power();
            let rate = h.max_decision_rate_hz(load, printed_pdk::Delay::from_ms(50.0));
            outln!(
                "Duty-cycled Pendigits at ≤1% loss ({:.2} mW): {:.1} decisions/s from a 2 mW harvester",
                load.mw(),
                rate
            );
        }
    }

    // The paper's footnote: Pendigits does fit the budget at a 10% loss.
    if let Some(relaxed) = sweep.select(0.10) {
        outln!(
            "Pendigits at ≤10% accuracy loss: {:.2} mm², {:.2} mW → {} \
             (paper: fits the budget at 10% loss)",
            relaxed.system.total_area().mm2(),
            relaxed.system.total_power().mw(),
            if relaxed.system.total_power() < HARVESTER_BUDGET {
                "self-powered"
            } else {
                "still over budget"
            }
        );
    }
    hook.finish_or_exit();
}
