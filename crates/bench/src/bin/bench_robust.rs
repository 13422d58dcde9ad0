//! Robustness-baseline generator: runs the adaptive budgeted robustness
//! campaign on all eight registry benchmarks over the paper τ×depth grid
//! and writes one `robust_stats` record per benchmark — the suite the
//! `robust-gate` CI job diffs fresh runs against.
//!
//! ```sh
//! cargo run --release -p printed-bench --bin bench_robust -- --out BENCH_robust.ndjson
//! ```
//!
//! Arguments:
//! * `--out <path>` — output NDJSON file (default `BENCH_robust.ndjson`).
//! * `--quick` — the reduced τ×depth grid instead of the paper grid
//!   (for smoke tests; the committed baseline uses the paper grid).
//!
//! ## What one record certifies
//!
//! Per benchmark the generator runs the campaign twice over the same
//! sweep: once exhaustively ([`TRIALS`] Monte-Carlo trials for every
//! candidate) and once adaptively (sequential early-exit plus the
//! cheap-probe pre-pass, same per-candidate ceiling). It hard-fails
//! unless the adaptive campaign reaches the **same robust selection** as
//! the exhaustive one while spending **strictly fewer trials** — the
//! paper-grid acceptance guarantee — and only then emits the adaptive
//! run's stats as the baseline record.
//!
//! The adaptive campaign runs [`RUNS`] times. It is fully seeded, so
//! every run must reproduce the first bit for bit (a drift aborts the
//! generation). The record's `wall_us_median` is the median campaign
//! wall of the runs, shown by `printed-trace diff` but not judged:
//! timing belongs to the repository benchmark (`BENCHMARK.json`).

use std::process::ExitCode;
use std::time::Instant;

use printed_bench::{explore_traced, outln, stderr_progress, BITS};
use printed_codesign::explore::ExplorationConfig;
use printed_codesign::{
    AdaptiveBudget, CampaignOutcome, RobustnessCampaign, RobustnessConstraints,
};
use printed_datasets::{Benchmark, QuantizedDataset};
use printed_pdk::AnalogModel;
use printed_report::{Axis, BenchRecord, Metric};
use printed_telemetry::{Recorder, RunManifest};

/// Accuracy-loss constraint of the robust selection. Looser than the
/// plain flow's 1%: the robust floor applies to the *mean accuracy under
/// mismatch*, which sits a few points below nominal on every benchmark.
const LOSS: f64 = 0.05;

/// Per-benchmark loss override. Balance-Scale's best paper-grid mismatch
/// mean (77.5%, τ=0.025 depth 4) sits 5.5 points under its 83.0%
/// reference — a 5% floor admits nothing there — so it gets 7% while
/// every other benchmark keeps [`LOSS`]. The table is part of the
/// baseline's definition: `robust-gate` CI reruns this binary, so both
/// sides of the diff always use the same floors.
fn loss_for(benchmark: Benchmark) -> f64 {
    match benchmark {
        Benchmark::BalanceScale => 0.07,
        _ => LOSS,
    }
}

/// Per-candidate Monte-Carlo ceiling, shared by the exhaustive reference
/// campaign (as its fixed budget) and the adaptive one (as `trials_max`)
/// so their trial streams are prefix-comparable.
const TRIALS: usize = 24;

/// Adaptive campaign runs per benchmark: the determinism check compares
/// them, and the recorded campaign wall is their median.
const RUNS: usize = 3;

struct Args {
    out: String,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_robust.ndjson".to_owned(),
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--out" => args.out = argv.next().ok_or("--out needs a path")?,
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err("usage: bench_robust [--out PATH] [--quick]".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Key a selection by exact grid point; `None` when no candidate admits.
fn selection_key(pick: Option<&printed_codesign::CandidateDesign>) -> Option<(u64, usize)> {
    pick.map(|c| (c.tau.to_bits(), c.depth))
}

fn run(args: &Args) -> Result<(), String> {
    let grid = if args.quick {
        ExplorationConfig::quick()
    } else {
        ExplorationConfig::paper()
    };
    let manifest = RunManifest::capture("robust");
    let constraints = RobustnessConstraints::default();
    let analog = AnalogModel::egfet();
    let recorder = Recorder::disabled();
    let mut lines = String::new();
    for benchmark in Benchmark::ALL {
        eprintln!(
            "bench_robust: {benchmark} — sweep + exhaustive reference + {RUNS} adaptive runs"
        );
        let (train_analog, test_analog) = benchmark
            .load_split()
            .map_err(|e| format!("{benchmark}: load: {e}"))?;
        let train = QuantizedDataset::from_dataset(&train_analog, BITS);
        let test_q = QuantizedDataset::from_dataset(&test_analog, BITS);
        let progress = stderr_progress();
        let sweep = explore_traced(&train, &test_q, &grid, &recorder, Some(&progress));
        if !sweep.failed_candidates.is_empty() {
            return Err(format!(
                "{benchmark}: {} grid point(s) panicked during the sweep",
                sweep.failed_candidates.len()
            ));
        }
        let loss = loss_for(benchmark);
        let floor = sweep.reference_accuracy - loss;

        let mut exhaustive = RobustnessCampaign::typical();
        exhaustive.trials = TRIALS;
        let full = exhaustive.run_with(&sweep, &test_q, &test_analog, &analog, &recorder);

        let adaptive_campaign = {
            let mut campaign = RobustnessCampaign::typical();
            campaign.trials = TRIALS;
            campaign.budgeted(
                AdaptiveBudget::new(TRIALS)
                    .with_constraints(constraints)
                    .with_floor(floor)
                    .with_probe(),
            )
        };
        let mut walls = Vec::with_capacity(RUNS);
        let mut first: Option<CampaignOutcome> = None;
        for _ in 0..RUNS {
            let started = Instant::now();
            let outcome =
                adaptive_campaign.run_with(&sweep, &test_q, &test_analog, &analog, &recorder);
            walls.push(started.elapsed().as_micros() as u64);
            match &first {
                Some(reference) if *reference != outcome => {
                    return Err(format!(
                        "{benchmark}: nondeterministic adaptive campaign across repeat runs"
                    ));
                }
                Some(_) => {}
                None => first = Some(outcome),
            }
        }
        let adaptive = first.expect("at least one run");

        // The acceptance guarantees, enforced at generation time: the
        // budgeted campaign must agree with the exhaustive one on the
        // robust selection and must actually save trials doing it.
        let full_pick = sweep.select_robust(loss, &full, &constraints);
        let adaptive_pick = sweep.select_robust(loss, &adaptive, &constraints);
        if selection_key(full_pick) != selection_key(adaptive_pick) {
            return Err(format!(
                "{benchmark}: adaptive selection {:?} diverges from exhaustive {:?}",
                adaptive_pick.map(|c| (c.tau, c.depth)),
                full_pick.map(|c| (c.tau, c.depth)),
            ));
        }
        if adaptive.trials_spent >= full.trials_spent {
            return Err(format!(
                "{benchmark}: adaptive campaign spent {} trials, no fewer than the \
                 exhaustive {}",
                adaptive.trials_spent, full.trials_spent
            ));
        }
        let chosen = adaptive_pick.ok_or_else(|| {
            let best = adaptive
                .profiles
                .iter()
                .map(|p| p.profile.robust_accuracy())
                .fold(f64::NEG_INFINITY, f64::max);
            format!(
                "{benchmark}: no candidate admits at {loss} loss (reference {:.3}, \
                 floor {:.3}, best mismatch mean {:.3}) — widen loss_for({benchmark})",
                sweep.reference_accuracy, floor, best
            )
        })?;
        let profile = adaptive
            .profile_for(chosen.tau, chosen.depth)
            .ok_or_else(|| format!("{benchmark}: selected point has no profile"))?;

        walls.sort_unstable();
        let wall = walls[RUNS / 2];
        let record = BenchRecord::new(
            Axis::Robust,
            benchmark.to_string(),
            manifest.clone(),
            vec![
                Metric::new("tau", chosen.tau),
                Metric::new("depth", chosen.depth),
                Metric::new("nominal", profile.nominal),
                Metric::new("robust_accuracy", profile.robust_accuracy()),
                Metric::new("yield", profile.yield_estimate),
                Metric::new("worst_fault", profile.worst_single_fault),
                Metric::new("droop_margin", profile.droop_margin),
                Metric::new("pruned_points", adaptive.pruned.len()),
                Metric::new("trials_budget", adaptive.trials_budget),
                Metric::new("trials_median", adaptive.trials_spent),
                Metric::new("wall_us_median", wall),
            ],
        );
        outln!(
            "{:<14} τ={:<5} depth {}  yield {:>3.0}%  worst-fault {:>5.1}%  droop {:.2}  \
             trials {:>5} of {:>5} ({} pruned)  wall {:>7} µs (median of {RUNS})",
            record.key,
            chosen.tau,
            chosen.depth,
            profile.yield_estimate * 100.0,
            profile.worst_single_fault * 100.0,
            profile.droop_margin,
            adaptive.trials_spent,
            adaptive.trials_budget,
            adaptive.pruned.len(),
            wall,
        );
        lines.push_str(&record.to_json());
        lines.push('\n');
    }
    std::fs::write(&args.out, lines).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!(
        "wrote {} robust_stats record(s) to {}",
        Benchmark::ALL.len(),
        args.out
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
