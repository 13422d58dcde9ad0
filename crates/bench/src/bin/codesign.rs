//! The co-design CLI: run the full flow ([`CodesignFlow`]) on a benchmark,
//! print its outcome and optionally export the resulting hardware as
//! structural Verilog and SPICE. The flow composes the pipeline; this
//! binary only parses arguments, prints and decides the exit code.
//!
//! ```sh
//! cargo run --release -p printed-bench --bin codesign -- seeds --loss 0.01 \
//!     --verilog seeds.v --spice seeds_ladder.sp
//! ```
//!
//! Arguments:
//! * `<benchmark>` — any Table I dataset name (`table1` row labels or their
//!   lowercase forms);
//! * `--loss <fraction>` — accuracy-loss constraint (default `0.01`);
//! * `--quick` — reduced τ×depth grid;
//! * `--robust` — run the robustness campaign (faults + mismatch + droop)
//!   over the sweep and report the robustness-aware selection; fails if any
//!   grid point panicked or no candidate could be profiled;
//! * `--trials <n>` — Monte-Carlo trials per candidate for `--robust`;
//! * `--trials-max <n>` — switch the campaign to the adaptive sequential
//!   budget: candidates stop early once a completion bound proves they
//!   admit or violate the selection constraints, spending at most `n`
//!   trials each, and the cheap-probe pre-pass prunes grid points whose
//!   nominal accuracy or droop margin already rules them out;
//! * `--resume <path>` — checkpoint the sweep to this NDJSON file and, if
//!   it already holds completed grid points from an interrupted run with
//!   the same seed on the same benchmark, resume from them instead of
//!   re-training (lines from any other run are ignored); with
//!   `--robust` the campaign checkpoints per-candidate profiles to
//!   `<path>.robust` and resumes them the same way;
//! * `--lint[=deny|=deny-warnings|=fix]` — print the static-analysis
//!   findings on the selected design (and the whole-grid sweep lint that
//!   every exploration already performs in-flow). With `=deny`, exit
//!   non-zero when any error-severity diagnostic fires — on the chosen
//!   design *or on any grid candidate* — while warnings-only runs still
//!   exit 0; with `=deny-warnings`, warnings block too; with `=fix`, run
//!   the fixpoint autofix rewriter (drop dead comparators, prune their
//!   literals, re-derive the ADC cost), print the repair walkthrough, and
//!   exit non-zero only if the repair is unsound: the repaired design
//!   fails to prove feasible-domain equivalence, or its re-lint still
//!   reports an error, an A002 or a C001 (warnings the rewriter never
//!   touches, such as U002, are printed but do not fail the run);
//! * `--verilog <path>` — write the unary classifier netlist as Verilog;
//! * `--spice <path>` — write the bespoke reference ladder as a SPICE deck.

use std::process::ExitCode;

use printed_analog::ladder::Ladder;
use printed_analog::spice::ladder_deck;
use printed_bench::{outln, stderr_progress, TraceHook, BITS};
use printed_codesign::explore::ExplorationConfig;
use printed_codesign::{AdaptiveBudget, CodesignFlow, FlowOutcome, RobustnessCampaign};
use printed_datasets::{Benchmark, QuantizedDataset};
use printed_logic::equiv::Equivalence;
use printed_logic::verilog::to_verilog;
use printed_pdk::AnalogModel;

#[derive(Clone, Copy, PartialEq)]
enum LintMode {
    Off,
    Warn,
    Deny,
    DenyWarnings,
    Fix,
}

impl LintMode {
    /// Whether this mode runs the lint stage at all.
    fn enabled(self) -> bool {
        self != LintMode::Off
    }

    /// Whether error-severity diagnostics (chosen design or any grid
    /// candidate) fail the run.
    fn denies_errors(self) -> bool {
        matches!(self, LintMode::Deny | LintMode::DenyWarnings)
    }
}

struct Args {
    benchmark: Benchmark,
    loss: f64,
    quick: bool,
    robust: bool,
    lint: LintMode,
    trials: Option<usize>,
    trials_max: Option<usize>,
    resume: Option<String>,
    verilog: Option<String>,
    spice: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let benchmark: Benchmark = argv
        .next()
        .ok_or(
            "usage: codesign <benchmark> [--loss F] [--quick] [--robust] [--trials N] \
             [--trials-max N] [--resume P] [--lint[=deny|=deny-warnings|=fix]] \
             [--verilog P] [--spice P]",
        )?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let mut args = Args {
        benchmark,
        loss: 0.01,
        quick: false,
        robust: false,
        lint: LintMode::Off,
        trials: None,
        trials_max: None,
        resume: None,
        verilog: None,
        spice: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--loss" => {
                let v = argv.next().ok_or("--loss needs a value")?;
                args.loss = v.parse().map_err(|e| format!("--loss: {e}"))?;
                if !(0.0..1.0).contains(&args.loss) {
                    return Err("--loss must be in [0, 1)".into());
                }
            }
            "--quick" => args.quick = true,
            "--robust" => args.robust = true,
            "--lint" => args.lint = LintMode::Warn,
            "--lint=deny" => args.lint = LintMode::Deny,
            "--lint=deny-warnings" => args.lint = LintMode::DenyWarnings,
            "--lint=fix" => args.lint = LintMode::Fix,
            "--trials" => {
                let v = argv.next().ok_or("--trials needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("--trials: {e}"))?;
                if n == 0 {
                    return Err("--trials must be at least 1".into());
                }
                args.trials = Some(n);
            }
            "--trials-max" => {
                let v = argv.next().ok_or("--trials-max needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("--trials-max: {e}"))?;
                if n == 0 {
                    return Err("--trials-max must be at least 1".into());
                }
                args.trials_max = Some(n);
            }
            "--resume" => args.resume = Some(argv.next().ok_or("--resume needs a path")?),
            "--verilog" => args.verilog = Some(argv.next().ok_or("--verilog needs a path")?),
            "--spice" => args.spice = Some(argv.next().ok_or("--spice needs a path")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.trials.is_some() && !args.robust {
        return Err("--trials only makes sense with --robust".into());
    }
    if args.trials_max.is_some() && !args.robust {
        return Err("--trials-max only makes sense with --robust".into());
    }
    if args.trials.is_some() && args.trials_max.is_some() {
        return Err(
            "--trials (fixed budget) and --trials-max (adaptive ceiling) are exclusive".into(),
        );
    }
    Ok(args)
}

fn run(args: &Args, hook: &mut TraceHook) -> Result<(), String> {
    // One load serves both views: the quantized splits train and score,
    // the analog test split feeds the robustness campaign.
    let (train_analog, test_analog) = args
        .benchmark
        .load_split()
        .map_err(|e| format!("load: {e}"))?;
    let train = QuantizedDataset::from_dataset(&train_analog, BITS);
    let test = QuantizedDataset::from_dataset(&test_analog, BITS);
    outln!(
        "{}: {} train / {} test samples, {} features, {} classes",
        args.benchmark,
        train.len(),
        test.len(),
        train.n_features(),
        train.n_classes()
    );

    let mut grid = if args.quick {
        ExplorationConfig::quick()
    } else {
        ExplorationConfig::paper()
    };
    let mut campaign = if args.quick {
        RobustnessCampaign::quick()
    } else {
        RobustnessCampaign::typical()
    };
    if let Some(trials) = args.trials {
        campaign.trials = trials;
    }
    if let Some(trials_max) = args.trials_max {
        // The flow injects the selection's constraints and robust floor.
        campaign = campaign.budgeted(AdaptiveBudget::new(trials_max).with_probe());
    }
    if let Some(path) = &args.resume {
        // Open the sweep and campaign checkpoints before any work starts:
        // an unwritable path fails here with one line, not in a worker.
        // The campaign checkpoints beside the sweep checkpoint, never
        // inside it: sweep compaction rewrites the file and would drop
        // robust lines.
        let robust = format!("{path}.robust");
        for file in std::iter::once(path).chain(args.robust.then_some(&robust)) {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(file)
                .map_err(|e| format!("cannot open checkpoint file {file}: {e}"))?;
        }
        grid = grid.with_checkpoint(path);
        campaign.checkpoint_path = Some(robust);
    }
    let progress = stderr_progress();
    let mut flow = CodesignFlow::new(&train, &test)
        .accuracy_loss(args.loss)
        .grid(grid.clone())
        .title(args.benchmark.to_string())
        .recorder(hook.recorder().clone())
        .progress(&progress);
    if args.robust {
        flow = flow.robustness(campaign.clone(), &test_analog);
    }
    let outcome = flow.run();
    if let Some(manifest) = outcome.trace().and_then(|trace| trace.manifest.clone()) {
        hook.set_manifest(manifest);
    }

    outln!(
        "baseline [2]: {:.1}% accuracy, {:.2}, {:.2}",
        outcome.reference_accuracy * 100.0,
        outcome.baseline.total_area(),
        outcome.baseline.total_power()
    );
    if let Some(path) = &args.resume {
        outln!("checkpointing sweep to {path} (resumes completed points)");
    }
    let chosen = &outcome.chosen;
    let r = outcome.reduction();
    outln!(
        "co-design (τ={}, depth {}): {:.1}% accuracy, {:.2}, {:.2} — {:.1}x area, {:.1}x power vs baseline",
        chosen.tau,
        chosen.depth,
        chosen.test_accuracy * 100.0,
        chosen.system.total_area(),
        chosen.system.total_power(),
        r.area_factor,
        r.power_factor
    );
    outln!(
        "{} comparators over {} inputs; self-powered: {}\n",
        chosen.system.comparator_count(),
        chosen.system.input_count(),
        chosen.system.is_self_powered()
    );
    outln!("{}", outcome.datasheet());

    if args.lint.enabled() {
        let report = &outcome.lint;
        outln!("{}", report.render_text());

        // The whole-grid in-flow lint already ran inside the sweep
        // workers; surface its verdict next to the chosen design's.
        let grid_lint = &outcome.sweep.lint;
        let grid_errors: usize = grid_lint.iter().map(|l| l.report.error_count()).sum();
        let grid_warnings: usize = grid_lint.iter().map(|l| l.report.warning_count()).sum();
        outln!(
            "whole-grid lint: {} candidate(s), {grid_errors} error(s) / {grid_warnings} warning(s)",
            grid_lint.len()
        );

        if args.lint == LintMode::Fix {
            run_fix(chosen, &grid)?;
        }
        if args.lint.denies_errors() && (report.has_errors() || grid_errors > 0) {
            return Err(format!(
                "lint found {} error-severity diagnostic(s) on the chosen design \
                 and {grid_errors} across the sweep grid",
                report.error_count()
            ));
        }
        if args.lint == LintMode::DenyWarnings
            && (!report.diagnostics.is_empty() || grid_warnings > 0)
        {
            return Err(format!(
                "lint found {} diagnostic(s) on the chosen design and \
                 {grid_warnings} warning(s) across the sweep grid (deny-warnings)",
                report.diagnostics.len()
            ));
        }
    }

    if args.robust {
        report_robustness(args, &campaign, &outcome)?;
    }

    if let Some(path) = &args.verilog {
        let netlist = chosen.system.classifier.to_netlist();
        std::fs::write(path, to_verilog(&netlist)).map_err(|e| format!("{path}: {e}"))?;
        outln!("wrote unary classifier netlist to {path}");
    }
    if let Some(path) = &args.spice {
        let analog = AnalogModel::egfet();
        let taps = chosen.system.classifier.adc_bank().distinct_taps();
        if taps.is_empty() {
            return Err("design has no retained taps; nothing to export".into());
        }
        let ladder = Ladder::pruned(
            BITS,
            &taps,
            analog.supply.volts(),
            analog.unit_resistor.ohms(),
        )
        .map_err(|e| format!("ladder: {e}"))?;
        let deck = ladder_deck(
            &ladder,
            &format!("{} bespoke reference ladder", args.benchmark),
        );
        std::fs::write(path, deck).map_err(|e| format!("{path}: {e}"))?;
        outln!("wrote bespoke ladder SPICE deck to {path}");
    }
    Ok(())
}

/// The `--lint=fix` leg: run the fixpoint autofix rewriter over the
/// chosen design and print the repair walkthrough — comparators
/// released, the re-derived ADC cost, the re-lint verdict, and the
/// feasible-domain equivalence proof. Errors (→ non-zero exit) only when
/// the repair breaks a promise of the rewriter: equivalence fails, or
/// the re-lint reports an error, an A002 or a C001.
fn run_fix(
    chosen: &printed_codesign::CandidateDesign,
    grid: &ExplorationConfig,
) -> Result<(), String> {
    let before = &chosen.system.adc;
    let outcome = printed_codesign::fix_candidate(chosen, &AnalogModel::egfet(), Some(grid));
    if outcome.dropped.is_empty() {
        outln!("autofix: design is already a fixpoint — nothing to repair");
    } else {
        outln!(
            "autofix: {} iteration(s) released {} dead comparator(s):",
            outcome.iterations,
            outcome.dropped.len()
        );
        for &(feature, tap) in &outcome.dropped {
            outln!("  - adc x{feature} tap {tap}");
        }
        outln!(
            "  ADC bank: {} → {} comparators, {:.2} → {:.2}, {:.2} → {:.2}",
            before.comparators,
            outcome.reported.comparators,
            before.power,
            outcome.reported.power,
            before.area,
            outcome.reported.area
        );
    }
    match &outcome.equivalence {
        Equivalence::Equivalent { exhaustive: true } => {
            outln!("  equivalence: proven exhaustively over the feasible domain")
        }
        Equivalence::Equivalent { exhaustive: false } => {
            outln!("  equivalence: holds on the seeded feasible-domain sample")
        }
        other => outln!("  equivalence: FAILED — {other:?}"),
    }
    if outcome.report.diagnostics.is_empty() {
        outln!("  re-lint: clean");
    } else {
        outln!("  re-lint:\n{}", outcome.report.render_text());
    }
    match outcome.unmet_obligation() {
        None => Ok(()),
        Some(why) => Err(format!("autofix produced an unsound repair: {why}")),
    }
}

/// The `--robust` leg: print the flow's per-candidate profile table
/// (faults, mismatch, supply droop) and its robustness-aware selection
/// next to the plain one. Errors (→ non-zero exit, the CI smoke
/// assertion) when any grid point panicked or when the campaign produced
/// no profiles.
fn report_robustness(
    args: &Args,
    campaign: &RobustnessCampaign,
    flow: &FlowOutcome,
) -> Result<(), String> {
    let outcome = flow
        .robustness
        .as_ref()
        .expect("--robust runs the campaign");
    if let Some(path) = &campaign.checkpoint_path {
        outln!("checkpointing campaign to {path} (resumes profiled candidates)");
    }
    if !flow.sweep.failed_candidates.is_empty() {
        return Err(format!(
            "{} grid point(s) panicked during the sweep",
            flow.sweep.failed_candidates.len()
        ));
    }
    if outcome.profiles.is_empty() {
        return Err(format!(
            "robustness campaign produced no profiles ({} grid point(s) pruned)",
            outcome.pruned.len()
        ));
    }

    if campaign.adaptive.is_some() {
        outln!(
            "robustness campaign: adaptive, ≤{} trials/candidate, {:.0}% yield tolerance",
            campaign.trial_budget(),
            campaign.yield_loss * 100.0
        );
        let saved = outcome.trials_budget.saturating_sub(outcome.trials_spent);
        outln!(
            "  trials spent {} of {} budgeted ({saved} saved); {} grid point(s) probe-pruned",
            outcome.trials_spent,
            outcome.trials_budget,
            outcome.pruned.len()
        );
        for pruned in &outcome.pruned {
            outln!(
                "  pruned τ={} depth {} ({}: nominal {:.1}%)",
                pruned.tau,
                pruned.depth,
                pruned.reason.as_str(),
                pruned.nominal * 100.0
            );
        }
    } else {
        outln!(
            "robustness campaign: {} trials/candidate, {:.0}% yield tolerance",
            campaign.trials,
            campaign.yield_loss * 100.0
        );
    }
    outln!("     τ      depth  nominal  mismatch  worst-fault  droop  yield");
    for row in &outcome.profiles {
        outln!(
            "  {:<8} {:>3}    {:>5.1}%    {:>5.1}%      {:>5.1}%   {:>5.2}  {:>4.0}%",
            row.tau,
            row.depth,
            row.profile.nominal * 100.0,
            row.profile.mean_under_mismatch * 100.0,
            row.profile.worst_single_fault * 100.0,
            row.profile.droop_margin,
            row.profile.yield_estimate * 100.0
        );
    }

    match &flow.robust_choice {
        Some(robust) => {
            let (plain_tau, plain_depth) = (flow.chosen.tau, flow.chosen.depth);
            let agrees = robust.depth == plain_depth && robust.tau.to_bits() == plain_tau.to_bits();
            outln!(
                "robust selection (τ={}, depth {}): {:.1}% nominal — {}",
                robust.tau,
                robust.depth,
                robust.test_accuracy * 100.0,
                if agrees {
                    "agrees with the plain selection".to_string()
                } else {
                    format!(
                        "diverges from the plain selection (τ={plain_tau}, depth {plain_depth})"
                    )
                }
            );
        }
        None => outln!(
            "no candidate meets the robustness constraints within {:.1}% loss",
            args.loss * 100.0
        ),
    }
    outln!();
    Ok(())
}

fn main() -> ExitCode {
    let mut hook = TraceHook::from_env("codesign");
    let outcome = parse_args().and_then(|args| run(&args, &mut hook));
    let errors: Vec<String> = [outcome.err(), hook.finish().err()]
        .into_iter()
        .flatten()
        .collect();
    for message in &errors {
        eprintln!("error: {message}");
    }
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
