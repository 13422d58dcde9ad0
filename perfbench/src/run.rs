//! One benchmark run: set-up, timed passes, checks and metrics.
//!
//! With tracing off the run measures the end-to-end metrics: the program's
//! telemetry is disabled and the benchmark records no spans. With tracing
//! on it alternates untraced and traced passes (the program's collecting
//! recorder plus the benchmark's spans), replays the sweep's and the
//! campaign's inner layers serially, re-ingests the dumped trace with
//! `printed-report`, and reports the per-layer metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use printed_telemetry::{FlowTrace, Recorder};

use crate::check::{campaign_line, check_pass, design_line, PassCheck, Pins};
use crate::measure::{cpu_seconds, median, peak_rss_mb, threads};
use crate::replay::{replay_campaign, replay_sweep, Counts};
use crate::tracer::Tracer;
use crate::workload::{run_pass, set_up, BenchRun, Input, Plan};

/// Set-ups before each pass; `setup_s` is the median over the run, so
/// its samples spread over the run as the passes do.
pub const SETUPS_PER_PASS: usize = 3;

/// Parse repetitions of the dumped trace; `report.ingest_s` is their median.
const INGESTS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload, size and seed variant.
    pub plan: Plan,
    /// Measure until this much time has passed (at least one pass).
    pub seconds: f64,
    /// Measure the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Where the traced run writes its span log and program trace.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations attempted over every pass.
    pub attempted: usize,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl RunResult {
    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// One checked pass with its timings.
struct Pass {
    check: PassCheck,
    wall_s: f64,
    cpu_s: f64,
}

fn timed_pass(
    plan: &Plan,
    inputs: &[Input],
    recorder: &Recorder,
    tracer: &mut Tracer,
    pins: &Pins,
    first: &mut Option<Vec<String>>,
) -> Result<(Pass, Vec<BenchRun>), String> {
    let cpu = cpu_seconds()?;
    let start = Instant::now();
    let runs = run_pass(plan, inputs, recorder, tracer);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu;
    let check = check_pass(plan, &runs, pins, first.as_deref());
    first.get_or_insert_with(|| check.lines.clone());
    Ok((
        Pass {
            check,
            wall_s,
            cpu_s,
        },
        runs,
    ))
}

/// Runs the benchmark.
///
/// # Errors
///
/// Fails when the set-up, a process reading or an output file fails —
/// never for a wrong output, which counts as a failed operation instead.
pub fn run(options: &Options, pins: &Pins) -> Result<RunResult, String> {
    let plan = &options.plan;
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(options.seconds.max(0.0));
    let mut setup_tracers = Vec::new();
    let mut setup_s = Vec::new();
    let mut timed_set_up = || -> Result<Vec<Input>, String> {
        let mut tracer = if options.trace {
            Tracer::on(origin)
        } else {
            Tracer::off()
        };
        let start = Instant::now();
        let inputs = set_up(plan, &mut tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_tracers.push(tracer);
        Ok(inputs)
    };
    let mut first = None;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Tracer)> = Vec::new();
    // Only the latest pass's results are kept (and each is dropped before
    // the next pass starts), so every pass runs on the same heap a single
    // `codesign` command would.
    let mut last = Vec::new();
    let mut last_traced = None;
    let mut peak_rss = None;
    loop {
        last.clear();
        drop(last_traced.take());
        let inputs = (1..SETUPS_PER_PASS).try_fold(timed_set_up()?, |previous, _| {
            drop(previous);
            timed_set_up()
        })?;
        let (pass, runs) = timed_pass(
            plan,
            &inputs,
            &Recorder::disabled(),
            &mut Tracer::off(),
            pins,
            &mut first,
        )?;
        untraced.push(pass);
        last = runs;
        if peak_rss.is_none() {
            // The set-up plus one pass: the peak a single command reaches.
            peak_rss = Some(peak_rss_mb()?);
        }
        if options.trace {
            let (recorder, _) = Recorder::collecting();
            let mut tracer = Tracer::on(origin);
            let (pass, runs) = timed_pass(plan, &inputs, &recorder, &mut tracer, pins, &mut first)?;
            traced.push((pass, tracer));
            last_traced = Some((inputs, runs, recorder));
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut result = RunResult {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        report: Vec::new(),
    };
    for pass in untraced.iter().chain(traced.iter().map(|(p, _)| p)) {
        result.attempted += pass.check.attempted;
        result.failures.extend(pass.check.failures.iter().cloned());
    }
    report_designs(plan, &last, &mut result.report);

    match last_traced {
        Some((inputs, runs, recorder)) => {
            let layers = Layers {
                setup: &setup_tracers,
                untraced: &untraced,
                traced: &traced,
                runs: &runs,
                recorder: &recorder,
            };
            per_layer(options, origin, &inputs, &layers, &mut result)?;
        }
        None => end_to_end(
            &setup_s,
            &untraced,
            peak_rss.expect("at least one pass"),
            &last,
            &mut result,
        ),
    }
    result.report.push(format!(
        "{} pass(es), {} operation(s), error_rate {}",
        untraced.len() + traced.len(),
        result.attempted,
        result.error_rate()
    ));
    Ok(result)
}

/// Human-readable lines for the selected designs.
fn report_designs(plan: &Plan, runs: &[BenchRun], report: &mut Vec<String>) {
    report.push(format!(
        "workload {} (seed variant {}): ",
        plan.workload.name(),
        plan.variant
    ));
    for run in runs {
        report.push(design_line(plan, run));
        report.extend(campaign_line(plan, run));
    }
}

fn push(metrics: &mut Vec<Metric>, name: &'static str, value: f64, unit: &'static str) {
    metrics.push(Metric { name, value, unit });
}

/// The end-to-end metrics of the untimed-telemetry passes.
fn end_to_end(
    setup_s: &[f64],
    passes: &[Pass],
    peak_rss_mb: f64,
    runs: &[BenchRun],
    result: &mut RunResult,
) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let chosen = || runs.iter().map(|r| &r.sweep.candidates[r.chosen]);
    let m = &mut result.metrics;
    push(m, "wall_s", median(&walls), "s");
    push(m, "setup_s", median(setup_s), "s");
    push(m, "cpu_s", median(&cpus), "s");
    push(m, "peak_rss_mb", peak_rss_mb, "MiB");
    push(
        m,
        "area_mm2",
        chosen().map(|c| c.system.total_area().mm2()).sum(),
        "mm2",
    );
    push(
        m,
        "power_mw",
        chosen().map(|c| c.system.total_power().mw()).sum(),
        "mW",
    );
    push(
        m,
        "accuracy",
        chosen().map(|c| c.test_accuracy).sum::<f64>() / runs.len() as f64,
        "ratio",
    );
    push(
        m,
        "self_powered",
        chosen().filter(|c| c.system.is_self_powered()).count() as f64,
        "count",
    );

    if runs.iter().any(|r| r.campaign.is_some()) {
        let (robust_accuracy, yield_) = robust_means(runs);
        result.report.push(format!(
            "robust_accuracy {robust_accuracy} | yield {yield_}"
        ));
    }
    result.report.push(format!("pass wall times {walls:?} s"));
}

/// Mean robust accuracy and yield of the robust selections (0 where no
/// campaign ran or nothing was selected).
fn robust_means(runs: &[BenchRun]) -> (f64, f64) {
    let profiles: Vec<_> = runs
        .iter()
        .filter_map(|r| {
            let campaign = r.campaign.as_ref()?;
            let robust = &r.sweep.candidates[campaign.robust?];
            campaign.outcome.profile_for(robust.tau, robust.depth)
        })
        .collect();
    if profiles.is_empty() {
        return (0.0, 0.0);
    }
    let n = profiles.len() as f64;
    (
        profiles.iter().map(|p| p.robust_accuracy()).sum::<f64>() / n,
        profiles.iter().map(|p| p.yield_estimate).sum::<f64>() / n,
    )
}

/// Self seconds of `name` in `tracer` (0 when no such span ran).
fn own(tracer: &Tracer, name: &str) -> f64 {
    tracer.self_seconds().get(name).copied().unwrap_or(0.0)
}

/// What a traced run measured, for the per-layer metrics.
struct Layers<'a> {
    /// One tracer per set-up.
    setup: &'a [Tracer],
    /// The untraced passes.
    untraced: &'a [Pass],
    /// The traced passes with their spans.
    traced: &'a [(Pass, Tracer)],
    /// The last traced pass's results.
    runs: &'a [BenchRun],
    /// The program's telemetry of the last traced pass.
    recorder: &'a Recorder,
}

/// The per-layer metrics of a traced run.
fn per_layer(
    options: &Options,
    origin: Instant,
    inputs: &[Input],
    layers: &Layers<'_>,
    result: &mut RunResult,
) -> Result<(), String> {
    let plan = &options.plan;
    let (setup_tracers, untraced, traced, runs) =
        (layers.setup, layers.untraced, layers.traced, layers.runs);
    let stage = |name: &str| -> f64 {
        let per_pass: Vec<f64> = traced.iter().map(|(_, t)| own(t, name)).collect();
        median(&per_pass)
    };

    // Serial replays of the last traced pass's inner layers; each
    // benchmark's sweep replay and campaign replay is one checked
    // operation.
    let mut replay = Tracer::on(origin);
    let mut counts = Counts::default();
    let mut check = |what: String, problems: Vec<String>| {
        result.attempted += 1;
        if !problems.is_empty() {
            result
                .failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    };
    let root = replay.enter("replay");
    for (input, run) in inputs.iter().zip(runs) {
        let what = |kind: &str| {
            let (workload, variant) = (plan.workload.name(), plan.variant);
            format!("{workload} {variant} {} {kind} replay", run.benchmark)
        };
        check(
            what("sweep"),
            replay_sweep(input, run, &mut replay, &mut counts),
        );
        if run.campaign.is_some() {
            check(
                what("campaign"),
                replay_campaign(input, run, &mut replay, &mut counts),
            );
        }
    }
    replay.exit(root);

    // The program's own trace of that pass, dumped and re-ingested.
    let snapshot = layers
        .recorder
        .snapshot()
        .ok_or("the traced pass's recorder has no snapshot")?;
    let flow = FlowTrace::from_snapshot(plan.workload.name(), &snapshot);
    let ndjson = flow.to_ndjson();
    let records = ndjson.lines().count();
    let mut ingest_s = Vec::new();
    let mut ingest_problems = Vec::new();
    for _ in 0..INGESTS {
        let start = Instant::now();
        let parsed = printed_report::parse_trace(&ndjson);
        ingest_s.push(start.elapsed().as_secs_f64());
        if !parsed.is_clean() || parsed.trace.sweep.total_candidates != flow.sweep.total_candidates
        {
            ingest_problems.push(format!(
                "{} warning(s), {} of {} candidate span(s) read back",
                parsed.warnings.len(),
                parsed.trace.sweep.total_candidates,
                flow.sweep.total_candidates
            ));
        }
    }
    check(
        format!("{} {} trace ingest", plan.workload.name(), plan.variant),
        ingest_problems,
    );
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let name = plan.workload.name();
    let write = |file: String, text: &str| {
        let path = options.out_dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{name}-trace.ndjson"), &ndjson)?;
    let mut spans = String::new();
    for tracer in setup_tracers {
        spans.push_str(&tracer.to_ndjson("setup"));
    }
    for (_, tracer) in traced {
        spans.push_str(&tracer.to_ndjson("pass"));
    }
    spans.push_str(&replay.to_ndjson("replay"));
    write(format!("{name}-spans.ndjson"), &spans)?;

    let workers = threads() as f64;
    let load: Vec<f64> = setup_tracers
        .iter()
        .map(|t| own(t, "datasets.load"))
        .collect();
    let reference_s = stage("dtree.reference_train");
    let sweep_s = stage("explore.sweep");
    let campaign_s = stage("campaign");
    let replay_own = replay.self_seconds();
    let layer = |name: &str| replay_own.get(name).copied().unwrap_or(0.0);
    let sweep_layers = reference_s
        + layer("train")
        + layer("train.truncate")
        + layer("synth")
        + layer("score")
        + layer("lint.grid");
    // fault_robustness fans out over every core itself, so its replay
    // seconds count once per worker thread.
    let campaign_layers =
        layer("robustness.fault") * workers + layer("mismatch.trial") + layer("campaign.droop");

    let sum_runs = |f: &dyn Fn(&BenchRun) -> usize| runs.iter().map(f).sum::<usize>() as f64;
    let candidates = sum_runs(&|r| r.sweep.candidates.len());
    let failed_points = sum_runs(&|r| r.sweep.failed_candidates.len());
    let lint_errors = sum_runs(&|r| {
        r.lint.error_count()
            + r.sweep
                .lint
                .iter()
                .map(|l| l.report.error_count())
                .sum::<usize>()
    });
    let lint_warnings = sum_runs(&|r| {
        r.lint.warning_count()
            + r.sweep
                .lint
                .iter()
                .map(|l| l.report.warning_count())
                .sum::<usize>()
    });
    let outcomes = || runs.iter().filter_map(|r| r.campaign.as_ref());
    let trials_spent = outcomes().map(|c| c.outcome.trials_spent).sum::<u64>() as f64;
    let trials_budget = outcomes().map(|c| c.outcome.trials_budget).sum::<u64>() as f64;
    let pruned = outcomes().map(|c| c.outcome.pruned.len()).sum::<usize>() as f64;
    let robust = plan.workload.is_robust();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (robust_accuracy, yield_) = robust_means(runs);

    let untraced_wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|(p, _)| p.wall_s).collect::<Vec<_>>());

    let m = &mut result.metrics;
    push(m, "datasets.load_s", median(&load), "s");
    push(m, "dtree.reference_train_s", reference_s, "s");
    push(m, "explore.sweep_s", sweep_s, "s");
    push(m, "explore.candidates", candidates, "count");
    push(m, "explore.failed", failed_points, "count");
    push(m, "sweep.threads", workers, "count");
    push(m, "train.s", layer("train"), "s");
    push(m, "train.trees", counts.trees as f64, "count");
    push(m, "train.gini_evals", counts.gini_evals as f64, "count");
    push(m, "train.truncate_s", layer("train.truncate"), "s");
    push(m, "synth.s", layer("synth"), "s");
    push(m, "score.s", layer("score"), "s");
    push(m, "lint.grid_s", layer("lint.grid"), "s");
    push(m, "lint.selected_s", stage("lint.selected"), "s");
    push(m, "lint.errors", lint_errors, "count");
    push(m, "lint.warnings", lint_warnings, "count");
    push(
        m,
        "sweep.unattributed_s",
        workers * sweep_s - sweep_layers,
        "s",
    );
    push(m, "robustness.fault_s", layer("robustness.fault"), "s");
    push(m, "robustness.faults", counts.faults as f64, "count");
    push(
        m,
        "robustness.fault_evals_per_s",
        ratio(counts.fault_evals as f64, layer("robustness.fault")),
        "1/s",
    );
    push(m, "mismatch.trial_s", layer("mismatch.trial"), "s");
    push(m, "mismatch.trials", counts.trials as f64, "count");
    push(
        m,
        "mismatch.us_per_trial",
        ratio(layer("mismatch.trial") * 1e6, counts.trials as f64),
        "us",
    );
    push(m, "campaign.s", campaign_s, "s");
    push(
        m,
        "campaign.threads",
        if robust { workers } else { 0.0 },
        "count",
    );
    push(m, "campaign.droop_s", layer("campaign.droop"), "s");
    push(m, "campaign.trials_spent", trials_spent, "count");
    push(m, "campaign.trials_budget", trials_budget, "count");
    push(
        m,
        "campaign.trial_ratio",
        ratio(trials_spent, trials_budget),
        "ratio",
    );
    push(m, "campaign.pruned", pruned, "count");
    push(
        m,
        "campaign.fault_share",
        ratio(layer("robustness.fault"), campaign_s),
        "ratio",
    );
    push(
        m,
        "campaign.unattributed_s",
        if robust {
            workers * campaign_s - campaign_layers
        } else {
            0.0
        },
        "s",
    );
    push(m, "campaign.robust_accuracy", robust_accuracy, "ratio");
    push(m, "campaign.yield", yield_, "ratio");
    push(
        m,
        "telemetry.overhead",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    push(m, "telemetry.records", records as f64, "count");
    push(m, "report.ingest_s", median(&ingest_s), "s");
    Ok(())
}
