//! End-to-end tests of the `printed-trace` CLI against a real traced
//! Seeds co-design run: `report` must render stage self-times and the
//! per-ADC cost table, and `diff` must exit 1 when a >5% Gini-eval
//! regression is injected while a slower wall time only shows.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use printed_codesign::{CodesignFlow, ExplorationConfig};
use printed_datasets::Benchmark;
use printed_report::{parse_trace, Axis, BenchRecord, Metric};
use printed_telemetry::{keys, FlowTrace, RunManifest};

fn traced_seeds() -> FlowTrace {
    let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
    CodesignFlow::new(&train, &test)
        .grid(ExplorationConfig::quick())
        .title("Seeds")
        .traced()
        .run()
        .trace()
        .expect("traced run carries a FlowTrace")
        .clone()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn printed_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_printed-trace"))
        .args(args)
        .output()
        .expect("printed-trace runs")
}

#[test]
fn report_renders_profile_and_cost_tables_for_a_real_run() {
    let trace = traced_seeds();
    let path = scratch("seeds_report.ndjson");
    std::fs::write(&path, trace.to_ndjson()).unwrap();

    let output = printed_trace(&["report", path.to_str().unwrap()]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);

    // Stage self-time profile with share-of-wall percentages.
    for stage in [
        "reference_training",
        "baseline_synthesis",
        "sweep",
        "selection",
    ] {
        assert!(
            stdout.contains(stage),
            "missing stage {stage} in:\n{stdout}"
        );
    }
    assert!(stdout.contains("%wall"), "{stdout}");
    assert!(stdout.contains('%'), "{stdout}");

    // Per-ADC area/power attribution table and the budget verdict.
    assert!(stdout.contains("area mm²"), "{stdout}");
    assert!(stdout.contains("power µW"), "{stdout}");
    assert!(stdout.contains("harvester budget:"), "{stdout}");
    let inputs = parse_trace(&trace.to_ndjson())
        .trace
        .events
        .iter()
        .filter(|e| e.name == printed_telemetry::keys::ADC_EVENT)
        .count();
    assert!(inputs > 0, "trace carries per-ADC events");
    for line in stdout.lines().filter(|l| l.trim_start().starts_with('x')) {
        assert!(line.split_whitespace().count() >= 5, "adc row: {line}");
    }
    // Provenance made it through the round trip.
    assert!(stdout.contains("manifest: Seeds"), "{stdout}");
}

/// `trace` with its Gini-eval counter scaled by `1 + 1/divisor`.
fn more_gini_evals(trace: &FlowTrace, divisor: u64) -> FlowTrace {
    let mut grown = trace.clone();
    let evals = grown.counters.get_mut(keys::GINI_EVALS).expect("counter");
    *evals += evals.div_ceil(divisor);
    grown
}

#[test]
fn diff_gates_work_counts_and_only_shows_wall_time() {
    let trace = traced_seeds();
    let baseline_path = scratch("seeds_baseline.ndjson");
    std::fs::write(&baseline_path, trace.to_ndjson()).unwrap();

    // Same run, Gini evals inflated 10% — past the 5% gate.
    let current_path = scratch("seeds_more_evals.ndjson");
    std::fs::write(&current_path, more_gini_evals(&trace, 10).to_ndjson()).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        current_path.to_str().unwrap(),
        "--max-regress",
        "5%",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("gini evals regressed"), "{stdout}");
    assert!(stdout.contains("verdict: REGRESSION"), "{stdout}");

    // Ten times the wall time is shown with its delta, never gated.
    let mut slower = trace.clone();
    slower.wall_us = trace.wall_us * 10;
    let slower_path = scratch("seeds_slower.ndjson");
    std::fs::write(&slower_path, slower.to_ndjson()).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        slower_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("+900.0%"), "{stdout}");
    assert!(!stdout.contains("note:"), "{stdout}");

    // The identical trace passes the same gate.
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        baseline_path.to_str().unwrap(),
        "--max-regress",
        "5%",
    ]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("verdict: PASS"));
}

#[test]
fn max_regress_reads_bare_numbers_of_one_or_more_as_percentages() {
    let trace = traced_seeds();
    let baseline_path = scratch("pct_baseline.ndjson");
    std::fs::write(&baseline_path, trace.to_ndjson()).unwrap();
    // Same run, Gini evals inflated 50%.
    let current_path = scratch("pct_more_evals.ndjson");
    std::fs::write(&current_path, more_gini_evals(&trace, 2).to_ndjson()).unwrap();
    let exit = |pct: &str| {
        let output = printed_trace(&[
            "diff",
            baseline_path.to_str().unwrap(),
            current_path.to_str().unwrap(),
            "--max-regress",
            pct,
        ]);
        output.status.code()
    };
    // `1` is one percent, not 100%: every spelling of 1–2% fails the run.
    for pct in ["1", "2", "1%", "0.01"] {
        assert_eq!(exit(pct), Some(1), "--max-regress {pct}");
    }
    // `60` is sixty percent and lets it through.
    assert_eq!(exit("60"), Some(0));
}

#[test]
fn a_baseline_condensed_from_a_trace_gates_that_trace() {
    let trace = traced_seeds();
    let trace_path = scratch("seeds_condensed.ndjson");
    std::fs::write(&trace_path, trace.to_ndjson()).unwrap();
    let baseline_path = scratch("seeds_condensed_baseline.ndjson");
    let baseline = BenchRecord::from_trace(&trace).to_json();
    assert!(
        baseline.starts_with("{\"kind\":\"bench_stats\""),
        "{baseline}"
    );
    std::fs::write(&baseline_path, format!("{baseline}\n")).unwrap();

    // The condensed baseline gates the trace it came from: clean pass.
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn a_traced_flow_pairs_with_its_committed_suite_record() {
    // The flow stamps its title as the manifest's dataset, so the dump
    // pairs with the `Seeds` record `bench_all` committed, metric for
    // metric.
    let trace_path = scratch("seeds_flow.ndjson");
    std::fs::write(&trace_path, traced_seeds().to_ndjson()).unwrap();
    let suite = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_all.ndjson");
    let output = printed_trace(&[
        "diff",
        suite,
        trace_path.to_str().unwrap(),
        "--max-regress",
        "0.001%",
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn suite_diff_pairs_by_dataset_and_fails_on_missing_counterparts() {
    let trace = traced_seeds();
    let seeds = BenchRecord::from_trace(&trace);
    let mut cardio = seeds.clone();
    cardio.key = "Cardiotocography".into();

    let baseline_path = scratch("BENCH_suite.ndjson");
    std::fs::write(
        &baseline_path,
        format!("{}\n{}\n", seeds.to_json(), cardio.to_json()),
    )
    .unwrap();

    // A matching suite passes and prints the per-benchmark verdicts.
    let current_path = scratch("suite_current.ndjson");
    std::fs::write(
        &current_path,
        format!("{}\n{}\n", seeds.to_json(), cardio.to_json()),
    )
    .unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        current_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("suite: 2/2 benchmarks passed"), "{stdout}");

    // A single trace diffs against its dataset's record in the suite.
    let trace_path = scratch("suite_single.ndjson");
    std::fs::write(&trace_path, trace.to_ndjson()).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );

    // Dropping a benchmark from the current suite is a hard error (2),
    // not a silent skip.
    let partial_path = scratch("suite_partial.ndjson");
    std::fs::write(&partial_path, format!("{}\n", seeds.to_json())).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        partial_path.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("missing from the current run"),
        "stderr: {stderr}"
    );
}

#[test]
fn watch_once_reports_progress_from_a_live_stream() {
    // Simulate an in-flight streamed trace: manifest + two candidate
    // spans + a progress event, with a torn final line.
    let live_path = scratch("watch_live.ndjson");
    let manifest = RunManifest {
        dataset: "Seeds".into(),
        taus: vec![0.0, 0.01, 0.03],
        depths: vec![2, 4, 6],
        ..RunManifest::default()
    };
    std::fs::write(
        &live_path,
        format!(
            "{}\n{}",
            manifest.to_json_line(),
            concat!(
                r#"{"kind":"span","name":"candidate","start_us":100,"duration_us":50,"depth":2,"tau":0.0}"#,
                "\n",
                r#"{"kind":"event","name":"progress","at_us":160,"done":1,"total":9}"#,
                "\n",
                r#"{"kind":"span","name":"candidate","start_us":150,"du"#, // torn
            )
        ),
    )
    .unwrap();
    let output = printed_trace(&["watch", live_path.to_str().unwrap(), "--once"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("1/9 candidates"), "{stdout}");
    assert!(stdout.contains("Seeds"), "{stdout}");
    assert!(!stdout.contains("unknown kind"), "{stdout}");

    // A finalized dump reports completion and the selection.
    let final_path = scratch("watch_final.ndjson");
    let trace = traced_seeds();
    std::fs::write(&final_path, trace.to_ndjson()).unwrap();
    let output = printed_trace(&["watch", final_path.to_str().unwrap(), "--once"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("finalized"), "{stdout}");
    assert!(stdout.contains("selected"), "{stdout}");
    assert!(!stdout.contains("unknown kind"), "{stdout}");
}

#[test]
fn the_finalize_rewrite_prints_each_alert_once() {
    let failed = r#"{"kind":"event","name":"candidate_failed","at_us":5,"depth":4,"tau":0.01,"error":"boom"}"#;
    let progress = r#"{"kind":"event","name":"progress","at_us":6,"done":1,"total":9}"#;
    let path = scratch("watch_rewrite.ndjson");
    std::fs::write(&path, format!("{failed}\n{progress}\n")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_printed-trace"))
        .args(["watch", path.to_str().unwrap(), "--poll-ms", "20"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("printed-trace runs");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut stdout: Vec<String> = Vec::new();
    while !stdout.iter().any(|l| l.contains("ALERT")) {
        stdout.push(lines.next().expect("an ALERT line").unwrap());
    }
    // The run finishes: its dump, which repeats the streamed events,
    // replaces the stream in one step.
    let dump = scratch("watch_rewrite.ndjson.tmp");
    let header = r#"{"kind":"flow","title":"t","wall_us":10,"candidates":9}"#;
    std::fs::write(&dump, format!("{header}\n{failed}\n{progress}\n")).unwrap();
    std::fs::rename(&dump, &path).unwrap();
    stdout.extend(lines.map(Result::unwrap));
    assert!(child.wait().unwrap().success(), "{stdout:?}");
    let alerts = stdout.iter().filter(|l| l.contains("ALERT")).count();
    assert_eq!(alerts, 1, "{stdout:?}");
    assert!(stdout.iter().any(|l| l.contains("rewritten")), "{stdout:?}");
    assert!(
        stdout.iter().any(|l| l.contains("trace finalized")),
        "{stdout:?}"
    );
}

#[test]
fn gauge_records_round_trip_losslessly_through_report_and_diff() {
    use printed_telemetry::keys;

    let mut trace = traced_seeds();
    trace.gauges.insert(keys::PEAK_RSS_KB.to_owned(), 31_744);
    trace
        .gauges
        .insert("process.test_gauge".to_owned(), 123_456_789);

    // NDJSON keeps the gauge map intact, bit for bit.
    let ndjson = trace.to_ndjson();
    let parsed = parse_trace(&ndjson);
    assert!(parsed.is_clean(), "{:?}", parsed.warnings);
    assert_eq!(parsed.trace.gauges, trace.gauges);

    // Condensing before and after the round trip yields identical
    // guarded numbers, with the RSS gauge carried into them.
    let before = BenchRecord::from_trace(&trace);
    let after = BenchRecord::from_trace(&parsed.trace);
    assert_eq!(before, after);
    assert_eq!(after.value("peak_rss_kb"), 31_744.0);

    // The CLI accepts gauge-bearing traces on both sides of a diff and
    // surfaces the RSS axis in the rendered table.
    let path = scratch("seeds_gauges.ndjson");
    std::fs::write(&path, &ndjson).unwrap();
    let output = printed_trace(&["diff", path.to_str().unwrap(), path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("peak_rss_kb"), "{stdout}");
}

#[test]
fn kernel_diff_cli_gates_counts_and_refuses_mixed_axes() {
    let metrics = vec![
        Metric::new("calls", 17u64),
        Metric::new("items", 785u64),
        Metric::new("tp_median", 1_000_000u64),
    ];
    let base = BenchRecord::new(
        Axis::Kernel,
        "Seeds/gini_scan",
        RunManifest::default(),
        metrics,
    );
    let mut thermo = base.clone();
    thermo.key = "Seeds/thermo_encode".into();
    let suite = format!("{}\n{}\n", base.to_json(), thermo.to_json());
    let baseline_path = scratch("hot_base.ndjson");
    std::fs::write(&baseline_path, &suite).unwrap();

    // An identical current run passes with the hotpath summary line.
    let same_path = scratch("hot_same.ndjson");
    std::fs::write(&same_path, &suite).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        same_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("hotpath: 2/2 kernels passed"), "{stdout}");

    // A drifted invocation count blocks even when it *shrinks* — the
    // counts are deterministic, any change is a behavior change.
    let drifted = base.clone().with(Metric::new("calls", 16u64));
    let drift_path = scratch("hot_drift.ndjson");
    std::fs::write(
        &drift_path,
        format!("{}\n{}\n", drifted.to_json(), thermo.to_json()),
    )
    .unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        drift_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("calls changed"), "{stdout}");
    assert!(stdout.contains("1 REGRESSED"), "{stdout}");

    // A kernel baseline cannot gate a bench-axis file: usage error.
    let trace_path = scratch("hot_mixed.ndjson");
    std::fs::write(&trace_path, traced_seeds().to_ndjson()).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot mix axes"), "stderr: {stderr}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(printed_trace(&[]).status.code(), Some(2));
    assert_eq!(printed_trace(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(
        printed_trace(&["report", "/nonexistent/trace.ndjson"])
            .status
            .code(),
        Some(2)
    );
    // A zero poll interval would reread the file with no pause.
    let output = printed_trace(&["watch", "x.ndjson", "--poll-ms", "0", "--once"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error:")).count(),
        1
    );
    assert!(stderr.contains("--poll-ms"), "{stderr}");
    let help = printed_trace(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&help.stdout);
    for gone in ["history", "snapshot"] {
        assert!(!usage.contains(gone), "{usage}");
        let output = printed_trace(&[gone, "x.ndjson"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{gone}: {stderr}");
        assert!(stderr.contains("unknown command"), "{gone}: {stderr}");
    }

    // A file no record parses from is an error on either side of a diff
    // and for report, never a pass over an empty trace.
    let suite = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_all.ndjson");
    for (name, text) in [
        ("empty", ""),
        ("blank", "\n  \n\n"),
        ("garbage", "not json\n{torn\n"),
    ] {
        let path = scratch(&format!("{name}.ndjson"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        for args in [
            vec!["diff", path, path],
            vec!["diff", suite, path],
            vec!["diff", path, suite],
            vec!["report", path],
        ] {
            let output = printed_trace(&args);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
            let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
            assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
            assert!(errors[0].contains(path), "{args:?}: {stderr}");
            assert!(output.stdout.is_empty(), "{args:?}");
        }
    }
}

/// Runs `printed-trace` with a stdout whose reader is already gone, so
/// its first write fails with a broken pipe.
fn printed_trace_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_printed-trace"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("printed-trace runs")
        .wait_with_output()
        .expect("printed-trace exits")
}

#[test]
fn a_closed_stdout_ends_the_output_not_the_command() {
    let suite = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_all.ndjson");
    let trace_path = scratch("closed_pipe_trace.ndjson");
    std::fs::write(&trace_path, traced_seeds().to_ndjson()).unwrap();
    let trace = trace_path.to_str().unwrap();
    let regressed_path = scratch("closed_pipe_regressed.ndjson");
    let text = std::fs::read_to_string(suite).unwrap();
    let seeds = text
        .lines()
        .find(|l| l.contains(r#""dataset":"Seeds""#))
        .unwrap();
    let grown = seeds.replace(r#""comparators":3"#, r#""comparators":4"#);
    assert_ne!(grown, seeds);
    std::fs::write(&regressed_path, text.replace(seeds, &grown)).unwrap();
    let regressed = regressed_path.to_str().unwrap();
    // The exit code is the command's own: the verdict's 0 or 1 for diff.
    for (args, code) in [
        (vec!["diff", suite, suite], 0),
        (vec!["diff", suite, regressed], 1),
        (vec!["report", trace], 0),
        (vec!["--help"], 0),
    ] {
        let output = printed_trace_into_closed_pipe(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
