//! `printed-trace`: analyze NDJSON traces from the co-design flow.
//!
//! ```sh
//! # Record a trace, then profile it and attribute hardware costs:
//! PRINTED_TRACE=seeds.ndjson cargo run --release -p printed-bench --bin codesign -- seeds --quick
//! printed-trace report seeds.ndjson
//!
//! # Gate a fresh run against the committed suite baseline (exit 1 on
//! # regression; suites are paired per dataset, missing datasets fail).
//! # Only deterministic metrics are gated; timings are shown, not gated:
//! printed-trace diff BENCH_all.ndjson current_all.ndjson --max-regress 5%
//!
//! # Tail an in-flight traced run (PRINTED_TRACE_LIVE=1) or checkpoint:
//! printed-trace watch seeds_live.ndjson
//!
//! # Render cross-PR drift from the benchmark history:
//! printed-trace history BENCH_history.ndjson --dataset Seeds
//!
//! # Condense a trace into a one-line baseline record:
//! printed-trace snapshot seeds.ndjson -o seeds_stats.json
//! ```
//!
//! Exit codes: `0` success / gate passed, `1` regression detected,
//! `2` usage or I/O error. A closed stdout (`printed-trace diff … | head
//! -1`) ends the output, not the command: the exit code stays the one
//! the command would have returned.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use printed_report::{
    diff, parse_history, parse_trace, render_history, BenchRecord, CostReport, DiffConfig, Profile,
    Verdict, Watcher,
};
use printed_telemetry::FlowTrace;

const USAGE: &str = "\
usage: printed-trace <command> [args]

commands:
  report <trace.ndjson>
      Flame/self-time profile plus hardware-cost attribution.
  diff <baseline> <current> [--max-regress PCT]
      Gate a run against a baseline; exits 1 on regression.
      Inputs are suites of one record kind (bench_stats, kernel_stats
      or robust_stats, as bench_all/bench_hot/bench_robust write them)
      or NDJSON traces. Suites pair by key under a strict bijection (a
      key twice on one side is an error); a trace pairs with its
      dataset's record. Counts and campaign metrics gate exactly;
      area/power/comparators on drift past PCT; Gini evals and trials
      spent on growth past PCT. Timings (wall time, throughput,
      campaign wall, peak RSS) are shown with their delta and never
      gated: the repository benchmark (BENCHMARK.json) owns timing.
      PCT: `5%` or `5` is five percent; a bare value below 1 is a
      fraction (`0.05`). Default 5%.
  watch <trace.ndjson> [--poll-ms N] [--once]
      Tail an in-flight traced run: rolling k/N progress, candidate
      rate, ETA, and failed-candidate alerts. Robust to torn tails and
      to the final rewrite into the flow dump, which it waits for and
      exits on. --once prints one status line and exits (for scripts/CI
      smoke checks).
  history <history.ndjson> [--dataset NAME]
      Render per-key drift tables from an append-only history file.
  history append <history.ndjson> <stats.ndjson>
      Append one history record per baseline record or trace (what CI
      runs after a gate passes). The bench, kernel and robustness axes
      share the file without crosstalk.
  snapshot <trace.ndjson> [-o out.json]
      Condense a trace to a one-line bench_stats baseline.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("--help" | "-h" | "help") => out(&format!("{USAGE}\n")).map(|()| ExitCode::SUCCESS),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        None => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Writes `text` to stdout, the one writer of every subcommand. A closed
/// pipe is the end of the output, not an error.
fn out(text: &str) -> Result<(), String> {
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn warn(path: &str, warnings: &[String]) {
    for warning in warnings {
        eprintln!("warning: {path}: {warning}");
    }
}

/// Reads a gate input: the baseline records of a suite file (all of one
/// axis), or the one bench record condensed from a trace dump (`true`).
fn load(path: &str) -> Result<(Vec<BenchRecord>, bool), String> {
    let text = read(path)?;
    let (records, warnings) = BenchRecord::parse_all(&text);
    if let Some(first) = records.first() {
        warn(path, &warnings);
        if let Some(other) = records.iter().find(|r| r.axis != first.axis) {
            let (a, b) = (first.axis.min(other.axis), first.axis.max(other.axis));
            return Err(format!(
                "{path}: mixes {} and {} records; each suite file carries exactly one axis",
                a.kind(),
                b.kind()
            ));
        }
        return Ok((records, false));
    }
    let parsed = parse_trace(&text);
    if parsed.trace == FlowTrace::default() && !parsed.warnings.is_empty() {
        return Err(format!(
            "{path}: not a bench_stats file or a parseable trace ({})",
            parsed.warnings[0]
        ));
    }
    warn(path, &parsed.warnings);
    Ok((vec![BenchRecord::from_trace(&parsed.trace)], true))
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("usage: printed-trace report <trace.ndjson>".into());
    };
    let parsed = parse_trace(&read(path)?);
    warn(path, &parsed.warnings);
    out(&format!(
        "{}\n{}\n{}",
        parsed.trace.render_text(),
        Profile::from_trace(&parsed.trace).render_text(),
        CostReport::from_trace(&parsed.trace).render_text()
    ))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut config = DiffConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--max-regress" => {
                let v = iter.next().ok_or("--max-regress needs a value")?;
                config.max_regress = parse_pct(v)?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => paths.push(path),
        }
    }
    let [baseline_path, current_path] = paths[..] else {
        return Err("usage: printed-trace diff <baseline> <current> [--max-regress PCT]".into());
    };
    let (baselines, baseline_trace) = load(baseline_path)?;
    let (currents, current_trace) = load(current_path)?;
    let axis = baselines[0].axis;
    if currents[0].axis != axis {
        return Err(format!(
            "cannot mix axes: {baseline_path} is a {} suite but {current_path} is a {} suite",
            axis.kind(),
            currents[0].axis.kind()
        ));
    }
    let verdicts = if baseline_trace || current_trace {
        let (baseline, current) = lookup(&baselines, &currents)?;
        vec![Verdict::new(baseline, current, config)]
    } else {
        diff(&baselines, &currents, config)?
    };
    let mut text = verdicts
        .iter()
        .map(Verdict::render_text)
        .collect::<Vec<_>>()
        .join("\n");
    if verdicts.len() > 1 {
        text.push_str(&format!("{}\n", Verdict::summary(&verdicts)));
    }
    out(&text)?;
    Ok(if verdicts.iter().all(Verdict::passed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Pairs a trace dump, which is one run, with its dataset's record on the
/// other side by lookup; two single records pair directly, so a dataset
/// mismatch surfaces as config drift.
fn lookup<'a>(
    baselines: &'a [BenchRecord],
    currents: &'a [BenchRecord],
) -> Result<(&'a BenchRecord, &'a BenchRecord), String> {
    // The matching record, or the keys on offer for the error message.
    let find = |suite: &'a [BenchRecord], key: &str| {
        let keys: Vec<&str> = suite.iter().map(|r| r.key.as_str()).collect();
        suite.iter().find(|r| r.key == key).ok_or(keys.join(", "))
    };
    match (baselines, currents) {
        ([baseline], [current]) => Ok((baseline, current)),
        (_, [current]) => find(baselines, &current.key)
            .map(|b| (b, current))
            .map_err(|keys| {
                format!(
                    "dataset {:?} has no baseline record (baseline has: {keys})",
                    current.key
                )
            }),
        ([baseline], _) => find(currents, &baseline.key)
            .map(|c| (baseline, c))
            .map_err(|keys| {
                let key = &baseline.key;
                format!(
                    "baseline dataset {key:?} missing from the current run (current has: {keys})"
                )
            }),
        _ => unreachable!("a trace dump condenses to exactly one record"),
    }
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut poll_ms: u64 = 500;
    let mut once = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--poll-ms" => {
                let v = iter.next().ok_or("--poll-ms needs a value")?;
                poll_ms = v.parse().map_err(|e| format!("bad --poll-ms {v:?}: {e}"))?;
            }
            "--once" => once = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            p => {
                if path.replace(p.to_owned()).is_some() {
                    return Err("watch takes exactly one path".into());
                }
            }
        }
    }
    let path = path.ok_or("usage: printed-trace watch <trace.ndjson> [--poll-ms N] [--once]")?;

    let mut watcher = Watcher::new();
    let mut last_status = String::new();
    let mut reported_alerts = 0;
    let mut reported_notes = 0;
    loop {
        // Whole-file read each poll: traces are small (kilobytes), and the
        // watcher needs the whole file to tell a rewrite from growth.
        let content = match std::fs::read(&path) {
            Ok(content) => content,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !once => {
                // The producer may not have created the file yet.
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                continue;
            }
            Err(e) => return Err(format!("{path}: {e}")),
        };
        if watcher.update(&content) {
            out(&format!(
                "watch: {path} rewritten (writer finalized or restarted), re-reading\n"
            ))?;
            reported_alerts = 0;
            reported_notes = 0;
        }

        let state = watcher.state();
        for alert in &state.alerts[reported_alerts..] {
            out(&format!("watch: ALERT {alert}\n"))?;
        }
        reported_alerts = state.alerts.len();
        for note in &state.notes[reported_notes..] {
            out(&format!("watch: note: {note}\n"))?;
        }
        reported_notes = state.notes.len();
        let status = state.status_line();
        if status != last_status {
            out(&format!("watch: {status}\n"))?;
            last_status = status;
        }
        if state.finalized {
            if let Some(selected) = &state.selected {
                out(&format!("watch: {selected}\n"))?;
            }
            out("watch: trace finalized, exiting\n")?;
            return Ok(ExitCode::SUCCESS);
        }
        if once {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

fn cmd_history(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("append") {
        let [_, history_path, stats_path] = args else {
            return Err(
                "usage: printed-trace history append <history.ndjson> <stats.ndjson>".into(),
            );
        };
        let (records, _) = load(stats_path)?;
        let appended: String = records
            .iter()
            .map(|r| format!("{}\n", r.to_history_json()))
            .collect();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history_path)
            .map_err(|e| format!("{history_path}: {e}"))?;
        file.write_all(appended.as_bytes())
            .map_err(|e| format!("{history_path}: {e}"))?;
        eprintln!("appended {} record(s) to {history_path}", records.len());
        return Ok(ExitCode::SUCCESS);
    }

    let mut path = None;
    let mut dataset = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--dataset" => {
                dataset = Some(iter.next().ok_or("--dataset needs a value")?.to_owned());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            p => {
                if path.replace(p.to_owned()).is_some() {
                    return Err("history takes exactly one path".into());
                }
            }
        }
    }
    let path = path.ok_or("usage: printed-trace history <history.ndjson> [--dataset NAME]")?;
    let (entries, warnings) = parse_history(&read(&path)?);
    warn(&path, &warnings);
    out(&render_history(&entries, dataset.as_deref()))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_snapshot(args: &[String]) -> Result<ExitCode, String> {
    let (path, dest) = match args {
        [path] => (path, None),
        [path, flag, dest] if flag == "-o" || flag == "--out" => (path, Some(dest)),
        _ => return Err("usage: printed-trace snapshot <trace.ndjson> [-o out.json]".into()),
    };
    let (records, _) = load(path)?;
    let json = records[0].to_json();
    match dest {
        Some(dest) => {
            std::fs::write(dest, format!("{json}\n")).map_err(|e| format!("{dest}: {e}"))?;
            eprintln!("wrote {dest}");
        }
        None => out(&format!("{json}\n"))?,
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads a tolerance: `5%` and `5` are five percent, as is any bare
/// number of one or more; a bare number below one is a fraction
/// (`0.05`).
fn parse_pct(text: &str) -> Result<f64, String> {
    let trimmed = text.trim().trim_end_matches('%');
    let value: f64 = trimmed
        .parse()
        .map_err(|e| format!("bad percentage {text:?}: {e}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("bad percentage {text:?}"));
    }
    Ok(if text.contains('%') || value >= 1.0 {
        value / 100.0
    } else {
        value
    })
}
