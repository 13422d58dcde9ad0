//! The benchmark's own tests: every workload, run at a tiny size (the
//! quick grid on Seeds), prints every metric `BENCHMARK.json` names with
//! its unit, passes its own checks, and fails them when a pinned output
//! is corrupted.

use std::path::PathBuf;

use perfbench::check::{canonical_lines, Pins, COMMITTED_CARDIO};
use perfbench::run::{run, Options, RunResult};
use perfbench::workload::{Plan, Size, Workload};
use printed_report::json::{parse, JsonValue};

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(JsonValue::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(JsonValue::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny_run(workload: Workload, trace: bool, pins: &Pins) -> RunResult {
    let options = Options {
        plan: Plan::new(workload, Size::Tiny, 0),
        seconds: 0.0,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-out"),
    };
    run(&options, pins).expect("a tiny run completes")
}

fn tiny_pins(workload: Workload) -> Pins {
    let lines = canonical_lines(&Plan::new(workload, Size::Tiny, 0)).expect("set-up succeeds");
    Pins::from_lines(lines.iter().map(String::as_str))
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for declared in manifest()
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
    {
        let name = declared.get("name").and_then(JsonValue::as_str).unwrap();
        assert!(
            Workload::parse(name).is_some(),
            "BENCHMARK.json names workload {name}"
        );
    }
    for workload in Workload::ALL {
        let pins = tiny_pins(workload);
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = tiny_run(workload, trace, &pins);
            assert!(
                result.failures.is_empty(),
                "{} trace={trace}: {:?}",
                workload.name(),
                result.failures
            );
            let printed: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(printed, declared(section), "{} {section}", workload.name());

            let line = parse(&result.to_json()).expect("the result line is JSON");
            let keys: Vec<&str> = line
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
            for (name, unit) in declared(section) {
                let metric = line.get("metrics").and_then(|m| m.get(&name)).unwrap();
                assert!(metric.get("value").and_then(JsonValue::as_f64).is_some());
                assert_eq!(metric.get("unit").and_then(JsonValue::as_str), Some(&*unit));
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let result = tiny_run(workload, false, &tiny_pins(workload));
        for metric in &result.metrics {
            assert!(metric.value > 0.0, "{} {}", workload.name(), metric.name);
        }
    }
}

#[test]
fn a_corrupted_pin_drives_the_error_rate_above_zero() {
    for workload in Workload::ALL {
        let lines = canonical_lines(&Plan::new(workload, Size::Tiny, 0)).unwrap();
        let last = lines.last().unwrap();
        let corrupted = last.replacen("depth=", "depth=9", 1);
        assert_ne!(&corrupted, last);
        let mut pinned: Vec<&str> = lines[..lines.len() - 1]
            .iter()
            .map(String::as_str)
            .collect();
        pinned.push(&corrupted);
        let result = tiny_run(workload, false, &Pins::from_lines(pinned));
        assert!(result.error_rate() > 0.0, "{}", workload.name());
        assert_eq!(result.failures.len(), result.attempted / lines.len());
        assert!(result.to_json().starts_with(r#"{"correct": false"#));
    }
}

#[test]
fn the_shipped_pins_hold_the_committed_cardio_row() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCH_robust.ndjson"
    ));
    if let Ok(text) = committed {
        let row = text
            .lines()
            .filter_map(|line| parse(line).ok())
            .find(|row| row.get("dataset").and_then(JsonValue::as_str) == Some("Cardio"))
            .expect("BENCH_robust.ndjson has a Cardio row");
        for (field, key) in [
            ("tau", "tau"),
            ("depth", "depth"),
            ("nominal", "nominal"),
            ("robust_accuracy", "robust_accuracy"),
            ("yield", "yield"),
            ("worst_fault", "worst_fault"),
            ("droop_margin", "droop_margin"),
            ("pruned", "pruned_points"),
            ("trials_spent", "trials_median"),
            ("trials_budget", "trials_budget"),
        ] {
            let pinned = COMMITTED_CARDIO
                .split_whitespace()
                .find_map(|t| t.strip_prefix(&format!("{field}=")))
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap();
            let value = row.get(key).and_then(JsonValue::as_f64).unwrap();
            assert_eq!(pinned.to_bits(), value.to_bits(), "{field}");
        }
    }
    let shipped = Pins::builtin();
    let line = perfbench::check::PINS
        .lines()
        .find(|l| l.starts_with("robust-adaptive 0 Cardio campaign"))
        .expect("variant 0 of robust-adaptive is pinned");
    assert!(shipped.verify(line).is_ok());
    assert!(perfbench::check::verify_committed(line).is_ok());
}
