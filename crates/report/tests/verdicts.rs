//! Verdict pinning for `printed-trace diff`.
//!
//! Every case below runs the CLI on the committed `BENCH_*.ndjson`
//! baselines, on deterministic edits of them, or on small hand-written
//! trace dumps, and condenses the run to its exit code, its `FAIL:`,
//! `note:` and `verdict:` lines, the per-suite summary line and any
//! `error:` line. The transcript must equal `fixtures/verdicts.txt` byte
//! for byte: the gate may be restructured freely, but not one verdict,
//! threshold or message may move.

use std::path::{Path, PathBuf};
use std::process::Command;

const BENCH_ALL: &str = include_str!("../../../BENCH_all.ndjson");
const BENCH_HOTPATH: &str = include_str!("../../../BENCH_hotpath.ndjson");
const BENCH_ROBUST: &str = include_str!("../../../BENCH_robust.ndjson");
const FIXTURE: &str = include_str!("fixtures/verdicts.txt");

/// A minimal flow-format trace dump of one Seeds run: header, manifest,
/// the selection event, the sweep counters and the RSS gauge.
fn trace(dataset: &str, wall_us: u64, cpus: u64, area_mm2: &str) -> String {
    format!(
        concat!(
            r#"{{"kind":"flow","title":"codesign","wall_us":{wall},"candidates":9}}"#,
            "\n",
            r#"{{"kind":"manifest","git_sha":"unknown","dataset":"{dataset}","taus":[0.0,0.01,0.03],"depths":[2,4,6],"seed":2780,"accuracy_loss":0.01,"unix_secs":1792198896,"cpus":{cpus},"threads":0,"build":"release"}}"#,
            "\n",
            r#"{{"kind":"event","name":"selected","at_us":5184,"tau":0.0,"depth":2,"accuracy":0.9047619047619048,"area_mm2":{area},"power_mw":0.124550936,"comparators":3}}"#,
            "\n",
            r#"{{"kind":"counter","name":"sweep.trees_shared","value":6}}"#,
            "\n",
            r#"{{"kind":"counter","name":"train.gini_evals","value":2231}}"#,
            "\n",
            r#"{{"kind":"counter","name":"train.trees","value":3}}"#,
            "\n",
            r#"{{"kind":"gauge","name":"process.peak_rss_kb","value":3964}}"#,
            "\n",
        ),
        wall = wall_us,
        dataset = dataset,
        cpus = cpus,
        area = area_mm2,
    )
}

/// Sets `"field":value` on every line that contains all of `select`.
fn set(text: &str, select: &[&str], field: &str, value: &str) -> String {
    map_lines(text, select, |line| {
        let key = format!("\"{field}\":");
        let start = line.find(&key).expect("field present") + key.len();
        let stop: &[char] = if line[start..].starts_with('[') {
            &[']']
        } else {
            &[',', '}']
        };
        let end = start + line[start..].find(stop).expect("value terminated");
        let end = if stop == [']'] { end + 1 } else { end };
        format!("{}{value}{}", &line[..start], &line[end..])
    })
}

/// Drops every line that contains all of `select`.
fn drop_lines(text: &str, select: &[&str]) -> String {
    text.lines()
        .filter(|line| !select.iter().all(|s| line.contains(s)))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Keeps only the lines that contain all of `select`.
fn keep_lines(text: &str, select: &[&str]) -> String {
    text.lines()
        .filter(|line| select.iter().all(|s| line.contains(s)))
        .map(|line| format!("{line}\n"))
        .collect()
}

fn map_lines(text: &str, select: &[&str], edit: impl Fn(&str) -> String) -> String {
    let mut hits = 0;
    let out = text
        .lines()
        .map(|line| {
            if select.iter().all(|s| line.contains(s)) {
                hits += 1;
                format!("{}\n", edit(line))
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert!(hits > 0, "selector {select:?} matched no line");
    out
}

const SEEDS: &[&str] = &[r#""dataset":"Seeds""#];
const SEEDS_GINI: &[&str] = &[r#""dataset":"Seeds""#, r#""kernel":"gini_scan""#];

/// `(name, baseline, current, extra args)` for every pinned case.
fn cases() -> Vec<(&'static str, String, String, Vec<&'static str>)> {
    let all = BENCH_ALL.to_owned();
    let hot = BENCH_HOTPATH.to_owned();
    let rob = BENCH_ROBUST.to_owned();
    let no_args = Vec::new;
    vec![
        // Each committed baseline against itself.
        ("bench-self", all.clone(), all.clone(), no_args()),
        (
            "bench-self-tight",
            all.clone(),
            all.clone(),
            vec!["--max-regress", "0.001%"],
        ),
        ("kernel-self", hot.clone(), hot.clone(), no_args()),
        ("robust-self", rob.clone(), rob.clone(), no_args()),
        // One deterministic metric changed, per axis.
        (
            "bench-area-up",
            all.clone(),
            set(&all, SEEDS, "area_mm2", "3.9"),
            no_args(),
        ),
        (
            "bench-area-down",
            all.clone(),
            set(&all, SEEDS, "area_mm2", "3.0"),
            no_args(),
        ),
        (
            "bench-area-relaxed",
            all.clone(),
            set(&all, SEEDS, "area_mm2", "3.9"),
            vec!["--max-regress", "15%"],
        ),
        (
            "bench-power",
            all.clone(),
            set(&all, SEEDS, "power_mw", "0.2"),
            no_args(),
        ),
        (
            "bench-comparators",
            all.clone(),
            set(&all, SEEDS, "comparators", "4"),
            no_args(),
        ),
        (
            "bench-gini-up",
            all.clone(),
            set(&all, SEEDS, "gini_evals", "2500"),
            no_args(),
        ),
        (
            "bench-gini-down",
            all.clone(),
            set(&all, SEEDS, "gini_evals", "2000"),
            no_args(),
        ),
        (
            "bench-info-only",
            all.clone(),
            set(
                &set(&set(&all, SEEDS, "trees", "5"), SEEDS, "trees_shared", "9"),
                SEEDS,
                "peak_rss_kb",
                "99999",
            ),
            no_args(),
        ),
        (
            "bench-grid",
            all.clone(),
            set(&all, SEEDS, "depths", "[2,4]"),
            no_args(),
        ),
        (
            "kernel-calls",
            hot.clone(),
            set(&hot, SEEDS_GINI, "calls", "16"),
            no_args(),
        ),
        (
            "kernel-items",
            hot.clone(),
            set(&hot, SEEDS_GINI, "items", "4178"),
            no_args(),
        ),
        (
            "robust-yield",
            rob.clone(),
            set(&rob, SEEDS, "yield", "0.95"),
            no_args(),
        ),
        (
            "robust-tau",
            rob.clone(),
            set(&rob, SEEDS, "tau", "0.01"),
            no_args(),
        ),
        (
            "robust-droop",
            rob.clone(),
            set(&rob, SEEDS, "droop_margin", "0.1"),
            no_args(),
        ),
        (
            "robust-depth-nominal-pruned",
            rob.clone(),
            set(
                &set(&set(&rob, SEEDS, "depth", "3"), SEEDS, "nominal", "0.9"),
                SEEDS,
                "pruned_points",
                "8",
            ),
            no_args(),
        ),
        (
            "robust-budget-worst-fault",
            rob.clone(),
            set(
                &set(&rob, SEEDS, "trials_budget", "1200"),
                SEEDS,
                "worst_fault",
                "0.3",
            ),
            no_args(),
        ),
        // Trials spent gates on growth past 5% (951 → 998 passes, 999
        // fails); a drop past 5% is a note.
        (
            "robust-trials-at",
            rob.clone(),
            set(&rob, SEEDS, "trials_median", "998"),
            no_args(),
        ),
        (
            "robust-trials-past",
            rob.clone(),
            set(&rob, SEEDS, "trials_median", "999"),
            no_args(),
        ),
        (
            "robust-trials-fewer",
            rob.clone(),
            set(&rob, SEEDS, "trials_median", "900"),
            no_args(),
        ),
        // The environment (cpus/threads/build) is provenance; it neither
        // refuses nor relaxes a gate.
        (
            "bench-env-area",
            all.clone(),
            set(&set(&all, SEEDS, "cpus", "2"), SEEDS, "area_mm2", "3.9"),
            no_args(),
        ),
        (
            "robust-env",
            rob.clone(),
            set(
                &set(
                    &set(&rob, SEEDS, "build", "\"debug\""),
                    SEEDS,
                    "wall_us_median",
                    "999999999",
                ),
                SEEDS,
                "trials_median",
                "2000",
            ),
            no_args(),
        ),
        // A record missing on either side, or a key twice on one side,
        // is a hard error.
        (
            "bench-missing",
            all.clone(),
            drop_lines(&all, &[r#""Cardio""#]),
            no_args(),
        ),
        (
            "bench-renamed",
            all.clone(),
            set(&all, &[r#""Cardio""#], "dataset", "\"Cardio2\""),
            no_args(),
        ),
        (
            "bench-single-record",
            all.clone(),
            keep_lines(&all, SEEDS),
            no_args(),
        ),
        (
            "kernel-missing",
            hot.clone(),
            drop_lines(&hot, SEEDS_GINI),
            no_args(),
        ),
        (
            "kernel-extra",
            drop_lines(&hot, SEEDS_GINI),
            hot.clone(),
            no_args(),
        ),
        (
            "robust-missing",
            rob.clone(),
            drop_lines(&rob, SEEDS),
            no_args(),
        ),
        (
            "bench-duplicate-current",
            all.clone(),
            format!(
                "{all}{}",
                set(&keep_lines(&all, SEEDS), SEEDS, "area_mm2", "9.999")
            ),
            no_args(),
        ),
        (
            "kernel-duplicate-baseline",
            format!("{hot}{}", keep_lines(&hot, SEEDS_GINI)),
            hot.clone(),
            no_args(),
        ),
        // Axes never mix.
        ("mixed-bench-kernel", all.clone(), hot.clone(), no_args()),
        ("mixed-kernel-robust", hot.clone(), rob.clone(), no_args()),
        ("mixed-robust-bench", rob.clone(), all.clone(), no_args()),
        (
            "mixed-trace-kernel",
            trace("Seeds", 1300, 1, "3.482"),
            hot.clone(),
            no_args(),
        ),
        (
            "mixed-in-one-file",
            format!("{hot}{rob}"),
            hot.clone(),
            no_args(),
        ),
        // Trace dumps pair with their dataset's suite record by lookup.
        (
            "trace-vs-suite",
            all.clone(),
            trace("Seeds", 1300, 1, "3.482"),
            no_args(),
        ),
        (
            "suite-vs-trace",
            trace("Seeds", 1300, 1, "3.482"),
            all.clone(),
            no_args(),
        ),
        (
            "trace-vs-suite-area",
            all.clone(),
            trace("Seeds", 1300, 1, "3.9"),
            no_args(),
        ),
        (
            "trace-unknown-dataset",
            all.clone(),
            trace("Nope", 1300, 1, "3.482"),
            no_args(),
        ),
        (
            "suite-unknown-dataset",
            trace("Nope", 1300, 1, "3.482"),
            all.clone(),
            no_args(),
        ),
        // Two trace dumps pair directly; wall time is shown, not gated.
        (
            "traces-same",
            trace("Seeds", 5200, 2, "3.482"),
            trace("Seeds", 5200, 2, "3.482"),
            no_args(),
        ),
        (
            "traces-slower",
            trace("Seeds", 5200, 2, "3.482"),
            trace("Seeds", 5720, 2, "3.482"),
            vec!["--max-regress", "5%"],
        ),
        (
            "traces-other-dataset",
            trace("Seeds", 5200, 2, "3.482"),
            trace("Cardio", 5200, 2, "3.482"),
            no_args(),
        ),
        (
            "garbage",
            all.clone(),
            "definitely not json\n".to_owned(),
            no_args(),
        ),
    ]
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-trace-verdicts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one case and condenses it to its pinned transcript block.
fn run_case(dir: &Path, name: &str, baseline: &str, current: &str, args: &[&str]) -> String {
    let base_path = dir.join(format!("{name}-base.ndjson"));
    let cur_path = dir.join(format!("{name}-cur.ndjson"));
    std::fs::write(&base_path, baseline).unwrap();
    std::fs::write(&cur_path, current).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_printed-trace"))
        .arg("diff")
        .arg(&base_path)
        .arg(&cur_path)
        .args(args)
        .output()
        .expect("printed-trace runs");
    let mut block = format!("== {name}: exit {:?}\n", output.status.code());
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let trimmed = line.trim_start();
        let pinned = ["FAIL: ", "note: ", "verdict: "]
            .iter()
            .any(|p| trimmed.starts_with(p))
            || ["suite: ", "hotpath: ", "robustness: "]
                .iter()
                .any(|p| line.starts_with(p));
        if pinned {
            block.push_str(line);
            block.push('\n');
        }
    }
    let dir_text = dir.to_string_lossy();
    for line in String::from_utf8_lossy(&output.stderr).lines() {
        if line.starts_with("error: ") {
            block.push_str(&line.replace(dir_text.as_ref(), "<dir>"));
            block.push('\n');
        }
    }
    block
}

fn transcript() -> Vec<(String, String)> {
    let dir = scratch();
    cases()
        .into_iter()
        .map(|(name, baseline, current, args)| {
            let block = run_case(&dir, name, &baseline, &current, &args);
            (name.to_owned(), block)
        })
        .collect()
}

#[test]
fn diff_verdicts_match_the_pinned_fixture() {
    let mut expected: Vec<String> = Vec::new();
    for line in FIXTURE.split_inclusive('\n') {
        if line.starts_with("== ") {
            expected.push(String::new());
        }
        expected
            .last_mut()
            .expect("fixture opens with a case")
            .push_str(line);
    }
    let actual = transcript();
    assert_eq!(
        actual.len(),
        expected.len(),
        "case count differs from the fixture"
    );
    for ((name, block), want) in actual.iter().zip(&expected) {
        assert_eq!(block, want, "case {name} drifted from the fixture");
    }
}
