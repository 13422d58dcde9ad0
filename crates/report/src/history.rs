//! Cross-PR benchmark history: append-only `*_history` NDJSON and a
//! drift renderer for `printed-trace history`.
//!
//! A baseline suite answers "did *this* change regress?"; the history
//! file answers the longitudinal question — how timings and hardware cost
//! moved across merges. CI appends one history line per baseline record
//! after each gate passes: `bench_history`, `kernel_history` and
//! `robust_history` share one file without crosstalk. A history line is
//! a [`BenchRecord`] cut down to its git SHA, timestamp, key and the
//! axis' history fields, so one parser and one renderer serve all three.
//!
//! Records are one JSON object per line, so the file merges trivially
//! and a torn append (killed CI job) corrupts at most the final line —
//! the parser skips unparseable lines with a warning, never aborts.

use printed_telemetry::{FieldValue, JsonLine};

use crate::diff::{parse_lines, Axis, BenchRecord};

impl BenchRecord {
    /// Serializes to one `*_history` NDJSON line: kind, git SHA,
    /// timestamp, key, then the axis' history fields that are present.
    pub fn to_history_json(&self) -> String {
        let spec = self.axis.spec();
        let mut line = JsonLine::new()
            .str("kind", spec.history_kind)
            .str("git_sha", &self.provenance.git_sha)
            .u64("unix_secs", self.provenance.unix_secs);
        line = self.key_fields(line);
        for field in spec.history {
            if let Some(metric) = self.metric(field) {
                line = line.field(field, &metric.value);
            }
        }
        line.finish()
    }
}

/// Parses a history file: every `*_history` line of any axis, in file
/// order, plus one warning per unparseable line (torn appends). Other
/// record kinds are skipped silently.
pub fn parse_history(text: &str) -> (Vec<BenchRecord>, Vec<String>) {
    parse_lines(text, true)
}

/// Renders one drift table per `(axis, key)` — bench tables first, then
/// kernel, then robustness — with each record's date, short SHA, history
/// fields and the per-step Δ of the trended fields against the previous
/// record of the same key. `dataset` filters to one benchmark.
pub fn render_history(entries: &[BenchRecord], dataset: Option<&str>) -> String {
    let mut groups: Vec<(Axis, &str)> = Vec::new();
    for entry in entries {
        let group = (entry.axis, entry.key.as_str());
        let matches = dataset.is_none_or(|d| entry.key.split('/').next() == Some(d));
        if matches && !groups.contains(&group) {
            groups.push(group);
        }
    }
    if groups.is_empty() {
        return match dataset {
            Some(d) => format!("history: no records for dataset {d:?}\n"),
            None => "history: no records\n".to_owned(),
        };
    }
    groups.sort_by_key(|&(axis, _)| axis);
    let mut out = String::new();
    for (axis, key) in groups {
        let spec = axis.spec();
        let records: Vec<&BenchRecord> = entries
            .iter()
            .filter(|e| e.axis == axis && e.key == key)
            .collect();
        let width = |field: &str| field.chars().count().max(9);
        let mut header = format!("  {:<10} {:<9}", "date", "sha");
        for field in spec.history {
            header.push_str(&format!(" {field:>w$}", w = width(field)));
        }
        for (_, label) in spec.trend {
            header.push_str(&format!(" {:>8}", format!("Δ{label}")));
        }
        let title = spec.history_title;
        out.push_str(&format!(
            "{title}: {key} ({} records)\n{header}\n",
            records.len()
        ));
        // The previous nonzero value per trended field: a record without
        // the metric must not poison the next delta.
        let mut previous = vec![0.0; spec.trend.len()];
        for record in records {
            let date = civil_date(record.provenance.unix_secs);
            out.push_str(&format!("  {date:<10} {:<9}", record.short_sha()));
            for field in spec.history {
                let shown = match record.metric(field).map(|m| &m.value) {
                    None => "—".to_owned(),
                    Some(FieldValue::F64(v)) => format!("{v:.4}"),
                    Some(other) => other.as_u64().unwrap_or(0).to_string(),
                };
                out.push_str(&format!(" {shown:>w$}", w = width(field)));
            }
            for ((field, _), prev) in spec.trend.iter().zip(&mut previous) {
                let cur = record.value(field);
                let delta = if *prev > 0.0 && cur > 0.0 {
                    format!("{:+.1}%", 100.0 * (cur - *prev) / *prev)
                } else {
                    "—".to_owned()
                };
                out.push_str(&format!(" {delta:>8}"));
                if cur > 0.0 {
                    *prev = cur;
                }
            }
            out.push('\n');
        }
    }
    out
}

/// `YYYY-MM-DD` from a Unix timestamp (UTC), via the standard
/// days-to-civil conversion — no date crate needed for one format.
fn civil_date(unix_secs: u64) -> String {
    if unix_secs == 0 {
        return "unknown".to_owned();
    }
    let days = (unix_secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days, for day counts since 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::Metric;
    use printed_telemetry::RunManifest;

    const SHA: &str = "0123456789abcdef0123456789abcdef01234567";

    fn provenance(dataset: &str, secs: u64) -> RunManifest {
        RunManifest {
            git_sha: SHA.into(),
            dataset: dataset.into(),
            unix_secs: secs,
            ..RunManifest::default()
        }
    }

    fn entry(dataset: &str, wall: u64, secs: u64) -> BenchRecord {
        let metrics = vec![
            Metric::new("wall_us", wall),
            Metric::new("gini_evals", 2231u64),
            Metric::new("trees", 3u64),
            Metric::new("trees_shared", 6u64),
            Metric::new("area_mm2", 3.482),
            Metric::new("power_mw", 0.1246),
            Metric::new("comparators", 3u64),
        ];
        BenchRecord::new(Axis::Bench, dataset, provenance(dataset, secs), metrics)
    }

    fn with_rss(entry: BenchRecord, rss: u64) -> BenchRecord {
        entry.with(Metric::new("peak_rss_kb", rss))
    }

    #[test]
    fn round_trips_through_ndjson() {
        let original = entry("Seeds", 2468, 1_754_611_200);
        let line = original.to_history_json();
        assert!(line.starts_with(r#"{"kind":"bench_history""#));
        let (parsed, warnings) = parse_history(&line);
        assert!(warnings.is_empty());
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn history_lines_carry_the_guarded_numbers_of_a_baseline() {
        let mut stats = entry("Seeds", 2468, 1_754_611_200);
        stats.provenance.cpus = 2;
        let (parsed, _) = parse_history(&stats.to_history_json());
        assert_eq!(parsed[0].key, "Seeds");
        assert_eq!(parsed[0].value("wall_us"), 2468.0);
        assert_eq!(parsed[0].provenance.unix_secs, 1_754_611_200);
        // The environment stays in the baseline, out of the history.
        assert!(!stats.to_history_json().contains("cpus"));
    }

    #[test]
    fn torn_final_line_warns_but_parses_the_rest() {
        let good = entry("Seeds", 2468, 1_754_611_200).to_history_json();
        let torn = &good[..good.len() / 2];
        let (parsed, warnings) = parse_history(&format!("{good}\n{torn}"));
        assert_eq!(parsed.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 2"), "{warnings:?}");
    }

    #[test]
    fn renders_per_dataset_drift() {
        let entries = vec![
            entry("Seeds", 2468, 1_754_611_200),
            entry("Cardio", 9000, 1_754_611_200),
            entry("Seeds", 2700, 1_754_697_600),
        ];
        let text = render_history(&entries, None);
        assert!(text.contains("history: Seeds (2 records)"), "{text}");
        assert!(text.contains("history: Cardio (1 records)"), "{text}");
        assert!(text.contains("+9.4%"), "{text}"); // 2468 → 2700
        assert!(text.contains("2025-08-08"), "{text}");
        // Filtered rendering drops the other dataset.
        let seeds_only = render_history(&entries, Some("Seeds"));
        assert!(!seeds_only.contains("Cardio"), "{seeds_only}");
        // Unknown dataset says so.
        assert!(render_history(&entries, Some("Nope")).contains("no records for"));
    }

    #[test]
    fn civil_date_handles_epoch_landmarks() {
        assert_eq!(civil_date(0), "unknown");
        assert_eq!(civil_date(86_400), "1970-01-02");
        assert_eq!(civil_date(951_782_400), "2000-02-29"); // leap day
        assert_eq!(civil_date(1_754_611_200), "2025-08-08");
    }

    #[test]
    fn rss_column_trends_and_tolerates_pre_rss_records() {
        let rss = with_rss(entry("Seeds", 2468, 1_754_611_200), 40_000);
        let grown = with_rss(entry("Seeds", 2468, 1_754_697_600), 44_000);
        // Old record without RSS, then two with: the Δrss of the first
        // RSS-bearing record is "—", the second is +10.0%.
        let entries = vec![entry("Seeds", 2400, 1_754_524_800), rss.clone(), grown];
        let text = render_history(&entries, None);
        assert!(text.contains("rss_kb"), "{text}");
        assert!(text.contains("Δrss"), "{text}");
        assert!(text.contains("40000"), "{text}");
        assert!(text.contains("+10.0%"), "{text}");
        // The RSS field round-trips (and stays absent when unrecorded).
        let line = rss.to_history_json();
        assert!(line.contains(r#""peak_rss_kb":40000"#), "{line}");
        assert!(!entry("Seeds", 1, 0)
            .to_history_json()
            .contains("peak_rss_kb"));
        let (parsed, _) = parse_history(&line);
        assert_eq!(parsed, vec![rss]);
    }

    fn kernel_entry(kernel: &str, tp: u64, secs: u64) -> BenchRecord {
        let metrics = vec![
            Metric::new("calls", 7u64),
            Metric::new("items", 1_610u64),
            Metric::new("tp_median", tp),
        ];
        let key = format!("Seeds/{kernel}");
        BenchRecord::new(Axis::Kernel, key, provenance("Seeds", secs), metrics)
    }

    #[test]
    fn kernel_history_round_trips_and_renders_drift() {
        let original = kernel_entry("gini_scan", 1_000_000, 1_754_611_200);
        let line = original.to_history_json();
        assert!(line.starts_with(r#"{"kind":"kernel_history""#), "{line}");
        let (parsed, warnings) = parse_history(&line);
        assert!(warnings.is_empty());
        assert_eq!(parsed, vec![original]);

        let entries = vec![
            kernel_entry("gini_scan", 1_000_000, 1_754_611_200),
            kernel_entry("cube_merge", 2_000_000, 1_754_611_200),
            kernel_entry("gini_scan", 1_100_000, 1_754_697_600),
        ];
        let text = render_history(&entries, None);
        assert!(
            text.contains("kernel history: Seeds/gini_scan (2 records)"),
            "{text}"
        );
        assert!(
            text.contains("kernel history: Seeds/cube_merge (1 records)"),
            "{text}"
        );
        assert!(text.contains("+10.0%"), "{text}"); // 1.0M → 1.1M
                                                    // Filtering by dataset drops everything for a foreign name.
        assert!(render_history(&entries, Some("Nope")).contains("no records for"));
    }

    #[test]
    fn kernel_history_condenses_from_a_kernel_baseline() {
        let stats = kernel_entry("netlist_synth", 5_000, 1_754_611_200);
        let line = stats.to_history_json();
        assert!(line.contains(r#""kernel":"netlist_synth""#), "{line}");
        assert!(line.contains(r#""tp_median":5000"#), "{line}");
        assert!(line.contains(r#""unix_secs":1754611200"#), "{line}");
    }

    fn robust_entry(trials: u64, secs: u64) -> BenchRecord {
        let metrics = vec![
            Metric::new("tau", 0.01),
            Metric::new("depth", 4u64),
            Metric::new("yield", 0.96),
            Metric::new("worst_fault", 0.55),
            Metric::new("trials_median", trials),
            Metric::new("trials_budget", 384u64),
            Metric::new("pruned_points", 3u64),
        ];
        BenchRecord::new(Axis::Robust, "Seeds", provenance("Seeds", secs), metrics)
    }

    #[test]
    fn robust_history_round_trips_and_renders_drift() {
        let original = robust_entry(120, 1_754_611_200);
        let line = original.to_history_json();
        assert!(line.starts_with(r#"{"kind":"robust_history""#), "{line}");
        let (parsed, warnings) = parse_history(&line);
        assert!(warnings.is_empty());
        assert_eq!(parsed, vec![original]);

        let entries = vec![
            robust_entry(120, 1_754_611_200),
            robust_entry(108, 1_754_697_600),
        ];
        let text = render_history(&entries, None);
        assert!(text.contains("robust history: Seeds (2 records)"), "{text}");
        assert!(text.contains("-10.0%"), "{text}"); // 120 → 108
        assert!(render_history(&entries, Some("Nope")).contains("no records for"));
    }

    #[test]
    fn robust_history_keeps_its_own_field_order() {
        // A robust baseline lists pruned points before the trial counts;
        // its history line has always put them last.
        let stats = robust_entry(99, 1_754_611_200)
            .with(Metric::new("nominal", 0.9))
            .with(Metric::new("trials_median", 99u64));
        let line = stats.to_history_json();
        assert!(
            line.ends_with(r#""trials_median":99,"trials_budget":384,"pruned_points":3}"#),
            "{line}"
        );
        assert!(!line.contains("nominal"), "{line}");
    }

    #[test]
    fn the_three_history_axes_share_a_file_without_crosstalk() {
        let bench = entry("Seeds", 2468, 1_754_611_200);
        let kernel = kernel_entry("gini_scan", 1_000_000, 1_754_611_200);
        let robust = robust_entry(120, 1_754_611_200);
        let text = format!(
            "{}\n{}\n{}\n",
            bench.to_history_json(),
            kernel.to_history_json(),
            robust.to_history_json()
        );
        let (parsed, _) = parse_history(&text);
        assert_eq!(parsed, vec![bench, kernel, robust]);
    }

    #[test]
    fn foreign_kinds_are_skipped_silently() {
        let text = format!(
            "{}\n{}\n",
            r#"{"kind":"bench_stats","dataset":"Seeds"}"#,
            entry("Seeds", 1, 0).to_history_json()
        );
        let (parsed, warnings) = parse_history(&text);
        assert_eq!(parsed.len(), 1);
        assert!(warnings.is_empty());
    }

    #[test]
    fn the_committed_history_re_encodes_byte_for_byte() {
        let text = include_str!("../../../BENCH_history.ndjson");
        let (entries, warnings) = parse_history(text);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(entries.len(), text.lines().count());
        for (entry, line) in entries.iter().zip(text.lines()) {
            assert_eq!(entry.to_history_json(), line);
        }
    }
}
