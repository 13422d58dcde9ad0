//! Live sweep monitoring for `printed-trace watch`.
//!
//! A traced sweep streaming through `printed_telemetry::Recorder::streaming` (or a
//! checkpointed sweep appending `sweep_ckpt` lines) produces an NDJSON
//! file that grows one flushed line at a time, in the finalized flow
//! dump's schema: `span` lines (sweep `candidate` and campaign
//! `robust_candidate` grid points among them) and `event` lines (progress,
//! failures, `lint_candidate` verdicts, the selection). The checkpoint
//! journals' `sweep_ckpt` and `robust_ckpt` lines are read too; they are
//! not trace records. Every line goes through the trace decoder
//! ([`crate::parse::records`]), the one [`crate::parse_trace`] folds, and
//! [`WatchState`] is the fold of those records over the file's complete
//! lines: rolling progress (k/N candidates), candidate rate, an ETA, and
//! failed-candidate alerts. [`Watcher::update`] rebuilds it from each
//! poll's read of the file.
//!
//! The tailing contract matches the producers':
//!
//! * **Torn tails.** Writers emit whole lines, but a reader can race the
//!   final `write` and observe a partial last line. Only complete lines
//!   are decoded; a torn tail is never miscounted — it is finished by the
//!   next read.
//! * **Rewrites.** When the run finishes, `TraceHook::finish` replaces
//!   the live stream with the finalized flow dump. The dump holds every
//!   streamed line and more, so the file usually *grows*; what changes is
//!   its start, a `{"kind":"flow"}` header (which marks the trace
//!   finalized). [`Watcher::update`] reports the file as rewritten when
//!   the lines it read last are no longer a prefix of it; that is only a
//!   notice, since the state is rebuilt from the whole file either way.
//! * **Resume interleaving.** A `--resume` sweep replays `sweep_ckpt`
//!   lines for restored candidates and streams fresh records for the
//!   rest. Candidates are deduplicated by `(depth, τ-bits)`, so a grid
//!   point restored from a checkpoint *and* seen as a live span counts
//!   once.

use std::collections::{BTreeMap, BTreeSet};

use printed_telemetry::{keys, FieldValue};

use crate::parse::{records, Record};

/// Rolling state of one watched trace file.
#[derive(Debug, Default)]
pub struct Watcher {
    /// The file's complete lines as [`Watcher::update`] last read them.
    read: Vec<u8>,
    state: WatchState,
}

/// The observable progress of an in-flight (or finished) run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WatchState {
    /// Dataset name, once a manifest line has been seen.
    pub dataset: String,
    /// Total grid points, from a manifest grid or a progress event
    /// (0 = unknown so far).
    pub total: usize,
    /// Largest `done` reported by a progress event.
    progress_done: usize,
    /// Distinct candidates observed via spans / checkpoint lines, keyed
    /// by `(depth, τ.to_bits())`.
    seen: BTreeSet<(u64, u64)>,
    /// Distinct robustness-campaign candidates observed via
    /// `robust_candidate` spans / `robust_ckpt` lines / `robust_pruned`
    /// events, keyed like [`seen`](Self::seen).
    robust_seen: BTreeSet<(u64, u64)>,
    /// Largest `done` reported by a `robust_progress` event.
    robust_progress_done: usize,
    /// Campaign grid size, from `robust_progress` events (0 = no
    /// campaign seen).
    pub robust_total: usize,
    /// Monte-Carlo trials the campaign has spent so far (largest
    /// `trials` reported by a `robust_progress` event).
    pub robust_trials: u64,
    /// Grid points the campaign's probe pre-pass pruned so far.
    robust_pruned_reported: u64,
    /// Distinct pruned points seen as `robust_pruned` events.
    robust_pruned_seen: BTreeSet<(u64, u64)>,
    /// Whole-grid lint verdicts observed so far, keyed by
    /// `(depth, τ.to_bits())` with `(errors, warnings)` values — the lint
    /// is deterministic per grid point, so a candidate replayed from a
    /// checkpoint and seen live carries the same verdict and counts once.
    lint_seen: BTreeMap<(u64, u64), (u64, u64)>,
    /// Alert lines for failed candidates, in observation order.
    pub alerts: Vec<String>,
    /// Informational notes, e.g. the first sighting of an unknown record
    /// kind (a newer writer's records are skipped with a note, never
    /// silently dropped).
    pub notes: Vec<String>,
    /// Timestamp (µs from the run's epoch) of the latest record that
    /// carried one.
    pub last_at_us: u64,
    /// Complete lines consumed (parse failures included).
    pub lines: u64,
    /// Whether a `{"kind":"flow"}` header was seen — the file is a
    /// finalized dump, not an in-flight stream.
    pub finalized: bool,
    /// Selected design summary, once a `selected` event was seen.
    pub selected: Option<String>,
}

impl WatchState {
    /// Candidates finished: the max of event-reported progress and
    /// distinct candidates seen (spans and checkpoint lines can each lag
    /// the other during a resume).
    pub fn done(&self) -> usize {
        self.progress_done.max(self.seen.len())
    }

    /// Robustness-campaign candidates finished (profiled, pruned, or
    /// restored from a campaign checkpoint): the max of event-reported
    /// progress and distinct campaign candidates seen.
    pub fn robust_done(&self) -> usize {
        self.robust_progress_done.max(self.robust_seen.len())
    }

    /// Grid points the campaign's probe pre-pass pruned: the max of the
    /// progress events' running counter and distinct `robust_pruned`
    /// events seen (either can lag the other mid-stream).
    pub fn robust_pruned(&self) -> u64 {
        self.robust_pruned_reported
            .max(self.robust_pruned_seen.len() as u64)
    }

    /// Whether any robustness-campaign activity has been observed.
    pub fn robust_active(&self) -> bool {
        self.robust_done() > 0 || self.robust_total > 0
    }

    /// Grid candidates whose in-flow lint verdict has been observed.
    pub fn lint_done(&self) -> usize {
        self.lint_seen.len()
    }

    /// Error-severity findings across the observed lint verdicts.
    pub fn lint_errors(&self) -> u64 {
        self.lint_seen.values().map(|&(e, _)| e).sum()
    }

    /// Warning-severity findings across the observed lint verdicts.
    pub fn lint_warnings(&self) -> u64 {
        self.lint_seen.values().map(|&(_, w)| w).sum()
    }

    /// Whether any whole-grid lint activity has been observed.
    pub fn lint_active(&self) -> bool {
        !self.lint_seen.is_empty()
    }

    /// Candidate completion rate in candidates/second, from the run's
    /// own record timestamps (not the watcher's clock, so a stalled file
    /// does not dilute it). `None` until a timestamped record arrives.
    pub fn rate(&self) -> Option<f64> {
        if self.last_at_us == 0 || self.done() == 0 {
            return None;
        }
        Some(self.done() as f64 / (self.last_at_us as f64 / 1e6))
    }

    /// Estimated seconds to completion at the current rate. `None` when
    /// the total or the rate is unknown.
    pub fn eta_secs(&self) -> Option<f64> {
        let rate = self.rate()?;
        if self.total == 0 || rate <= 0.0 {
            return None;
        }
        Some(self.total.saturating_sub(self.done()) as f64 / rate)
    }

    /// One status line, e.g.
    /// `Seeds  5/9 candidates (55.6%) · 120.0/s · ETA 0.0s · 1 FAILED`.
    pub fn status_line(&self) -> String {
        // A grid size, `?` while unknown.
        let size = |n: usize| if n > 0 { n.to_string() } else { "?".to_owned() };
        let mut out = String::new();
        if !self.dataset.is_empty() {
            out.push_str(&self.dataset);
            out.push_str("  ");
        }
        out.push_str(&format!("{}/{} candidates", self.done(), size(self.total)));
        if self.total > 0 {
            let share = 100.0 * self.done() as f64 / self.total as f64;
            out.push_str(&format!(" ({share:.1}%)"));
        }
        if let Some(rate) = self.rate() {
            out.push_str(&format!(" · {rate:.1}/s"));
        }
        if let Some(eta) = self.eta_secs() {
            out.push_str(&format!(" · ETA {eta:.1}s"));
        }
        if self.robust_active() {
            out.push_str(&format!(
                " · robust {}/{} ({} trials, {} pruned)",
                self.robust_done(),
                size(self.robust_total),
                self.robust_trials,
                self.robust_pruned(),
            ));
        }
        if self.lint_active() {
            out.push_str(&format!(
                " · lint {}/{}, {} error(s) / {} warning(s)",
                self.lint_done(),
                size(self.total),
                self.lint_errors(),
                self.lint_warnings(),
            ));
        }
        if !self.alerts.is_empty() {
            out.push_str(&format!(" · {} FAILED", self.alerts.len()));
        }
        if self.finalized {
            out.push_str(" · finalized");
        }
        out
    }

    /// The fold of the trace decoder's records over `text`, whose lines
    /// are all complete. Non-JSON noise (e.g. a stray log line) and
    /// damaged records are skipped; the stream stays watchable.
    fn from_lines(text: &str) -> Self {
        let mut state = Self::default();
        for (_, record) in records(text) {
            state.lines += 1;
            if let Ok(record) = record {
                state.observe(record);
            }
        }
        state
    }

    fn observe(&mut self, record: Record) {
        match record {
            Record::Flow { candidates, .. } => {
                self.finalized = true;
                self.total = self.total.max(candidates.unwrap_or(0) as usize);
            }
            Record::Manifest(manifest) => {
                self.dataset = manifest.dataset;
                self.total = self.total.max(manifest.taus.len() * manifest.depths.len());
            }
            // A sweep grid point or a campaign grid point; any other span
            // only advances the clock.
            Record::Span(span) => {
                self.last_at_us = self.last_at_us.max(span.end_us());
                match span.name.as_str() {
                    keys::CANDIDATE_SPAN => self.seen.extend(grid_point(&span.fields)),
                    keys::ROBUST_SPAN => self.robust_seen.extend(grid_point(&span.fields)),
                    _ => {}
                }
            }
            Record::Event(event) => {
                self.last_at_us = self.last_at_us.max(event.at_us);
                self.observe_event(&event.name, &event.fields);
            }
            // Kinds a finalized dump contains but the watcher has no use
            // for — skipped without comment.
            Record::Counter(..) | Record::Gauge(..) => {}
            Record::Other { kind, fields } => match kind.as_deref().unwrap_or_default() {
                "sweep_ckpt" => self.seen.extend(grid_point(&fields)),
                // A campaign checkpoint replay: the grid point was profiled
                // (or pruned) by a previous, killed campaign run.
                "robust_ckpt" => self.robust_seen.extend(grid_point(&fields)),
                // Anything else is a record kind this watcher does not know
                // (a newer writer, or a foreign file): note it once per kind
                // instead of silently dropping it.
                other => {
                    let note = if other.is_empty() {
                        "skipping record(s) with no \"kind\" field".to_owned()
                    } else {
                        format!("skipping record(s) of unknown kind {other:?}")
                    };
                    if !self.notes.contains(&note) {
                        self.notes.push(note);
                    }
                }
            },
        }
    }

    fn observe_event(&mut self, name: &str, fields: &[(String, FieldValue)]) {
        let count = |key| field(fields, key).and_then(FieldValue::as_u64).unwrap_or(0);
        let depth = count("depth");
        let tau = field(fields, "tau")
            .and_then(FieldValue::as_f64)
            .unwrap_or(0.0);
        match name {
            keys::PROGRESS_EVENT => {
                self.progress_done = self.progress_done.max(count("done") as usize);
                self.total = self.total.max(count("total") as usize);
            }
            keys::CANDIDATE_FAILED_EVENT => {
                let error = field(fields, "error")
                    .and_then(FieldValue::as_str)
                    .unwrap_or("unknown error");
                self.alerts.push(format!(
                    "candidate (depth {depth}, τ={tau}) FAILED: {error}"
                ));
            }
            keys::ROBUST_PROGRESS_EVENT => {
                self.robust_progress_done = self.robust_progress_done.max(count("done") as usize);
                self.robust_total = self.robust_total.max(count("total") as usize);
                self.robust_trials = self.robust_trials.max(count("trials"));
                self.robust_pruned_reported = self.robust_pruned_reported.max(count("pruned"));
            }
            keys::ROBUST_PRUNED_EVENT => {
                self.robust_seen.extend(grid_point(fields));
                self.robust_pruned_seen.extend(grid_point(fields));
            }
            // A whole-grid lint verdict.
            keys::LINT_CANDIDATE_EVENT => {
                if let Some(point) = grid_point(fields) {
                    self.lint_seen
                        .insert(point, (count("errors"), count("warnings")));
                }
            }
            keys::SELECTED_EVENT => {
                let accuracy = field(fields, "accuracy")
                    .and_then(FieldValue::as_f64)
                    .unwrap_or(0.0);
                self.selected = Some(format!(
                    "selected τ={tau}, depth {depth} ({:.2}% accuracy)",
                    accuracy * 100.0
                ));
            }
            _ => {}
        }
    }
}

impl Watcher {
    /// A fresh watcher with no state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current rolling state.
    pub fn state(&self) -> &WatchState {
        &self.state
    }

    /// Feeds the watched file's whole current content, as one poll read
    /// it, and rebuilds the state from its complete lines; a torn last
    /// line waits for the next read. Returns whether the file was
    /// rewritten: the complete lines of the previous read are no longer a
    /// prefix of `content` (a finalized dump replacing the live stream, or
    /// a restarted run).
    pub fn update(&mut self, content: &[u8]) -> bool {
        let rewritten = !content.starts_with(&self.read);
        let torn = content.iter().rev().take_while(|&&b| b != b'\n').count();
        self.read = content[..content.len() - torn].to_vec();
        self.state = WatchState::from_lines(&String::from_utf8_lossy(&self.read));
        rewritten
    }
}

/// A record's field by key.
fn field<'a>(fields: &'a [(String, FieldValue)], key: &str) -> Option<&'a FieldValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A record's `(depth, τ bits)` grid point, if it names one.
fn grid_point(fields: &[(String, FieldValue)]) -> Option<(u64, u64)> {
    let depth = field(fields, "depth")?.as_u64()?;
    Some((depth, field(fields, "tau")?.as_f64()?.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_telemetry::RunManifest;

    /// A watcher after one poll that read `content`.
    fn watching(content: &str) -> Watcher {
        let mut w = Watcher::new();
        assert!(!w.update(content.as_bytes()), "a first read is no rewrite");
        w
    }

    /// The manifest line of a 3×3 Seeds grid, as the writer renders it.
    fn manifest_line() -> String {
        RunManifest {
            dataset: "Seeds".into(),
            taus: vec![0.0, 0.01, 0.03],
            depths: vec![2, 4, 6],
            ..RunManifest::default()
        }
        .to_json_line()
    }

    fn span_line(depth: u64, tau: f64, start: u64, dur: u64) -> String {
        format!(
            r#"{{"kind":"span","name":"candidate","start_us":{start},"duration_us":{dur},"depth":{depth},"tau":{tau:?}}}"#
        )
    }

    fn progress_line(done: u64, total: u64, at: u64) -> String {
        format!(
            r#"{{"kind":"event","name":"progress","at_us":{at},"done":{done},"total":{total}}}"#
        )
    }

    fn ckpt_line(depth: u64, tau: f64) -> String {
        format!(
            r#"{{"kind":"sweep_ckpt","v":1,"seed":2780,"depth":{depth},"tau":{tau:?},"test_accuracy":0.9,"nodes":"..."}}"#
        )
    }

    #[test]
    fn counts_streamed_candidates_and_progress() {
        let w = watching(&format!(
            "{}\n{}\n{}\n{}\n",
            manifest_line(),
            span_line(2, 0.0, 100, 50),
            progress_line(1, 9, 160),
            span_line(4, 0.0, 150, 80),
        ));
        let s = w.state();
        assert_eq!(s.dataset, "Seeds");
        assert_eq!(s.total, 9);
        assert_eq!(s.done(), 2);
        assert!(!s.finalized);
        assert!(s.rate().unwrap() > 0.0);
        assert!(s.eta_secs().unwrap() > 0.0);
        assert!(
            s.status_line().contains("2/9 candidates"),
            "{}",
            s.status_line()
        );
    }

    #[test]
    fn span_ids_and_parents_change_nothing() {
        let plain = span_line(2, 0.0, 100, 50);
        let linked = plain.replace(
            r#""duration_us":50"#,
            r#""duration_us":50,"id":7,"parent":1"#,
        );
        assert_ne!(plain, linked);
        let text = |line: &str| {
            format!(
                "{}\n{line}\n{}\n",
                manifest_line(),
                progress_line(1, 9, 150)
            )
        };
        let (plain, linked) = (watching(&text(&plain)), watching(&text(&linked)));
        assert_eq!(linked.state().done(), 1);
        assert!(
            linked.state().notes.is_empty(),
            "{:?}",
            linked.state().notes
        );
        assert_eq!(linked.state(), plain.state());
    }

    #[test]
    fn torn_tail_is_carried_until_completed() {
        let line = span_line(2, 0.01, 10, 5);
        let (head, tail) = line.split_at(line.len() / 2);
        // The first read ends mid-line: only the complete first line counts.
        let mut content = format!("{}\n{head}", span_line(4, 0.0, 1, 5));
        let mut w = watching(&content);
        assert_eq!(w.state().done(), 1);
        // The torn JSON must not have been parsed (or worse, miscounted).
        assert_eq!(w.state().lines, 1);
        // Completing the line consumes it; growth is no rewrite.
        content.push_str(&format!("{tail}\n"));
        assert!(!w.update(content.as_bytes()));
        assert_eq!(w.state().lines, 2);
        assert_eq!(w.state().done(), 2);
    }

    #[test]
    fn torn_tail_never_parses_as_garbage() {
        // A read that is *only* a torn prefix of a failed-candidate
        // event: no alert may fire until the line completes.
        let line = r#"{"kind":"event","name":"candidate_failed","at_us":5,"depth":4,"tau":0.0,"error":"boom"}"#;
        let mut w = watching(&line[..30]);
        assert!(w.state().alerts.is_empty());
        assert!(!w.update(format!("{line}\n").as_bytes()));
        assert_eq!(w.state().alerts.len(), 1);
        assert!(w.state().alerts[0].contains("boom"));
    }

    #[test]
    fn a_rewrite_rebuilds_the_state_from_the_top() {
        let mut w = watching(&format!(
            "{}\n{}\n",
            span_line(2, 0.0, 1, 1),
            span_line(4, 0.0, 2, 1)
        ));
        assert_eq!(w.state().done(), 2);
        // Writer truncated + rewrote: the new content (a finalized dump's
        // header) is read from the top, nothing of the old is kept.
        let header =
            "{\"kind\":\"flow\",\"title\":\"codesign\",\"wall_us\":2468,\"candidates\":9}\n";
        assert!(w.update(header.as_bytes()), "rewrite not reported");
        assert_eq!(w.state().done(), 0);
        assert!(w.state().finalized);
        assert_eq!(w.state().total, 9);
        assert!(w.state().status_line().contains("finalized"));
    }

    #[test]
    fn resume_interleaving_dedupes_restored_candidates() {
        // Checkpoint replay for two grid points, then a live span for one
        // of the *same* points plus one fresh point.
        let w = watching(&format!(
            "{}\n{}\n{}\n{}\n",
            ckpt_line(2, 0.0),
            ckpt_line(4, 0.0),
            span_line(2, 0.0, 30, 10),
            span_line(6, 0.0, 40, 10),
        ));
        // (2,0.0) seen twice counts once: 3 distinct, not 4.
        assert_eq!(w.state().done(), 3);
    }

    #[test]
    fn progress_events_and_spans_race_without_undercounting() {
        // Progress says 5 done, but only 2 spans flushed so far.
        let w = watching(&format!(
            "{}\n{}\n{}\n",
            progress_line(5, 9, 100),
            span_line(2, 0.0, 1, 1),
            span_line(2, 0.01, 2, 1),
        ));
        assert_eq!(w.state().done(), 5);
        // More spans than the last progress event reported: spans win.
        let w = watching(&format!(
            "{}\n{}\n{}\n",
            progress_line(1, 9, 100),
            span_line(2, 0.0, 1, 1),
            span_line(2, 0.01, 2, 1),
        ));
        assert_eq!(w.state().done(), 2);
    }

    #[test]
    fn failed_candidates_raise_alerts_and_selection_is_reported() {
        let w = watching(concat!(
            r#"{"kind":"event","name":"candidate_failed","at_us":5,"depth":6,"tau":0.03,"error":"injected chaos"}"#,
            "\n",
            r#"{"kind":"event","name":"selected","at_us":9,"tau":0.01,"depth":2,"accuracy":0.9048}"#,
            "\n",
        ));
        assert_eq!(w.state().alerts.len(), 1);
        assert!(w.state().alerts[0].contains("depth 6"));
        assert!(w.state().alerts[0].contains("injected chaos"));
        assert_eq!(
            w.state().selected.as_deref(),
            Some("selected τ=0.01, depth 2 (90.48% accuracy)")
        );
        assert!(w.state().status_line().contains("1 FAILED"));
    }

    #[test]
    fn non_json_noise_is_ignored_but_unknown_kinds_get_a_note() {
        let w = watching(
            "not json at all\n{\"kind\":\"mystery\"}\n{\"kind\":\"mystery\"}\n{\"no_kind\":1}\n",
        );
        assert_eq!(w.state().done(), 0);
        assert_eq!(w.state().lines, 4);
        // One note per distinct unknown kind, not per line; non-JSON
        // noise stays silent (it is not a record at all).
        assert_eq!(w.state().notes.len(), 2, "{:?}", w.state().notes);
        assert!(
            w.state().notes[0].contains("mystery"),
            "{:?}",
            w.state().notes
        );
        assert!(
            w.state().notes[1].contains("no \"kind\""),
            "{:?}",
            w.state().notes
        );
    }

    #[test]
    fn known_finalized_kinds_are_skipped_without_notes() {
        let mut content = concat!(
            r#"{"kind":"counter","name":"train.gini_evals","value":321}"#,
            "\n",
            r#"{"kind":"gauge","name":"process.peak_rss_kb","value":2048}"#,
            "\n",
            r#"{"kind":"counter","name":"kernel.gini_scan.calls","value":7}"#,
            "\n",
            r#"{"kind":"span","name":"stage:sweep","start_us":0,"duration_us":9}"#,
            "\n",
        )
        .to_owned();
        let mut w = watching(&content);
        assert!(w.state().notes.is_empty(), "{:?}", w.state().notes);
        // A stage is a span like any other: it advances the clock and
        // counts toward no grid.
        assert_eq!(w.state().last_at_us, 9);
        assert_eq!(w.state().done(), 0);
        // Kinds outside the six-kind schema are unknown kinds.
        content.push_str(concat!(
            r#"{"kind":"stage","name":"sweep","start_us":0,"duration_us":9}"#,
            "\n",
            r#"{"kind":"candidate","name":"candidate","start_us":1,"duration_us":2,"depth":2,"tau":0.0}"#,
            "\n",
        ));
        assert!(!w.update(content.as_bytes()));
        assert_eq!(w.state().done(), 0);
        assert_eq!(w.state().notes.len(), 2, "{:?}", w.state().notes);
        assert!(w.state().notes[0].contains(r#""stage""#));
        assert!(w.state().notes[1].contains(r#""candidate""#));
    }

    fn robust_progress_line(done: u64, total: u64, trials: u64, pruned: u64, at: u64) -> String {
        format!(
            r#"{{"kind":"event","name":"robust_progress","at_us":{at},"done":{done},"total":{total},"trials":{trials},"pruned":{pruned}}}"#
        )
    }

    #[test]
    fn robust_campaign_progress_is_surfaced_not_unknown() {
        let w = watching(&format!(
            "{}\n{}\n{}\n{}\n{}\n",
            // A campaign checkpoint replay, a live campaign span, a
            // pruned point, and two progress snapshots.
            r#"{"kind":"robust_ckpt","v":1,"stamp":123,"point":"ok","depth":2,"tau":0.0,"trials":8,"yld":1.0}"#,
            r#"{"kind":"span","name":"robust_candidate","start_us":50,"duration_us":10,"depth":4,"tau":0.0,"trials_spent":6}"#,
            r#"{"kind":"event","name":"robust_pruned","at_us":70,"depth":6,"tau":0.03,"reason":"droop","nominal":0.88,"droop_margin":0.01}"#,
            robust_progress_line(2, 6, 14, 0, 80),
            robust_progress_line(3, 6, 14, 1, 90),
        ));
        let s = w.state();
        // None of the campaign records may land in the unknown-kind bin.
        assert!(s.notes.is_empty(), "{:?}", s.notes);
        // Nor in the sweep's candidate count.
        assert_eq!(s.done(), 0);
        assert_eq!(s.robust_done(), 3);
        assert_eq!(s.robust_total, 6);
        assert_eq!(s.robust_trials, 14);
        assert_eq!(s.robust_pruned(), 1);
        assert!(s.robust_active());
        assert!(
            s.status_line().contains("robust 3/6 (14 trials, 1 pruned)"),
            "{}",
            s.status_line()
        );
    }

    #[test]
    fn robust_resume_interleaving_dedupes_restored_candidates() {
        // The same campaign grid point replayed from a checkpoint AND
        // seen as a live span counts once; pruned events dedupe too.
        let w = watching(&format!(
            "{}\n{}\n{}\n{}\n",
            r#"{"kind":"robust_ckpt","v":1,"stamp":9,"point":"ok","depth":2,"tau":0.0}"#,
            r#"{"kind":"span","name":"robust_candidate","start_us":5,"duration_us":1,"depth":2,"tau":0.0}"#,
            r#"{"kind":"event","name":"robust_pruned","at_us":9,"depth":4,"tau":0.0,"reason":"nominal","nominal":0.5}"#,
            r#"{"kind":"event","name":"robust_pruned","at_us":9,"depth":4,"tau":0.0,"reason":"nominal","nominal":0.5}"#,
        ));
        assert_eq!(w.state().robust_done(), 2);
        assert_eq!(w.state().robust_pruned(), 1);
        // A campaign with no activity reports inactive.
        assert!(!Watcher::new().state().robust_active());
    }

    fn lint_event_line(depth: u64, tau: f64, errors: u64, warnings: u64, at: u64) -> String {
        format!(
            r#"{{"kind":"event","name":"lint_candidate","at_us":{at},"tau":{tau:?},"depth":{depth},"errors":{errors},"warnings":{warnings},"codes":"A002:warning={warnings}"}}"#
        )
    }

    #[test]
    fn whole_grid_lint_progress_is_surfaced_not_unknown() {
        let mut content = format!(
            "{}\n{}\n{}\n{}\n",
            manifest_line(),
            lint_event_line(2, 0.0, 0, 2, 50),
            lint_event_line(4, 0.0, 1, 0, 60),
            r#"{"kind":"event","name":"lint_candidate","at_us":70,"tau":0.01,"depth":2,"errors":0,"warnings":3,"codes":"U002:warning=3"}"#,
        );
        let mut w = watching(&content);
        let s = w.state();
        // Verdicts land neither in the unknown-kind bin nor in the
        // sweep's candidate count.
        assert!(s.notes.is_empty(), "{:?}", s.notes);
        assert_eq!(s.done(), 0);
        assert_eq!(s.lint_done(), 3);
        assert_eq!(s.lint_errors(), 1);
        assert_eq!(s.lint_warnings(), 5);
        assert!(s.lint_active());
        assert_eq!(s.last_at_us, 70);
        assert!(
            s.status_line()
                .contains("lint 3/9, 1 error(s) / 5 warning(s)"),
            "{}",
            s.status_line()
        );
        // The same grid point replayed (e.g. after a resume) counts once.
        content.push_str(&format!("{}\n", lint_event_line(4, 0.0, 1, 0, 80)));
        assert!(!w.update(content.as_bytes()));
        assert_eq!(w.state().lint_done(), 3);
        assert_eq!(w.state().lint_errors(), 1);
        // A lint-free watch renders no lint segment at all.
        let quiet = Watcher::new();
        assert!(!quiet.state().lint_active());
        assert!(!quiet.state().status_line().contains("lint"));
    }

    #[test]
    fn unknown_total_renders_a_question_mark() {
        let w = watching(&format!("{}\n", ckpt_line(2, 0.0)));
        assert!(w.state().status_line().contains("1/? candidates"));
        assert_eq!(w.state().eta_secs(), None);
    }
}
