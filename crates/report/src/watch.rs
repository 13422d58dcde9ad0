//! Live sweep monitoring: incremental NDJSON tailing for
//! `printed-trace watch`.
//!
//! A traced sweep streaming through `printed_telemetry::StreamSink` (or a
//! checkpointed sweep appending `sweep_ckpt` lines) produces an NDJSON
//! file that grows one flushed line at a time, in the finalized flow
//! dump's schema. [`Watcher`] consumes such a file *incrementally*: hand
//! it each poll's read of the file ([`Watcher::update`]) or raw chunks
//! ([`Watcher::push`]) and it maintains rolling progress (k/N
//! candidates), candidate rate, an ETA, and failed-candidate alerts.
//!
//! The tailing contract matches the producers':
//!
//! * **Torn tails.** Writers emit whole lines, but a reader can race the
//!   final `write` and observe a partial last line. Only complete lines
//!   are parsed; a torn tail is never miscounted — it is finished by the
//!   next read.
//! * **Rewrites.** When the run finishes, `TraceHook::finish` replaces
//!   the live stream with the finalized flow dump. The dump holds every
//!   streamed line and more, so the file usually *grows*; what changes is
//!   its start, a `{"kind":"flow"}` header. [`Watcher::update`] therefore
//!   treats the file as rewritten when the bytes it already consumed are
//!   no longer a prefix of it, and replays it from the top (where the
//!   header marks the trace finalized).
//! * **Resume interleaving.** A `--resume` sweep replays `sweep_ckpt`
//!   lines for restored candidates and streams fresh records for the
//!   rest. Candidates are deduplicated by `(depth, τ-bits)`, so a grid
//!   point restored from a checkpoint *and* seen as a live span counts
//!   once.

use std::collections::{BTreeMap, BTreeSet};

use printed_telemetry::json::{parse as parse_json, JsonValue};

/// Which candidate set a grid-point record belongs to.
#[derive(Debug, Clone, Copy)]
enum GridAxis {
    /// The τ×depth exploration sweep.
    Sweep,
    /// The robustness campaign over the same grid.
    Robust,
}

/// Rolling state of one watched trace file.
#[derive(Debug, Default)]
pub struct Watcher {
    /// The file's bytes consumed by [`Watcher::update`], through the last
    /// complete line.
    consumed: Vec<u8>,
    carry: String,
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
        let mut out = String::new();
        if !self.dataset.is_empty() {
            out.push_str(&self.dataset);
            out.push_str("  ");
        }
        if self.total > 0 {
            out.push_str(&format!(
                "{}/{} candidates ({:.1}%)",
                self.done(),
                self.total,
                100.0 * self.done() as f64 / self.total as f64
            ));
        } else {
            out.push_str(&format!("{}/? candidates", self.done()));
        }
        if let Some(rate) = self.rate() {
            out.push_str(&format!(" · {rate:.1}/s"));
        }
        if let Some(eta) = self.eta_secs() {
            out.push_str(&format!(" · ETA {eta:.1}s"));
        }
        if self.robust_active() {
            let total = if self.robust_total > 0 {
                self.robust_total.to_string()
            } else {
                "?".to_owned()
            };
            out.push_str(&format!(
                " · robust {}/{total} ({} trials, {} pruned)",
                self.robust_done(),
                self.robust_trials,
                self.robust_pruned(),
            ));
        }
        if self.lint_active() {
            let total = if self.total > 0 {
                self.total.to_string()
            } else {
                "?".to_owned()
            };
            out.push_str(&format!(
                " · lint {}/{total}, {} error(s) / {} warning(s)",
                self.lint_done(),
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
    /// it. The complete lines past the previous read are consumed; a torn
    /// last line waits for the next read. When the bytes already consumed
    /// are no longer a prefix of `content`, the writer truncated and
    /// rewrote the file (a finalized dump replacing the live stream, or a
    /// restarted run): all state is dropped and `content` is replayed
    /// from the top. Returns whether that happened.
    pub fn update(&mut self, content: &[u8]) -> bool {
        let rewritten = !content.starts_with(&self.consumed);
        if rewritten {
            self.reset();
        }
        let fresh = &content[self.consumed.len()..];
        let complete = fresh.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        self.push(&String::from_utf8_lossy(&fresh[..complete]));
        self.consumed.extend_from_slice(&fresh[..complete]);
        rewritten
    }

    /// Feeds the next raw chunk of the file. Only complete
    /// (newline-terminated) lines are parsed; an unterminated tail is
    /// carried and completed by the next push. Returns the number of
    /// complete lines consumed from this chunk.
    pub fn push(&mut self, chunk: &str) -> usize {
        self.carry.push_str(chunk);
        let mut consumed = 0;
        while let Some(pos) = self.carry.find('\n') {
            let line: String = self.carry.drain(..=pos).collect();
            let line = line.trim();
            if !line.is_empty() {
                self.consume_line(line);
                consumed += 1;
                self.state.lines += 1;
            }
        }
        consumed
    }

    /// Drops all state (consumed bytes and carry buffer included).
    fn reset(&mut self) {
        *self = Self::new();
    }

    fn consume_line(&mut self, line: &str) {
        let Ok(value) = parse_json(line) else {
            // Interleaved non-JSON noise (e.g. a stray log line) is
            // ignored; the stream stays watchable.
            return;
        };
        let kind = value.get("kind").and_then(JsonValue::as_str).unwrap_or("");
        match kind {
            "flow" => {
                self.state.finalized = true;
                if let Some(n) = value.get("candidates").and_then(JsonValue::as_u64) {
                    self.state.total = self.state.total.max(n as usize);
                }
            }
            "manifest" => {
                if let Some(dataset) = value.get("dataset").and_then(JsonValue::as_str) {
                    self.state.dataset = dataset.to_owned();
                }
                let taus = value
                    .get("taus")
                    .and_then(JsonValue::as_arr)
                    .map_or(0, <[JsonValue]>::len);
                let depths = value
                    .get("depths")
                    .and_then(JsonValue::as_arr)
                    .map_or(0, <[JsonValue]>::len);
                if taus * depths > 0 {
                    self.state.total = self.state.total.max(taus * depths);
                }
            }
            // A sweep grid point (depth + tau).
            "candidate" => {
                self.observe_grid_point(&value, GridAxis::Sweep);
                self.observe_timestamp(&value);
            }
            // Campaign spans ("robust_candidate") count toward the
            // robustness axis; any other span only advances the clock.
            "span" => {
                if value.get("name").and_then(JsonValue::as_str) == Some("robust_candidate") {
                    self.observe_grid_point(&value, GridAxis::Robust);
                }
                self.observe_timestamp(&value);
            }
            "sweep_ckpt" => {
                self.observe_grid_point(&value, GridAxis::Sweep);
            }
            // A campaign checkpoint replay: the grid point was profiled
            // (or pruned) by a previous, killed campaign run.
            "robust_ckpt" => {
                self.observe_grid_point(&value, GridAxis::Robust);
            }
            // A whole-grid lint verdict.
            "lint_candidate" => {
                self.observe_timestamp(&value);
                self.observe_lint(&value);
            }
            "event" => {
                self.observe_timestamp(&value);
                match value.get("name").and_then(JsonValue::as_str) {
                    Some("progress") => {
                        let done =
                            value.get("done").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
                        let total =
                            value.get("total").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
                        self.state.progress_done = self.state.progress_done.max(done);
                        self.state.total = self.state.total.max(total);
                    }
                    Some("candidate_failed") => {
                        let depth = value.get("depth").and_then(JsonValue::as_u64).unwrap_or(0);
                        let tau = value.get("tau").and_then(JsonValue::as_f64).unwrap_or(0.0);
                        let error = value
                            .get("error")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("unknown error");
                        self.state.alerts.push(format!(
                            "candidate (depth {depth}, τ={tau}) FAILED: {error}"
                        ));
                    }
                    Some("robust_progress") => {
                        let done =
                            value.get("done").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
                        let total =
                            value.get("total").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
                        let trials = value.get("trials").and_then(JsonValue::as_u64).unwrap_or(0);
                        let pruned = value.get("pruned").and_then(JsonValue::as_u64).unwrap_or(0);
                        self.state.robust_progress_done = self.state.robust_progress_done.max(done);
                        self.state.robust_total = self.state.robust_total.max(total);
                        self.state.robust_trials = self.state.robust_trials.max(trials);
                        self.state.robust_pruned_reported =
                            self.state.robust_pruned_reported.max(pruned);
                    }
                    Some("robust_pruned") => {
                        self.observe_grid_point(&value, GridAxis::Robust);
                        if let (Some(depth), Some(tau)) = (
                            value.get("depth").and_then(JsonValue::as_u64),
                            value.get("tau").and_then(JsonValue::as_f64),
                        ) {
                            self.state.robust_pruned_seen.insert((depth, tau.to_bits()));
                        }
                    }
                    Some("selected") => {
                        let depth = value.get("depth").and_then(JsonValue::as_u64).unwrap_or(0);
                        let tau = value.get("tau").and_then(JsonValue::as_f64).unwrap_or(0.0);
                        let accuracy = value
                            .get("accuracy")
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(0.0);
                        self.state.selected = Some(format!(
                            "selected τ={tau}, depth {depth} ({:.2}% accuracy)",
                            accuracy * 100.0
                        ));
                    }
                    _ => {}
                }
            }
            // Kinds a finalized dump contains but the watcher has no use
            // for — skipped without comment.
            "stage" | "counter" | "gauge" | "kernel" => {}
            // Anything else is a record kind this watcher does not know
            // (a newer writer, or a foreign file): note it once per kind
            // instead of silently dropping it.
            other => {
                let note = if other.is_empty() {
                    "skipping record(s) with no \"kind\" field".to_owned()
                } else {
                    format!("skipping record(s) of unknown kind {other:?}")
                };
                if !self.state.notes.contains(&note) {
                    self.state.notes.push(note);
                }
            }
        }
    }

    fn observe_grid_point(&mut self, value: &JsonValue, axis: GridAxis) {
        let (Some(depth), Some(tau)) = (
            value.get("depth").and_then(JsonValue::as_u64),
            value.get("tau").and_then(JsonValue::as_f64),
        ) else {
            return;
        };
        let set = match axis {
            GridAxis::Sweep => &mut self.state.seen,
            GridAxis::Robust => &mut self.state.robust_seen,
        };
        set.insert((depth, tau.to_bits()));
    }

    fn observe_lint(&mut self, value: &JsonValue) {
        let (Some(depth), Some(tau)) = (
            value.get("depth").and_then(JsonValue::as_u64),
            value.get("tau").and_then(JsonValue::as_f64),
        ) else {
            return;
        };
        let errors = value.get("errors").and_then(JsonValue::as_u64).unwrap_or(0);
        let warnings = value
            .get("warnings")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        self.state
            .lint_seen
            .insert((depth, tau.to_bits()), (errors, warnings));
    }

    fn observe_timestamp(&mut self, value: &JsonValue) {
        let at = value
            .get("at_us")
            .and_then(JsonValue::as_u64)
            .or_else(|| {
                let start = value.get("start_us").and_then(JsonValue::as_u64)?;
                let duration = value.get("duration_us").and_then(JsonValue::as_u64)?;
                Some(start + duration)
            })
            .unwrap_or(0);
        self.state.last_at_us = self.state.last_at_us.max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(depth: u64, tau: f64, start: u64, dur: u64) -> String {
        format!(
            r#"{{"kind":"candidate","name":"candidate","start_us":{start},"duration_us":{dur},"depth":{depth},"tau":{tau:?}}}"#
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
        let mut w = Watcher::new();
        w.push(&format!(
            "{}\n{}\n{}\n{}\n",
            r#"{"kind":"manifest","dataset":"Seeds","taus":[0.0,0.01,0.03],"depths":[2,4,6]}"#,
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
    fn torn_tail_is_carried_until_completed() {
        let mut w = Watcher::new();
        let line = span_line(2, 0.01, 10, 5);
        let (head, tail) = line.split_at(line.len() / 2);
        // First chunk ends mid-line: only the complete first line counts.
        assert_eq!(w.push(&format!("{}\n{head}", span_line(4, 0.0, 1, 5))), 1);
        assert_eq!(w.state().done(), 1);
        // The torn JSON must not have been parsed (or worse, miscounted).
        assert_eq!(w.state().lines, 1);
        // Completing the line consumes it.
        assert_eq!(w.push(&format!("{tail}\n")), 1);
        assert_eq!(w.state().done(), 2);
    }

    #[test]
    fn torn_tail_never_parses_as_garbage() {
        let mut w = Watcher::new();
        // A chunk that is *only* a torn prefix of a failed-candidate
        // event: no alert may fire until the line completes.
        let line = r#"{"kind":"event","name":"candidate_failed","at_us":5,"depth":4,"tau":0.0,"error":"boom"}"#;
        w.push(&line[..30]);
        assert!(w.state().alerts.is_empty());
        w.push(&format!("{}\n", &line[30..]));
        assert_eq!(w.state().alerts.len(), 1);
        assert!(w.state().alerts[0].contains("boom"));
    }

    #[test]
    fn reset_models_mid_watch_truncation() {
        let mut w = Watcher::new();
        w.push(&format!(
            "{}\n{}\n",
            span_line(2, 0.0, 1, 1),
            span_line(4, 0.0, 2, 1)
        ));
        assert_eq!(w.state().done(), 2);
        // Writer truncated + rewrote: driver resets, replays the new
        // content (a finalized dump) from the top.
        w.reset();
        assert_eq!(w.state().done(), 0);
        w.push("{\"kind\":\"flow\",\"title\":\"codesign\",\"wall_us\":2468,\"candidates\":9}\n");
        assert!(w.state().finalized);
        assert_eq!(w.state().total, 9);
        assert!(w.state().status_line().contains("finalized"));
    }

    #[test]
    fn resume_interleaving_dedupes_restored_candidates() {
        let mut w = Watcher::new();
        // Checkpoint replay for two grid points, then a live span for one
        // of the *same* points plus one fresh point.
        w.push(&format!(
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
        let mut w = Watcher::new();
        // Progress says 5 done, but only 2 spans flushed so far.
        w.push(&format!(
            "{}\n{}\n{}\n",
            progress_line(5, 9, 100),
            span_line(2, 0.0, 1, 1),
            span_line(2, 0.01, 2, 1),
        ));
        assert_eq!(w.state().done(), 5);
        // More spans than the last progress event reported: spans win.
        let mut w = Watcher::new();
        w.push(&format!(
            "{}\n{}\n{}\n",
            progress_line(1, 9, 100),
            span_line(2, 0.0, 1, 1),
            span_line(2, 0.01, 2, 1),
        ));
        assert_eq!(w.state().done(), 2);
    }

    #[test]
    fn failed_candidates_raise_alerts_and_selection_is_reported() {
        let mut w = Watcher::new();
        w.push(concat!(
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
        let mut w = Watcher::new();
        w.push(
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
        let mut w = Watcher::new();
        w.push(concat!(
            r#"{"kind":"counter","name":"train.gini_evals","value":321}"#,
            "\n",
            r#"{"kind":"gauge","name":"process.peak_rss_kb","value":2048}"#,
            "\n",
            r#"{"kind":"kernel","name":"gini_scan","calls":7,"items":250,"ns":125,"items_per_sec":2.0e9}"#,
            "\n",
            r#"{"kind":"stage","name":"sweep","start_us":0,"duration_us":9}"#,
            "\n",
        ));
        assert!(w.state().notes.is_empty(), "{:?}", w.state().notes);
    }

    fn robust_progress_line(done: u64, total: u64, trials: u64, pruned: u64, at: u64) -> String {
        format!(
            r#"{{"kind":"event","name":"robust_progress","at_us":{at},"done":{done},"total":{total},"trials":{trials},"pruned":{pruned}}}"#
        )
    }

    #[test]
    fn robust_campaign_progress_is_surfaced_not_unknown() {
        let mut w = Watcher::new();
        w.push(&format!(
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
        let mut w = Watcher::new();
        // The same campaign grid point replayed from a checkpoint AND
        // seen as a live span counts once; pruned events dedupe too.
        w.push(&format!(
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
            r#"{{"kind":"lint_candidate","name":"lint_candidate","at_us":{at},"tau":{tau:?},"depth":{depth},"errors":{errors},"warnings":{warnings},"codes":"A002:warning={warnings}"}}"#
        )
    }

    #[test]
    fn whole_grid_lint_progress_is_surfaced_not_unknown() {
        let mut w = Watcher::new();
        w.push(&format!(
            "{}\n{}\n{}\n{}\n",
            r#"{"kind":"manifest","dataset":"Seeds","taus":[0.0,0.01,0.03],"depths":[2,4,6]}"#,
            lint_event_line(2, 0.0, 0, 2, 50),
            lint_event_line(4, 0.0, 1, 0, 60),
            r#"{"kind":"lint_candidate","name":"lint_candidate","at_us":70,"tau":0.01,"depth":2,"errors":0,"warnings":3,"codes":"U002:warning=3"}"#,
        ));
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
        w.push(&format!("{}\n", lint_event_line(4, 0.0, 1, 0, 80)));
        assert_eq!(w.state().lint_done(), 3);
        assert_eq!(w.state().lint_errors(), 1);
        // A lint-free watch renders no lint segment at all.
        let quiet = Watcher::new();
        assert!(!quiet.state().lint_active());
        assert!(!quiet.state().status_line().contains("lint"));
    }

    #[test]
    fn unknown_total_renders_a_question_mark() {
        let mut w = Watcher::new();
        w.push(&format!("{}\n", ckpt_line(2, 0.0)));
        assert!(w.state().status_line().contains("1/? candidates"));
        assert_eq!(w.state().eta_secs(), None);
    }
}
