//! Hierarchical self-time profile over the spans of a [`FlowTrace`].
//!
//! Every span records its parent's id, so the tree is the recorded one: a
//! span nests under its parent, and a span whose parent is not in the
//! trace (a root, a span from a writer that recorded no ids, or the child
//! of a stage a killed live stream never finished) is a root. Same-named
//! siblings under one parent merge into a single [`ProfileNode`] carrying
//! call counts, total vs self time, and exact p50/p90/p99 latencies.
//!
//! The τ×depth sweep and the robustness campaign fan their candidates out
//! over worker threads, so a stage's children can sum to *more* wall time
//! than the stage itself. Self time is clamped at zero in that case and
//! the rendered share column is marked `(cpu)`.

use std::collections::HashMap;
use std::time::Duration;

use printed_telemetry::{fmt_duration, keys, FlowTrace, SpanRecord};

/// One merged node of the profile tree: every same-named span sharing a
/// parent, aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span name (stage names keep their `stage:` prefix stripped for
    /// display by [`Profile::render_text`], not here).
    pub name: String,
    /// How many spans merged into this node.
    pub count: u64,
    /// Sum of the merged spans' durations, µs.
    pub total_us: u64,
    /// `total_us` minus child time, clamped at zero (children of a
    /// fanned-out stage can overlap and exceed the parent).
    pub self_us: u64,
    /// Median merged-span duration, µs.
    pub p50_us: u64,
    /// 90th-percentile merged-span duration, µs.
    pub p90_us: u64,
    /// 99th-percentile merged-span duration, µs.
    pub p99_us: u64,
    /// Merged children, largest `total_us` first.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Total time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_micros(self.total_us)
    }

    /// Self time as a [`Duration`].
    pub fn self_time(&self) -> Duration {
        Duration::from_micros(self.self_us)
    }

    /// Whether child time exceeds this node's own wall time — the
    /// signature of children running concurrently.
    pub fn is_fanned_out(&self) -> bool {
        self.children.iter().map(|c| c.total_us).sum::<u64>() > self.total_us
    }

    /// Depth-first search for a descendant (or self) by exact name.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The assembled profile: a forest of merged span trees plus the run's
/// wall time for share-of-total columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Top-level nodes (spans whose parent is not in the trace), largest
    /// first.
    pub roots: Vec<ProfileNode>,
    /// Wall time of the traced run, µs (denominator for percentages).
    pub wall_us: u64,
}

impl Profile {
    /// Builds the profile from every span in the trace: stages, sweep
    /// candidates, and free spans alike.
    pub fn from_trace(trace: &FlowTrace) -> Self {
        let spans = &trace.spans;
        let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Children by parent index; the roots are the children of the
        // index one past the last span.
        let mut children = vec![Vec::new(); spans.len() + 1];
        for (i, span) in spans.iter().enumerate() {
            let parent = span.parent.and_then(|parent| by_id.get(&parent));
            children[*parent.unwrap_or(&spans.len())].push(i);
        }
        Self {
            roots: merge(spans, &children, &children[spans.len()]),
            wall_us: trace.wall_us,
        }
    }

    /// Depth-first search across all roots by exact span name.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// Renders the profile as an indented text tree, one line per merged
    /// node: total, self, share of wall time, call count, and the
    /// p50/p90/p99 spread for multi-call nodes.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<38} {:>9} {:>9} {:>6}  calls\n",
            "span", "total", "self", "%wall"
        ));
        for root in &self.roots {
            render_node(&mut out, root, 0, self.wall_us);
        }
        out
    }
}

fn render_node(out: &mut String, node: &ProfileNode, depth: usize, wall_us: u64) {
    let display = node
        .name
        .strip_prefix(keys::STAGE_PREFIX)
        .unwrap_or(&node.name);
    let label = format!("{}{}", "  ".repeat(depth), display);
    let share = if wall_us == 0 {
        0.0
    } else {
        100.0 * node.total_us as f64 / wall_us as f64
    };
    let fanned = if node.is_fanned_out() { " (cpu)" } else { "" };
    let spread = if node.count > 1 {
        format!(
            "  p50/p90/p99 {}/{}/{}",
            fmt_duration(Duration::from_micros(node.p50_us)),
            fmt_duration(Duration::from_micros(node.p90_us)),
            fmt_duration(Duration::from_micros(node.p99_us)),
        )
    } else {
        String::new()
    };
    out.push_str(&format!(
        "{label:<38} {:>9} {:>9} {share:5.1}%  ×{}{fanned}{spread}\n",
        fmt_duration(node.total()),
        fmt_duration(node.self_time()),
        node.count,
    ));
    for child in &node.children {
        render_node(out, child, depth + 1, wall_us);
    }
}

/// Merges the sibling group `indices` (direct children of one parent) by
/// name into [`ProfileNode`]s, largest first, recursing into each
/// name-group's children.
fn merge(spans: &[SpanRecord], children: &[Vec<usize>], indices: &[usize]) -> Vec<ProfileNode> {
    // Group preserving first-seen order so stage order survives merging.
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for &i in indices {
        let name = spans[i].name.as_str();
        match groups.iter_mut().find(|(n, _)| *n == name) {
            Some((_, members)) => members.push(i),
            None => groups.push((name, vec![i])),
        }
    }
    let mut nodes: Vec<ProfileNode> = groups
        .into_iter()
        .map(|(name, members)| {
            let mut durations: Vec<u64> = members.iter().map(|&i| spans[i].duration_us).collect();
            durations.sort_unstable();
            let total_us: u64 = durations.iter().sum();
            let child_indices: Vec<usize> = members
                .iter()
                .flat_map(|&i| children[i].iter().copied())
                .collect();
            let children = merge(spans, children, &child_indices);
            let child_us: u64 = children.iter().map(|c| c.total_us).sum();
            ProfileNode {
                name: name.to_owned(),
                count: members.len() as u64,
                total_us,
                self_us: total_us.saturating_sub(child_us),
                p50_us: percentile(&durations, 0.50),
                p90_us: percentile(&durations, 0.90),
                p99_us: percentile(&durations, 0.99),
                children,
            }
        })
        .collect();
    nodes.sort_by_key(|node| std::cmp::Reverse(node.total_us));
    nodes
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_telemetry::{keys, Recorder};

    /// A span with the given id and parent; ids are never 0 in a trace
    /// the recorder wrote.
    fn span(
        name: &str,
        id: u64,
        parent: Option<u64>,
        start_us: u64,
        duration_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            start_us,
            duration_us,
            id,
            parent,
            fields: Vec::new(),
        }
    }

    fn trace(spans: Vec<SpanRecord>) -> FlowTrace {
        FlowTrace {
            title: "profile-test".into(),
            wall_us: spans.iter().map(SpanRecord::end_us).max().unwrap_or(0),
            spans,
            ..FlowTrace::default()
        }
    }

    #[test]
    fn parent_ids_build_the_expected_tree() {
        // sweep has two candidates; each candidate has a train span.
        let t = trace(vec![
            span("stage:sweep", 1, None, 0, 100),
            span("candidate", 2, Some(1), 0, 40),
            span("train", 4, Some(2), 5, 20),
            span("candidate", 3, Some(1), 45, 50),
            span("train", 5, Some(3), 50, 30),
        ]);
        let profile = Profile::from_trace(&t);
        assert_eq!(profile.roots.len(), 1);
        let sweep = &profile.roots[0];
        assert_eq!(sweep.name, "stage:sweep");
        assert_eq!(sweep.count, 1);
        assert_eq!(sweep.children.len(), 1);
        let cand = &sweep.children[0];
        assert_eq!(
            (cand.name.as_str(), cand.count, cand.total_us),
            ("candidate", 2, 90)
        );
        let train = &cand.children[0];
        assert_eq!(
            (train.name.as_str(), train.count, train.total_us),
            ("train", 2, 50)
        );
        // Self times: sweep 100-90, candidate 90-50.
        assert_eq!(sweep.self_us, 10);
        assert_eq!(cand.self_us, 40);
        assert_eq!(train.self_us, 50);
    }

    #[test]
    fn overlapping_same_named_siblings_stay_siblings() {
        // Two workers' campaign candidates, one running inside the other's
        // interval: both are children of the stage, not of each other.
        let t = trace(vec![
            span("stage:robustness", 1, None, 0, 60),
            span("robust_candidate", 2, Some(1), 0, 50),
            span("robust_candidate", 3, Some(1), 10, 20),
        ]);
        let profile = Profile::from_trace(&t);
        let stage = &profile.roots[0];
        assert_eq!(stage.children.len(), 1);
        let robust = &stage.children[0];
        assert_eq!(
            (robust.name.as_str(), robust.count, robust.total_us),
            ("robust_candidate", 2, 70)
        );
        assert!(robust.children.is_empty(), "{:?}", robust.children);
        assert_eq!(robust.self_us, 70);
    }

    #[test]
    fn concurrent_children_clamp_self_time_and_flag_fanout() {
        // Two candidates overlap inside a 50µs stage: 40+40 > 50.
        let t = trace(vec![
            span("stage:sweep", 1, None, 0, 50),
            span("candidate", 2, Some(1), 0, 40),
            span("candidate", 3, Some(1), 5, 40),
        ]);
        let profile = Profile::from_trace(&t);
        let sweep = &profile.roots[0];
        assert_eq!(sweep.self_us, 0);
        assert!(sweep.is_fanned_out());
        assert!(profile.render_text().contains("(cpu)"));
    }

    #[test]
    fn percentiles_are_exact_over_merged_spans() {
        let t = trace(
            (1..=100)
                .map(|i| span("candidate", i, None, i * 10, i))
                .collect(),
        );
        let profile = Profile::from_trace(&t);
        let cand = profile.find("candidate").expect("merged candidate node");
        assert_eq!(cand.count, 100);
        assert_eq!((cand.p50_us, cand.p90_us, cand.p99_us), (50, 90, 99));
    }

    #[test]
    fn siblings_only_merge_under_the_same_parent() {
        // Two stages each have a "train" span; the two train nodes must
        // stay under their own stages rather than merging across.
        let t = trace(vec![
            span("stage:reference_training", 1, None, 0, 30),
            span("train", 3, Some(1), 5, 10),
            span("stage:sweep", 2, None, 40, 60),
            span("train", 4, Some(2), 50, 20),
        ]);
        let profile = Profile::from_trace(&t);
        assert_eq!(profile.roots.len(), 2);
        for root in &profile.roots {
            assert_eq!(root.children.len(), 1);
            assert_eq!(root.children[0].name, "train");
            assert_eq!(root.children[0].count, 1);
        }
    }

    #[test]
    fn a_stream_cut_inside_a_stage_profiles_its_orphans_as_roots() {
        // Snapshot while the stage is still open: its candidates and their
        // train spans finished, the stage's own line was never written.
        let (recorder, _sink) = Recorder::collecting();
        let stage = recorder.span(keys::STAGE_SWEEP);
        for _ in 0..3 {
            let candidate = recorder.span(keys::CANDIDATE_SPAN);
            recorder.span(keys::TRAIN_SPAN).finish();
            candidate.finish();
        }
        let snapshot = recorder.snapshot().expect("collecting");
        stage.finish();
        let dump = FlowTrace::from_snapshot("cut", &snapshot).to_ndjson();
        let stream: Vec<&str> = dump
            .lines()
            .filter(|line| line.starts_with(r#"{"kind":"span""#))
            .collect();
        let parsed = crate::parse_trace(&stream.join("\n"));
        assert!(parsed.is_clean(), "{:?}", parsed.warnings);
        let profile = Profile::from_trace(&parsed.trace);
        assert_eq!(profile.roots.len(), 1, "{}", profile.render_text());
        let candidate = &profile.roots[0];
        assert_eq!((candidate.name.as_str(), candidate.count), ("candidate", 3));
        assert_eq!(candidate.children[0].name, keys::TRAIN_SPAN);
        assert_eq!(candidate.children[0].count, 3);
    }

    #[test]
    fn render_text_shows_share_of_wall() {
        let t = trace(vec![span("stage:sweep", 1, None, 0, 80)]);
        let text = Profile::from_trace(&t).render_text();
        assert!(text.contains("sweep"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }
}
