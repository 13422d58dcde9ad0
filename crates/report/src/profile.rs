//! Hierarchical self-time profile over the spans of a [`FlowTrace`].
//!
//! Spans carry only `(start_us, duration_us)` — no parent pointers — so the
//! tree is reconstructed by *containment*: a span nests under the innermost
//! earlier span whose interval encloses it. Same-named siblings under one
//! parent merge into a single [`ProfileNode`] carrying call counts, total
//! vs self time, and exact p50/p90/p99 latencies.
//!
//! One caveat, inherited from the emit side: the τ×depth sweep fans its
//! candidates out over worker threads, so a stage's children can sum to
//! *more* wall time than the stage itself. Self time is clamped at zero in
//! that case and the rendered share column is marked `(cpu)`.

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
    /// Top-level nodes (spans contained by no other span), largest first.
    pub roots: Vec<ProfileNode>,
    /// Wall time of the traced run, µs (denominator for percentages).
    pub wall_us: u64,
}

/// An owned span plus the index of its containing span, if any.
struct Placed {
    span: SpanRecord,
    parent: Option<usize>,
}

impl Profile {
    /// Builds the profile from every span in the trace: stages, sweep
    /// candidates, and free spans alike.
    pub fn from_trace(trace: &FlowTrace) -> Self {
        let mut spans: Vec<SpanRecord> = trace
            .stages
            .iter()
            .chain(&trace.sweep.candidates)
            .chain(&trace.spans)
            .cloned()
            .collect();
        // Start-ascending, then duration-descending: a span and the spans
        // it contains share a start in the degenerate case, and the longer
        // one must come first to be seen as the parent.
        spans.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then(b.duration_us.cmp(&a.duration_us))
        });

        let mut placed: Vec<Placed> = Vec::with_capacity(spans.len());
        let mut stack: Vec<usize> = Vec::new();
        for span in spans {
            while let Some(&top) = stack.last() {
                let p = &placed[top].span;
                if span.start_us >= p.start_us && span.end_us() <= p.end_us() {
                    break;
                }
                stack.pop();
            }
            let parent = stack.last().copied();
            placed.push(Placed { span, parent });
            stack.push(placed.len() - 1);
        }

        let top: Vec<usize> = (0..placed.len())
            .filter(|&i| placed[i].parent.is_none())
            .collect();
        let mut roots = merge(&placed, &top);
        roots.sort_by_key(|r| std::cmp::Reverse(r.total_us));
        Self {
            roots,
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
/// name into [`ProfileNode`]s, recursing into each name-group's children.
fn merge(placed: &[Placed], indices: &[usize]) -> Vec<ProfileNode> {
    // Group preserving first-seen order so stage order survives merging.
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for &i in indices {
        let name = placed[i].span.name.as_str();
        match groups.iter_mut().find(|(n, _)| *n == name) {
            Some((_, members)) => members.push(i),
            None => groups.push((name, vec![i])),
        }
    }
    groups
        .into_iter()
        .map(|(name, members)| {
            let mut durations: Vec<u64> = members
                .iter()
                .map(|&i| placed[i].span.duration_us)
                .collect();
            durations.sort_unstable();
            let total_us: u64 = durations.iter().sum();
            let child_indices: Vec<usize> = (0..placed.len())
                .filter(|&j| placed[j].parent.is_some_and(|p| members.contains(&p)))
                .collect();
            let mut children = merge(placed, &child_indices);
            children.sort_by_key(|c| std::cmp::Reverse(c.total_us));
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
        .collect()
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
    use printed_telemetry::{FlowTrace, SweepTrace};

    fn span(name: &str, start_us: u64, duration_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            start_us,
            duration_us,
            fields: Vec::new(),
        }
    }

    fn trace(
        stages: Vec<SpanRecord>,
        candidates: Vec<SpanRecord>,
        spans: Vec<SpanRecord>,
    ) -> FlowTrace {
        let wall_us = stages
            .iter()
            .chain(&candidates)
            .chain(&spans)
            .map(SpanRecord::end_us)
            .max()
            .unwrap_or(0);
        FlowTrace {
            title: "profile-test".into(),
            wall_us,
            sweep: SweepTrace {
                total_candidates: candidates.len(),
                candidates,
            },
            stages,
            spans,
            ..FlowTrace::default()
        }
    }

    #[test]
    fn containment_builds_the_expected_tree() {
        // sweep [0..100] contains two candidates; each candidate contains
        // a train span.
        let t = trace(
            vec![span("stage:sweep", 0, 100)],
            vec![span("candidate", 0, 40), span("candidate", 45, 50)],
            vec![span("train", 5, 20), span("train", 50, 30)],
        );
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
    fn concurrent_children_clamp_self_time_and_flag_fanout() {
        // Two candidates overlap inside a 50µs stage: 40+40 > 50.
        let t = trace(
            vec![span("stage:sweep", 0, 50)],
            vec![span("candidate", 0, 40), span("candidate", 5, 40)],
            vec![],
        );
        let profile = Profile::from_trace(&t);
        let sweep = &profile.roots[0];
        assert_eq!(sweep.self_us, 0);
        assert!(sweep.is_fanned_out());
        assert!(profile.render_text().contains("(cpu)"));
    }

    #[test]
    fn percentiles_are_exact_over_merged_spans() {
        let candidates: Vec<SpanRecord> = (1..=100).map(|i| span("candidate", i * 10, i)).collect();
        let t = trace(vec![], candidates, vec![]);
        let profile = Profile::from_trace(&t);
        let cand = profile.find("candidate").expect("merged candidate node");
        assert_eq!(cand.count, 100);
        assert_eq!((cand.p50_us, cand.p90_us, cand.p99_us), (50, 90, 99));
    }

    #[test]
    fn siblings_only_merge_under_the_same_parent() {
        // Two stages each contain a "train" span; the two train nodes must
        // stay under their own stages rather than merging across.
        let t = trace(
            vec![
                span("stage:reference_training", 0, 30),
                span("stage:sweep", 40, 60),
            ],
            vec![],
            vec![span("train", 5, 10), span("train", 50, 20)],
        );
        let profile = Profile::from_trace(&t);
        assert_eq!(profile.roots.len(), 2);
        for root in &profile.roots {
            assert_eq!(root.children.len(), 1);
            assert_eq!(root.children[0].name, "train");
            assert_eq!(root.children[0].count, 1);
        }
    }

    #[test]
    fn render_text_shows_share_of_wall() {
        let t = trace(vec![span("stage:sweep", 0, 80)], vec![], vec![]);
        let text = Profile::from_trace(&t).render_text();
        assert!(text.contains("sweep"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }
}
