//! The span, event, counter, and gauge names used across the workspace.
//!
//! Centralizing the names keeps producers (`printed-codesign`,
//! `printed-analog`, `printed-bench`) and consumers (trace renderers,
//! tests, downstream tooling) from drifting apart on stringly-typed keys.

/// Prefix shared by all flow-stage span names.
pub const STAGE_PREFIX: &str = "stage:";

/// Stage span: ADC-unaware reference training.
pub const STAGE_REFERENCE: &str = "stage:reference_training";

/// Stage span: baseline \[2\] synthesis.
pub const STAGE_BASELINE: &str = "stage:baseline_synthesis";

/// Stage span: the τ×depth exploration sweep.
pub const STAGE_SWEEP: &str = "stage:sweep";

/// Stage span: accuracy-loss constrained selection.
pub const STAGE_SELECTION: &str = "stage:selection";

/// Per-grid-point span emitted by the explorer (fields: `tau`, `depth`,
/// `accuracy`, `comparators`).
pub const CANDIDATE_SPAN: &str = "candidate";

/// Per-tree span emitted by the Algorithm 1 trainer (fields: `gini_evals`,
/// `s_z`, `s_m`, `s_h`, `nodes`).
pub const TRAIN_SPAN: &str = "train";

/// Counter: Gini evaluations performed by Algorithm 1 (one per scored
/// split candidate).
pub const GINI_EVALS: &str = "train.gini_evals";

/// Counter: splits resolved in the zero-cost class `S_Z` (exact
/// `(feature, C)` reuse — wiring only).
pub const SPLIT_ZERO: &str = "train.split_s_z";

/// Counter: splits resolved in the medium-cost class `S_M` (existing ADC,
/// new output digit — one extra comparator).
pub const SPLIT_MEDIUM: &str = "train.split_s_m";

/// Counter: splits resolved in the high-cost class `S_H` (brand-new input
/// — a new ADC).
pub const SPLIT_HIGH: &str = "train.split_s_h";

/// Counter: trees trained by Algorithm 1.
pub const TREES_TRAINED: &str = "train.trees";

/// Counter: internal decision nodes placed across all trained trees (one
/// per committed split).
pub const TRAIN_NODES: &str = "train.nodes";

/// Counter: comparators retained by the selected design's bespoke ADC
/// bank (one per distinct `(feature, tap)` pair the trees actually use).
pub const HW_COMPARATORS_RETAINED: &str = "hw.comparators_retained";

/// Counter: comparators a full flash ADC bank would have needed but the
/// bespoke pruning dropped (`inputs × (2^bits − 1) −` retained).
pub const HW_COMPARATORS_DROPPED: &str = "hw.comparators_dropped";

/// Counter: resistors in the selected design's shared pruned ladder.
pub const HW_LADDER_RESISTORS: &str = "hw.ladder_resistors";

/// Counter: AND cells in the selected design's synthesized netlist.
pub const HW_AND_GATES: &str = "hw.and_gates";

/// Counter: OR cells in the selected design's synthesized netlist.
pub const HW_OR_GATES: &str = "hw.or_gates";

/// Counter: Monte-Carlo mismatch trials sampled.
pub const MC_TRIALS: &str = "mc.trials";

/// Counter: Monte-Carlo trials whose perturbed ladder failed to solve.
pub const MC_FAILURES: &str = "mc.failures";

/// Event: the explorer/flow selected a design (fields: `tau`, `depth`,
/// `accuracy`, and — when the flow records hardware attribution —
/// `area_mm2`, `power_mw`, `comparators`).
pub const SELECTED_EVENT: &str = "selected";

/// Event: per-input bespoke ADC cost attribution for the selected design
/// (fields: `feature`, `taps`, `comparators`, `area_mm2`, `power_uw`).
pub const ADC_EVENT: &str = "adc";

/// Event: per-class sum-of-products cost attribution for the selected
/// design (fields: `class`, `cubes`, `literals`).
pub const CLASS_EVENT: &str = "class_logic";

/// Stage span: the robustness campaign (faults + mismatch + droop).
pub const STAGE_ROBUSTNESS: &str = "stage:robustness";

/// Per-candidate span emitted by the robustness campaign (fields: `tau`,
/// `depth`, `nominal`, `mean_mismatch`, `worst_fault`, `droop_margin`,
/// `yield_est`).
pub const ROBUST_SPAN: &str = "robust_candidate";

/// Event: robustness-aware selection picked a design (fields: `tau`,
/// `depth`, `accuracy`, `robust_accuracy`).
pub const ROBUST_SELECTED_EVENT: &str = "robust_selected";

/// Event: a sweep grid point panicked and was isolated instead of killing
/// the exploration (fields: `depth`, `tau`, `error`).
pub const CANDIDATE_FAILED_EVENT: &str = "candidate_failed";

/// Counter: sweep grid points that panicked and were recorded as failed
/// candidates.
pub const SWEEP_FAILED: &str = "sweep.failed_candidates";

/// Counter: sweep grid points skipped because a checkpoint already held
/// their result.
pub const SWEEP_CHECKPOINT_HITS: &str = "sweep.checkpoint_hits";

/// Counter: sweep candidates derived by truncating a deeper tree trained
/// at the same τ instead of training from scratch. A full `|τ|×|depth|`
/// sweep trains `|τ|` trees and shares the remaining
/// `|grid| − |τ|` candidates through this path.
pub const TREES_SHARED: &str = "sweep.trees_shared";

/// Span: one BFS truncation of a trained tree to a shallower depth cap
/// (fields: `tau`, `depth`, `trained_depth`).
pub const TRUNCATE_SPAN: &str = "truncate";

/// Counter: single stuck-at faults injected by robustness campaigns.
pub const FAULTS_INJECTED: &str = "robust.faults";

/// Counter: Monte-Carlo trials actually consumed by robustness campaigns.
/// Equals `mc.trials` attribution for the campaign stage; under an
/// adaptive budget the sequential early exit makes this measurably
/// smaller than [`ROBUST_TRIALS_BUDGET`].
pub const ROBUST_TRIALS_SPENT: &str = "robust.trials_spent";

/// Counter: Monte-Carlo trials an exhaustive campaign at the same budget
/// would have run (profiled + pruned candidates × per-candidate budget).
pub const ROBUST_TRIALS_BUDGET: &str = "robust.trials_budget";

/// Counter: τ×depth points the campaign's cheap-probe pre-pass pruned
/// before any Monte-Carlo trial (each is also recorded as a
/// [`ROBUST_PRUNED_EVENT`], never silently skipped).
pub const ROBUST_PRUNED: &str = "robust.pruned_points";

/// Counter: campaign candidates restored from a robustness checkpoint
/// instead of being re-profiled.
pub const ROBUST_CHECKPOINT_HITS: &str = "robust.checkpoint_hits";

/// Event: the probe pre-pass pruned one grid point (fields: `depth`,
/// `tau`, `reason`, `nominal`, and `droop_margin` when the probe got far
/// enough to compute it).
pub const ROBUST_PRUNED_EVENT: &str = "robust_pruned";

/// Event: live robustness-campaign progress, one per finished candidate
/// (fields: `done`, `total`, `trials`, `pruned`) so `printed-trace watch`
/// can render campaign trial spend and pruned-point counts while the
/// campaign is still running.
pub const ROBUST_PROGRESS_EVENT: &str = "robust_progress";

/// Stage span: the static-analysis lint pass over the selected design.
pub const STAGE_LINT: &str = "stage:lint";

/// Counter: total diagnostics the lint pass emitted (all severities).
pub const LINT_DIAGNOSTICS: &str = "lint.diagnostics";

/// Counter: error-severity diagnostics the lint pass emitted.
pub const LINT_ERRORS: &str = "lint.errors";

/// Event: one lint diagnostic (fields: `code`, `severity`, `locus`,
/// `message`).
pub const LINT_EVENT: &str = "lint";

/// Event: the whole-grid lint verdict of one sweep candidate (fields:
/// `tau`, `depth`, `errors`, `warnings`, and `codes` — a
/// `code:severity=count` summary joined with `;`). Finalized traces lift
/// these into `kind:"lint_candidate"` records so `printed-trace report`
/// can build the sweep-wide diagnostics matrix and `printed-trace watch`
/// can show live lint progress.
pub const LINT_CANDIDATE_EVENT: &str = "lint_candidate";

/// Event: live sweep progress, emitted as each grid point completes
/// (fields: `done`, `total`). Streamed traces carry one per candidate so
/// `printed-trace watch` can render rolling k/N progress without waiting
/// for the final dump.
pub const PROGRESS_EVENT: &str = "progress";

/// Gauge: peak resident-set size of the process in kB (`VmHWM` from
/// `/proc/self/status`), stamped once at trace finalization.
pub const PEAK_RSS_KB: &str = "process.peak_rss_kb";

/// Gauge: heap allocations performed by the process (only populated when
/// the `count-allocs` feature installs the counting global allocator).
pub const ALLOC_COUNT: &str = "process.alloc_count";

/// Gauge: bytes requested from the heap across all allocations (only
/// populated under the `count-allocs` feature).
pub const ALLOC_BYTES: &str = "process.alloc_bytes";

/// Prefix shared by all per-kernel profiling counters. A kernel `k`
/// tallies three counters — `kernel.<k>.calls`, `kernel.<k>.items`,
/// `kernel.<k>.ns` — which trace renderers lift into `kind:"kernel"`
/// records (see [`crate::Kernel`]).
pub const KERNEL_PREFIX: &str = "kernel.";
