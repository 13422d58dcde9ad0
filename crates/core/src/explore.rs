//! Hyperparameter exploration (paper §IV, Fig. 5 / Table II methodology).
//!
//! The paper brute-forces `τ ∈ {0, 0.005, …, 0.03}` × `depth ∈ {2..8}`,
//! trains an ADC-aware tree for each point, and then selects, for a given
//! accuracy-loss constraint (0%, 1%, 5%), the most hardware-efficient
//! design whose accuracy stays within the constraint of the ADC-unaware
//! reference.
//!
//! The sweep is **prefix-shared**: Algorithm 1 grows trees breadth-first,
//! so for a fixed τ (and fixed seed) the depth-d tree is a strict prefix
//! of the depth-D tree for every d ≤ D — all depth < d decisions (splits,
//! RNG draws, hardware-state mutations) are committed before any depth-d
//! node is considered. The explorer therefore trains **one** tree per τ at
//! `max(depths)` and derives every shallower candidate by BFS truncation
//! ([`AnnotatedTree::truncated`]), bit-identical to a fresh training at
//! the lower cap. A full `|τ|×|depth|` grid costs `|τ|` trainings and
//! `|grid|` syntheses; the syntheses and per-τ trainings fan out over a
//! work-stealing scheduler (workers pull the next task from an atomic
//! index, so one expensive τ cannot serialize the sweep behind it).
//!
//! The explorer degrades gracefully: a grid point that panics is isolated
//! with `catch_unwind` and reported in [`Exploration::failed_candidates`]
//! instead of killing the sweep — if the shared training itself dies, the
//! surviving shallower caps simply retrain at their own depth (equivalence
//! makes that bit-identical). Setting
//! [`ExplorationConfig::checkpoint_path`] persists each completed point so
//! an interrupted sweep resumes without re-training (see
//! [`crate::checkpoint`]).
//!
//! ```no_run
//! use printed_codesign::explore::{explore, ExplorationConfig};
//! use printed_datasets::Benchmark;
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! let sweep = explore(&train, &test, &ExplorationConfig::paper());
//! let chosen = sweep.select(0.01).expect("a design within 1% exists");
//! println!("{} comparators", chosen.system.comparator_count());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::available_parallelism;

use printed_datasets::{DatasetIndex, QuantizedDataset, ThermometerPlanes};
use printed_dtree::cart::{train_depth_selected_with_index, AnnotatedTree};
use printed_dtree::DecisionTree;
use printed_logic::report::AnalysisConfig;
use printed_pdk::{AnalogModel, CellLibrary};
use printed_telemetry::{keys, FieldValue, Progress, Recorder};

use crate::campaign::{CampaignOutcome, RobustnessConstraints};
use crate::checkpoint::{CheckpointLine, Fingerprint, Journal};
use crate::system::{synthesize_unary_parts, UnarySystem};
use crate::train::{train_adc_aware_annotated_with_index, AdcAwareConfig};

/// Live progress callback for [`explore_instrumented`]: invoked from the
/// sweep's worker threads, once per finished grid point.
pub type ProgressFn<'p> = &'p (dyn Fn(Progress) + Send + Sync);

/// The sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationConfig {
    /// Gini-slack values to sweep.
    pub taus: Vec<f64>,
    /// Depths to sweep.
    pub depths: Vec<usize>,
    /// Base RNG seed (each grid point derives its own).
    pub seed: u64,
    /// When set, every completed grid point is appended to this NDJSON
    /// file and a later sweep with the same seed over the same train and
    /// test splits skips the points already present, re-synthesizing their
    /// hardware from the stored trees.
    ///
    /// The sweep panics with `cannot open checkpoint file <path>: <err>`
    /// before any training when the file cannot be opened for append.
    pub checkpoint_path: Option<String>,
    /// Grid points `(depth, τ)` that deliberately panic inside the worker —
    /// chaos-testing hooks for the fault-isolation path. Empty in normal
    /// use.
    pub chaos_points: Vec<(usize, f64)>,
    /// Worker-thread count for the sweep; `None` (the default) uses the
    /// machine's available parallelism. The result is bit-identical for
    /// any thread count — each task's outcome depends only on its own
    /// seed, and the final `(depth, τ)` sort pins the ordering.
    pub threads: Option<usize>,
}

impl ExplorationConfig {
    /// The paper's grid: τ from 0 to 0.03 step 0.005, depth 2..=8.
    pub fn paper() -> Self {
        Self {
            taus: (0..=6).map(|i| i as f64 * 0.005).collect(),
            depths: (2..=8).collect(),
            seed: 0x0ADC,
            checkpoint_path: None,
            chaos_points: Vec::new(),
            threads: None,
        }
    }

    /// A reduced grid for quick runs and tests.
    pub fn quick() -> Self {
        Self {
            taus: vec![0.0, 0.01, 0.03],
            depths: vec![2, 4, 6],
            ..Self::paper()
        }
    }

    /// Returns the config with checkpointing enabled at `path`.
    pub fn with_checkpoint(mut self, path: impl Into<String>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Number of grid points the sweep will train.
    pub fn grid_size(&self) -> usize {
        self.taus.len() * self.depths.len()
    }

    /// Checks the grid is usable, panicking with an actionable message
    /// otherwise. Called at every sweep entry point so a malformed config
    /// fails fast instead of surfacing as a confusing deep `expect`.
    ///
    /// # Panics
    ///
    /// Panics if `taus` or `depths` is empty, any `tau` is negative or not
    /// finite, any depth is zero, or `threads` is `Some(0)`.
    pub fn validate(&self) {
        assert!(
            self.threads != Some(0),
            "exploration config requests 0 worker threads: ExplorationConfig::threads must be None (auto) or at least 1"
        );
        assert!(
            !self.taus.is_empty(),
            "exploration grid has no taus: ExplorationConfig::taus must list at least one Gini-slack value (the paper sweeps 0..=0.03 step 0.005)"
        );
        assert!(
            !self.depths.is_empty(),
            "exploration grid has no depths: ExplorationConfig::depths must list at least one depth cap (the paper sweeps 2..=8)"
        );
        for &tau in &self.taus {
            assert!(
                tau.is_finite() && tau >= 0.0,
                "exploration grid contains invalid tau {tau}: every tau must be a non-negative finite number"
            );
        }
        for &depth in &self.depths {
            assert!(
                depth >= 1,
                "exploration grid contains depth 0: every depth cap must be at least 1"
            );
        }
    }
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One grid point's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateDesign {
    /// Gini slack used.
    pub tau: f64,
    /// Depth cap used.
    pub depth: usize,
    /// Test accuracy of the trained tree.
    pub test_accuracy: f64,
    /// The trained tree itself — robustness campaigns re-analyze it and
    /// checkpoints persist it.
    pub tree: DecisionTree,
    /// The synthesized co-designed system.
    pub system: UnarySystem,
}

/// A grid point whose worker panicked; the sweep isolated it and went on.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCandidate {
    /// Gini slack of the failed point.
    pub tau: f64,
    /// Depth cap of the failed point.
    pub depth: usize,
    /// The panic message.
    pub error: String,
}

/// One grid point's static-analysis verdict from the in-flow whole-grid
/// lint: every candidate the sweep produces is run through the full
/// [`printed_lint`] pass suite inside the worker that synthesized it.
/// Candidates below the deepest cap skip only the T001 tree
/// re-verification — their trees are BFS truncations of the deepest tree
/// of their τ, which the deepest candidate's full lint already covers.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateLint {
    /// Gini slack of the linted point.
    pub tau: f64,
    /// Depth cap of the linted point.
    pub depth: usize,
    /// The pass suite's findings for this candidate.
    pub report: printed_lint::LintReport,
}

/// The full sweep with its reference point.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Every grid point, in `(depth, tau)` order.
    pub candidates: Vec<CandidateDesign>,
    /// The ADC-unaware reference: CART depth-selected on the test split up
    /// to the grid's deepest cap. Baseline \[2\] is synthesized from it.
    pub reference: DecisionTree,
    /// Test accuracy of [`reference`](Self::reference) — the anchor the
    /// accuracy-loss constraints are measured from.
    pub reference_accuracy: f64,
    /// Grid points whose workers panicked, in `(depth, tau)` order. Empty
    /// on a healthy sweep; a partial sweep is still usable for selection.
    pub failed_candidates: Vec<FailedCandidate>,
    /// Per-candidate lint verdicts, in `(depth, tau)` order — one entry
    /// per successful candidate. See [`CandidateLint`].
    pub lint: Vec<CandidateLint>,
}

impl Exploration {
    /// Selects the most power-efficient candidate whose accuracy loss
    /// (w.r.t. the reference) is at most `max_loss` (e.g. `0.01` for the
    /// paper's 1% constraint). Ties break toward smaller area. Returns
    /// `None` when no candidate meets the constraint.
    pub fn select(&self, max_loss: f64) -> Option<&CandidateDesign> {
        let floor = self.reference_accuracy - max_loss;
        self.candidates
            .iter()
            .filter(|c| c.test_accuracy >= floor - 1e-12)
            .min_by(|a, b| cheaper_hardware(a, b))
    }

    /// The nominal selection rule: [`select`](Self::select), falling back
    /// to [`most_accurate`](Self::most_accurate) when even the reference
    /// accuracy is out of reach (noisy datasets).
    ///
    /// # Panics
    ///
    /// Panics on a sweep without candidates.
    pub fn choose(&self, max_loss: f64) -> &CandidateDesign {
        self.select(max_loss)
            .or_else(|| self.most_accurate())
            .expect("non-empty sweep yields candidates")
    }

    /// Robustness-aware selection: like [`select`](Self::select), but the
    /// accuracy floor applies to each candidate's *robust* accuracy
    /// (mean under mismatch, from `campaign`) instead of the nominal test
    /// accuracy, and `constraints` can additionally require minimum yield,
    /// worst-single-fault accuracy, or supply-droop margin. Candidates the
    /// campaign did not profile are excluded. Returns `None` when nothing
    /// qualifies.
    pub fn select_robust(
        &self,
        max_loss: f64,
        campaign: &CampaignOutcome,
        constraints: &RobustnessConstraints,
    ) -> Option<&CandidateDesign> {
        let floor = self.reference_accuracy - max_loss;
        self.candidates
            .iter()
            .filter(|c| {
                campaign
                    .profile_for(c.tau, c.depth)
                    .is_some_and(|p| p.robust_accuracy() >= floor - 1e-12 && constraints.admits(p))
            })
            .min_by(|a, b| cheaper_hardware(a, b))
    }

    /// The Pareto-optimal candidates over `(test accuracy, total power)`:
    /// no returned design is dominated by another (higher-or-equal accuracy
    /// *and* strictly lower power, or equal power and strictly higher
    /// accuracy). Sorted by ascending accuracy; duplicates collapsed.
    pub fn pareto(&self) -> Vec<&CandidateDesign> {
        let mut frontier: Vec<&CandidateDesign> = self
            .candidates
            .iter()
            .filter(|c| {
                !self.candidates.iter().any(|d| {
                    let better_power = d.system.total_power() < c.system.total_power();
                    let better_acc = d.test_accuracy > c.test_accuracy;
                    (d.test_accuracy >= c.test_accuracy && better_power)
                        || (better_acc && d.system.total_power() <= c.system.total_power())
                })
            })
            .collect();
        frontier.sort_by(|a, b| a.test_accuracy.total_cmp(&b.test_accuracy));
        frontier.dedup_by(|a, b| {
            a.test_accuracy == b.test_accuracy && a.system.total_power() == b.system.total_power()
        });
        frontier
    }

    /// The accuracy-maximizing candidate (useful as a "0% loss" anchor when
    /// even the reference accuracy is unreachable on a hard dataset).
    pub fn most_accurate(&self) -> Option<&CandidateDesign> {
        // NaN would sort as the *largest* float under total_cmp; demote it
        // so a degenerate candidate can never win the accuracy race.
        let rank = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
        self.candidates.iter().max_by(|a, b| {
            rank(a.test_accuracy)
                .total_cmp(&rank(b.test_accuracy))
                .then_with(|| {
                    // Ties: cheaper power wins.
                    b.system
                        .total_power()
                        .uw()
                        .total_cmp(&a.system.total_power().uw())
                })
        })
    }
}

/// Power-then-area ordering for selection tie-breaks. `total_cmp` so a
/// degenerate candidate with a NaN metric sorts last instead of panicking
/// mid-selection.
fn cheaper_hardware(a: &CandidateDesign, b: &CandidateDesign) -> std::cmp::Ordering {
    let pa = a.system.total_power().uw();
    let pb = b.system.total_power().uw();
    pa.total_cmp(&pb).then_with(|| {
        a.system
            .total_area()
            .mm2()
            .total_cmp(&b.system.total_area().mm2())
    })
}

/// Runs the sweep with default EGFET technology at 20 Hz.
///
/// # Panics
///
/// Panics if either dataset is empty or the grid is empty.
pub fn explore(
    train_data: &QuantizedDataset,
    test_data: &QuantizedDataset,
    config: &ExplorationConfig,
) -> Exploration {
    explore_instrumented(
        train_data,
        test_data,
        config,
        &CellLibrary::egfet(),
        &AnalogModel::egfet(),
        &AnalysisConfig::printed_20hz(),
        &Recorder::disabled(),
        None,
    )
}

/// Odd multiplier (2⁶⁴/φ) whose product is a bijection on `u64`, so
/// distinct inputs can never collide after mixing.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the per-τ training seed from the sweep's base seed.
///
/// Mixing `tau.to_bits()` keys the stream on τ's *exact* bit pattern:
/// τ values distinguishable as `f64`s always get distinct seeds. (An
/// earlier derivation used `(tau * 1e6) as u64`, which truncated
/// non-multiple-of-1e-6 values and collided τs closer than 1e-6.) The
/// seed is deliberately depth-independent — prefix sharing requires every
/// depth cap of a τ to replay the same RNG stream.
pub(crate) fn tau_seed(base: u64, tau: f64) -> u64 {
    base ^ tau.to_bits().wrapping_mul(SEED_MIX)
}

/// Derives a per-grid-point seed — for consumers (robustness campaigns)
/// that genuinely need an independent stream per `(depth, τ)` point rather
/// than the training's shared per-τ stream. Folds the depth in with a
/// second odd-multiplier mix so `(depth, τ)` pairs never collide.
pub(crate) fn point_seed(base: u64, depth: usize, tau: f64) -> u64 {
    tau_seed(base, tau) ^ (depth as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Renders a panic payload into a failed-candidate error string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One unit of work for the sweep's fan-out.
enum SweepTask<'j> {
    /// Re-synthesize a checkpointed grid point (no training).
    Restore(&'j CheckpointLine),
    /// Train one tree for `tau` at the deepest missing cap and derive the
    /// shallower caps by truncation. `depths` is sorted descending.
    Train { tau: f64, depths: Vec<usize> },
}

/// One grid point's result inside a sweep worker.
type PointOutcome = Result<(CandidateDesign, Option<CandidateLint>), FailedCandidate>;

/// Runs `work` over `tasks` on up to `threads` scoped workers (`None`:
/// the machine's available parallelism) and returns the results in task
/// order. Workers pull the next task from a shared atomic cursor, so an
/// expensive task cannot strand cheap ones behind it the way static
/// chunking would — whoever finishes first pulls more work. A panic in
/// `work` propagates to the caller.
pub(crate) fn fan_out<T: Sync, R: Send>(
    tasks: &[T],
    threads: Option<usize>,
    work: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.unwrap_or_else(|| available_parallelism().map_or(4, |n| n.get()));
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(tasks.len()))
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(|| {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        Some((index, work(tasks.get(index)?)))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

/// [`explore`] under explicit technology/analysis choices, plus
/// observability: one [`keys::REFERENCE_SPAN`] around the reference
/// training, one [`keys::CANDIDATE_SPAN`] per
/// evaluated grid point (fields `tau`, `depth`, `accuracy`,
/// `comparators`) and — independent of the recorder — an optional live
/// `progress` callback fired from the worker threads as each candidate
/// completes.
///
/// Prefix sharing shows up in the trace: only the deepest missing cap of
/// each τ trains (a `train` span, [`keys::TREES_TRAINED`]); every other
/// cap derives by truncation (a [`keys::TRUNCATE_SPAN`] with fields `tau`,
/// `depth`, `trained_depth`, and a [`keys::TREES_SHARED`] bump). Both
/// paths emit the candidate span.
///
/// Grid points that panic are isolated per candidate: each failure is
/// recorded as a [`keys::CANDIDATE_FAILED_EVENT`] (and bumps
/// [`keys::SWEEP_FAILED`]) and listed in
/// [`Exploration::failed_candidates`], while the rest of the sweep
/// completes normally — a failed shared training just retrains at the
/// next shallower cap. Points restored from a checkpoint bump
/// [`keys::SWEEP_CHECKPOINT_HITS`] and emit no candidate span (nothing was
/// trained); after a fully successful sweep the checkpoint file is
/// compacted to one line per grid point.
///
/// Every successful candidate — fresh or restored — is also run through
/// the whole-grid in-flow lint ([`Exploration::lint`]): the worker that
/// produced the candidate lints it, emitting one
/// [`keys::LINT_CANDIDATE_EVENT`] (fields `tau`, `depth`, `errors`,
/// `warnings`, `codes`). Candidates below the deepest cap skip only the
/// T001 tree re-verification (their trees are truncations the deepest
/// candidate's full lint already covers), so grid lint stays a bounded
/// fraction of the sweep's wall time.
///
/// The instrumentation never touches the per-τ RNG seeds, so the returned
/// [`Exploration`] is bit-identical to [`explore`]'s under the same
/// technology.
#[allow(clippy::too_many_arguments)]
pub fn explore_instrumented(
    train_data: &QuantizedDataset,
    test_data: &QuantizedDataset,
    config: &ExplorationConfig,
    library: &CellLibrary,
    analog: &AnalogModel,
    analysis: &AnalysisConfig,
    recorder: &Recorder,
    progress: Option<ProgressFn<'_>>,
) -> Exploration {
    explore_core(
        train_data, test_data, config, library, analog, analysis, recorder, progress, true,
    )
}

/// [`explore_instrumented`] with the whole-grid lint togglable — the
/// `false` path exists solely so the lint-overhead budget test can
/// measure the sweep with and without the in-flow analysis.
#[allow(clippy::too_many_arguments)]
fn explore_core(
    train_data: &QuantizedDataset,
    test_data: &QuantizedDataset,
    config: &ExplorationConfig,
    library: &CellLibrary,
    analog: &AnalogModel,
    analysis: &AnalysisConfig,
    recorder: &Recorder,
    progress: Option<ProgressFn<'_>>,
    grid_lint: bool,
) -> Exploration {
    config.validate();
    let max_depth = *config.depths.iter().max().expect("non-empty");
    // One dataset index for the whole sweep: the reference and every τ's
    // training read the same feature-major columns and prefix sums
    // (read-only, Sync).
    let train_index = DatasetIndex::new(train_data);
    let span = recorder.span(keys::REFERENCE_SPAN);
    let reference = train_depth_selected_with_index(train_data, &train_index, test_data, max_depth);
    span.finish();
    let total = config.grid_size();
    let done = AtomicUsize::new(0);

    // Checkpoint resume: grid points already persisted skip training and
    // only re-synthesize their hardware (deterministic from the tree).
    // The stamp binds the file to this seed and these splits.
    let journal = config.checkpoint_path.as_deref().map(|path| {
        let stamp = Fingerprint::new(config.seed)
            .quantized(train_data)
            .quantized(test_data)
            .finish();
        Journal::<CheckpointLine>::open(path, stamp)
    });
    let restored = |depth: usize, tau: f64| journal.as_ref()?.restored((depth, tau.to_bits()));

    // Task list: one Train task per τ with missing points (heaviest work
    // first, so the fan-out starts the long poles early), then one
    // Restore task per checkpointed point (synthesis only).
    let mut tasks: Vec<SweepTask> = Vec::new();
    for &tau in &config.taus {
        let mut depths: Vec<usize> = config
            .depths
            .iter()
            .copied()
            .filter(|&depth| restored(depth, tau).is_none())
            .collect();
        if !depths.is_empty() {
            // Descending: the first (deepest) cap trains, the rest truncate.
            depths.sort_unstable_by(|a, b| b.cmp(a));
            tasks.push(SweepTask::Train { tau, depths });
        }
    }
    let grid = config
        .depths
        .iter()
        .flat_map(|&d| config.taus.iter().map(move |&t| (d, t)));
    tasks.extend(grid.filter_map(|(depth, tau)| restored(depth, tau).map(SweepTask::Restore)));

    // One set of thermometer bit-planes of the test split: every
    // candidate is scored on them, 64 samples per word.
    let test_planes = ThermometerPlanes::new(test_data);
    // Whole-grid in-flow lint: the candidate is analyzed by the worker
    // that produced it, with the T001 re-verification reserved for the
    // deepest cap (a pure function of the grid point, so every scheduling
    // of the sweep lints identically) and its equivalence leg capped at
    // GRID_EQUIV_BUDGET feasible patterns so the sweep wall stays inside
    // the calibrated gate; the selected design is re-linted at full budget
    // by the flow's lint stage.
    let lint_point = |candidate: &CandidateDesign,
                      netlist: &printed_logic::netlist::Netlist|
     -> Option<CandidateLint> {
        grid_lint.then(|| CandidateLint {
            tau: candidate.tau,
            depth: candidate.depth,
            report: crate::lint::lint_candidate_borrowed(
                candidate,
                netlist,
                analog,
                Some(config),
                candidate.depth == max_depth,
                Some(crate::lint::GRID_EQUIV_BUDGET),
            ),
        })
    };
    // Settles one grid point inside its worker: checkpoint hit or append,
    // grid-lint event, or failure event, then one progress event.
    let settle = |depth: usize,
                  tau: f64,
                  outcome: std::thread::Result<(CandidateDesign, Option<CandidateLint>)>,
                  from_checkpoint: bool|
     -> PointOutcome {
        let settled = match outcome {
            Ok((candidate, lint)) => {
                if from_checkpoint {
                    recorder.add(keys::SWEEP_CHECKPOINT_HITS, 1);
                } else if let Some(journal) = &journal {
                    journal.append(&CheckpointLine::from(&candidate));
                }
                if let Some(entry) = &lint {
                    crate::lint::record_grid_lint(recorder, tau, depth, &entry.report);
                }
                Ok((candidate, lint))
            }
            Err(payload) => {
                let error = panic_message(payload);
                recorder.event(
                    keys::CANDIDATE_FAILED_EVENT,
                    vec![
                        ("depth".to_owned(), FieldValue::U64(depth as u64)),
                        ("tau".to_owned(), FieldValue::F64(tau)),
                        ("error".to_owned(), FieldValue::Str(error.clone())),
                    ],
                );
                recorder.add(keys::SWEEP_FAILED, 1);
                Err(FailedCandidate { tau, depth, error })
            }
        };
        // Count unconditionally: the trace's progress events must advance
        // even when no live callback is installed, so `printed-trace
        // watch` can read k/N straight off a streamed NDJSON file.
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        recorder.event(
            keys::PROGRESS_EVENT,
            vec![
                ("done".to_owned(), FieldValue::U64(finished as u64)),
                ("total".to_owned(), FieldValue::U64(total as u64)),
            ],
        );
        if let Some(callback) = progress {
            callback(Progress {
                done: finished,
                total,
            });
        }
        settled
    };

    let outcomes: Vec<Vec<PointOutcome>> = fan_out(&tasks, config.threads, |task| {
        // The kernel scope activates per-thread hot-path tallies (Gini
        // scan, truncation, encode, merge, synth) and merges them into the
        // shared kernel.* counters when the task ends; with a disabled
        // recorder it is a no-op.
        let _kernel_scope = printed_telemetry::KernelScope::enter(recorder);
        match task {
            SweepTask::Restore(line) => {
                let (depth, tau) = (line.depth, line.tau);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let (system, netlist) =
                        synthesize_unary_parts(&line.tree, library, analog, analysis);
                    let candidate = CandidateDesign {
                        tau,
                        depth,
                        test_accuracy: line.test_accuracy,
                        tree: line.tree.clone(),
                        system,
                    };
                    // Restored candidates are linted exactly like fresh
                    // ones — a checkpoint must not create a verification
                    // hole.
                    let lint = lint_point(&candidate, &netlist);
                    (candidate, lint)
                }));
                vec![settle(depth, tau, outcome, true)]
            }
            SweepTask::Train { tau, depths } => {
                let tau = *tau;
                // The shared tree for this τ, once grown at the deepest cap
                // that survived.
                let mut shared: Option<(usize, AnnotatedTree)> = None;
                depths
                    .iter()
                    .map(|&depth| {
                        // Per-candidate isolation: one poisoned grid point
                        // must not abort the others. If the shared training
                        // itself dies, `shared` stays None and the next
                        // (shallower) cap trains at its own depth —
                        // bit-identical by the prefix-sharing equivalence.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            if config.chaos_points.contains(&(depth, tau)) {
                                panic!("injected chaos point (depth {depth}, tau {tau})");
                            }
                            let span = recorder
                                .span(keys::CANDIDATE_SPAN)
                                .field("depth", depth)
                                .field("tau", tau);
                            let tree = if let Some((trained_depth, annotated)) = shared.as_ref() {
                                let truncate_span = recorder
                                    .span(keys::TRUNCATE_SPAN)
                                    .field("tau", tau)
                                    .field("depth", depth)
                                    .field("trained_depth", *trained_depth);
                                let tree = annotated.truncated(depth);
                                truncate_span.finish();
                                recorder.add(keys::TREES_SHARED, 1);
                                tree
                            } else {
                                let cfg = AdcAwareConfig {
                                    max_depth: depth,
                                    tau,
                                    min_samples_split: 2,
                                    // Per-τ, depth-independent: every cap
                                    // replays the same RNG stream, which is
                                    // what makes truncation exact.
                                    seed: tau_seed(config.seed, tau),
                                };
                                let annotated = train_adc_aware_annotated_with_index(
                                    train_data,
                                    &train_index,
                                    &cfg,
                                    recorder,
                                );
                                let tree = annotated.tree.clone();
                                shared = Some((depth, annotated));
                                tree
                            };
                            let (system, netlist) =
                                synthesize_unary_parts(&tree, library, analog, analysis);
                            // Bit-sliced scoring; bit-equal to
                            // tree.accuracy (the covers are exact indicator
                            // functions of the tree's regions).
                            let test_accuracy = system.classifier.accuracy_on(&test_planes);
                            span.field("accuracy", test_accuracy)
                                .field("comparators", system.comparator_count())
                                .finish();
                            let candidate = CandidateDesign {
                                tau,
                                depth,
                                test_accuracy,
                                tree,
                                system,
                            };
                            let lint = lint_point(&candidate, &netlist);
                            (candidate, lint)
                        }));
                        settle(depth, tau, outcome, false)
                    })
                    .collect()
            }
        }
    });

    let mut candidates = Vec::new();
    let mut failed = Vec::new();
    let mut lint = Vec::new();
    for outcome in outcomes.into_iter().flatten() {
        match outcome {
            Ok((candidate, entry)) => {
                candidates.push(candidate);
                lint.extend(entry);
            }
            Err(failure) => failed.push(failure),
        }
    }
    candidates.sort_by(|a, b| a.depth.cmp(&b.depth).then(a.tau.total_cmp(&b.tau)));
    failed.sort_by(|a, b| a.depth.cmp(&b.depth).then(a.tau.total_cmp(&b.tau)));
    lint.sort_by(|a, b| a.depth.cmp(&b.depth).then(a.tau.total_cmp(&b.tau)));

    // A fully successful checkpointed sweep compacts the file down to one
    // line per grid point, so repeated resume cycles cannot grow it
    // without bound.
    if let Some(journal) = journal.filter(|_| failed.is_empty()) {
        let lines: Vec<CheckpointLine> = candidates.iter().map(CheckpointLine::from).collect();
        journal.compact(&lines);
    }

    Exploration {
        candidates,
        reference: reference.tree,
        reference_accuracy: reference.test_accuracy,
        failed_candidates: failed,
        lint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;

    #[test]
    fn sweep_covers_the_grid() {
        let (train_data, test_data) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let sweep = explore(&train_data, &test_data, &ExplorationConfig::quick());
        assert_eq!(sweep.candidates.len(), 9);
        assert!(sweep.failed_candidates.is_empty());
        assert!(sweep.reference_accuracy > 0.7);
    }

    #[test]
    fn selection_respects_the_floor() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let sweep = explore(&train_data, &test_data, &ExplorationConfig::quick());
        for loss in [0.0, 0.01, 0.05] {
            if let Some(chosen) = sweep.select(loss) {
                assert!(
                    chosen.test_accuracy >= sweep.reference_accuracy - loss - 1e-9,
                    "loss {loss}: accuracy {} vs reference {}",
                    chosen.test_accuracy,
                    sweep.reference_accuracy
                );
            }
        }
    }

    #[test]
    fn looser_constraints_never_cost_more_power() {
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let sweep = explore(&train_data, &test_data, &ExplorationConfig::quick());
        let p = |loss: f64| sweep.select(loss).map(|c| c.system.total_power().uw());
        if let (Some(p0), Some(p1), Some(p5)) = (p(0.0), p(0.01), p(0.05)) {
            assert!(p1 <= p0 + 1e-9);
            assert!(p5 <= p1 + 1e-9);
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let (train_data, test_data) = Benchmark::BalanceScale.load_quantized(4).unwrap();
        let a = explore(&train_data, &test_data, &ExplorationConfig::quick());
        let b = explore(&train_data, &test_data, &ExplorationConfig::quick());
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.test_accuracy, y.test_accuracy);
            assert_eq!(x.system.comparator_count(), y.system.comparator_count());
        }
    }

    #[test]
    fn pareto_frontier_is_nondominated_and_monotone() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let sweep = explore(&train_data, &test_data, &ExplorationConfig::quick());
        let frontier = sweep.pareto();
        assert!(!frontier.is_empty());
        // Monotone: accuracy and power both strictly increase along it.
        for pair in frontier.windows(2) {
            assert!(pair[0].test_accuracy < pair[1].test_accuracy + 1e-12);
            assert!(
                pair[0].system.total_power() <= pair[1].system.total_power(),
                "frontier must trade power for accuracy"
            );
        }
        // No frontier point is dominated by any candidate.
        for f in &frontier {
            for c in &sweep.candidates {
                let dominates = c.test_accuracy >= f.test_accuracy
                    && c.system.total_power() < f.system.total_power();
                assert!(!dominates, "dominated frontier point");
            }
        }
        // The most accurate candidate is always on the frontier.
        let top = sweep.most_accurate().unwrap();
        assert!(frontier
            .iter()
            .any(|f| f.test_accuracy >= top.test_accuracy - 1e-12));
    }

    #[test]
    #[should_panic(expected = "exploration grid has no taus")]
    fn empty_taus_fail_fast() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let config = ExplorationConfig {
            taus: vec![],
            ..ExplorationConfig::quick()
        };
        explore(&train_data, &test_data, &config);
    }

    #[test]
    #[should_panic(expected = "exploration grid has no depths")]
    fn empty_depths_fail_fast() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let config = ExplorationConfig {
            depths: vec![],
            ..ExplorationConfig::quick()
        };
        explore(&train_data, &test_data, &config);
    }

    #[test]
    #[should_panic(expected = "invalid tau")]
    fn negative_tau_fails_fast() {
        let config = ExplorationConfig {
            taus: vec![0.0, -0.01],
            ..ExplorationConfig::quick()
        };
        config.validate();
    }

    #[test]
    fn instrumented_sweep_traces_every_grid_point() {
        use printed_telemetry::FieldValue;
        let (train_data, test_data) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let config = ExplorationConfig::quick();
        let plain = explore(&train_data, &test_data, &config);
        let (recorder, sink) = Recorder::collecting();
        let progressed = AtomicUsize::new(0);
        let traced = explore_instrumented(
            &train_data,
            &test_data,
            &config,
            &CellLibrary::egfet(),
            &AnalogModel::egfet(),
            &AnalysisConfig::printed_20hz(),
            &recorder,
            Some(&|p: Progress| {
                progressed.fetch_max(p.done, Ordering::Relaxed);
                assert_eq!(p.total, 9);
            }),
        );
        assert_eq!(plain, traced, "instrumentation must not perturb the sweep");
        assert_eq!(progressed.load(Ordering::Relaxed), 9);
        let snap = sink.snapshot();
        assert_eq!(
            snap.spans_named(keys::CANDIDATE_SPAN).count(),
            config.grid_size()
        );
        // Prefix sharing: one training per τ, the rest derived.
        assert_eq!(snap.counter(keys::TREES_TRAINED), 3);
        assert_eq!(snap.counter(keys::TREES_SHARED), 6);
        assert_eq!(snap.spans_named(keys::TRUNCATE_SPAN).count(), 6);
        // Kernel tallies, merged from every worker's scope: counts are
        // deterministic for any thread schedule. Gini items count the
        // sample values each scan reads (node size × features), so they
        // exceed the candidate tally that `train.gini_evals` keeps; each
        // candidate encodes one tree and synthesizes one netlist; each
        // shared candidate truncates once. A partition fires only when a
        // split commits, and every committed split was first scanned.
        use printed_telemetry::Kernel;
        assert!(snap.counter(Kernel::GiniScan.items_key()) >= snap.counter(keys::GINI_EVALS));
        assert!(snap.counter(Kernel::GiniScan.calls_key()) > 0);
        assert!(snap.counter(Kernel::NodePartition.calls_key()) > 0);
        assert!(
            snap.counter(Kernel::NodePartition.calls_key())
                <= snap.counter(Kernel::GiniScan.calls_key())
        );
        assert_eq!(snap.counter(Kernel::BfsTruncate.calls_key()), 6);
        assert_eq!(snap.counter(Kernel::ThermoEncode.calls_key()), 9);
        assert_eq!(snap.counter(Kernel::NetlistSynth.calls_key()), 9);
        assert!(snap.counter(Kernel::CubeMerge.calls_key()) >= 9);
        // Every candidate span carries the grid coordinates and outcome.
        for span in snap.spans_named(keys::CANDIDATE_SPAN) {
            assert!(span.field("depth").and_then(FieldValue::as_u64).is_some());
            assert!(span.field("tau").and_then(FieldValue::as_f64).is_some());
            assert!(span
                .field("accuracy")
                .and_then(FieldValue::as_f64)
                .is_some());
            assert!(span
                .field("comparators")
                .and_then(FieldValue::as_u64)
                .is_some());
        }
    }

    #[test]
    fn whole_grid_lint_covers_every_candidate() {
        let (train_data, test_data) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let config = ExplorationConfig::quick();
        let (recorder, sink) = Recorder::collecting();
        let sweep = explore_instrumented(
            &train_data,
            &test_data,
            &config,
            &CellLibrary::egfet(),
            &AnalogModel::egfet(),
            &AnalysisConfig::printed_20hz(),
            &recorder,
            None,
        );
        // One verdict per candidate, aligned with the candidate order.
        assert_eq!(sweep.lint.len(), sweep.candidates.len());
        for (candidate, lint) in sweep.candidates.iter().zip(&sweep.lint) {
            assert_eq!((lint.depth, lint.tau), (candidate.depth, candidate.tau));
            assert!(
                !lint.report.has_errors(),
                "grid point (depth {}, τ={}) must lint clean:\n{}",
                lint.depth,
                lint.tau,
                lint.report.render_text()
            );
        }
        // The per-candidate verdicts are observable in the trace, one
        // event per grid point with the coordinate and tally fields.
        let snap = sink.snapshot();
        let events: Vec<_> = snap.events_named(keys::LINT_CANDIDATE_EVENT).collect();
        assert_eq!(events.len(), config.grid_size());
        for event in events {
            assert!(event.field("tau").and_then(FieldValue::as_f64).is_some());
            assert!(event.field("depth").and_then(FieldValue::as_u64).is_some());
            assert_eq!(event.field("errors").and_then(FieldValue::as_u64), Some(0));
            assert!(event
                .field("warnings")
                .and_then(FieldValue::as_u64)
                .is_some());
            assert!(event.field("codes").and_then(FieldValue::as_str).is_some());
        }
    }

    #[test]
    fn restored_candidates_lint_like_fresh_ones() {
        let path = std::env::temp_dir().join(format!(
            "printed-lint-ckpt-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&path);
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let fresh = explore(&train_data, &test_data, &ExplorationConfig::quick());
        // Fill the checkpoint, then resume with everything cached: the
        // restored sweep's lint verdicts must be bit-identical.
        let checkpointed = ExplorationConfig::quick().with_checkpoint(&path_str);
        explore(&train_data, &test_data, &checkpointed);
        let resumed = explore(&train_data, &test_data, &checkpointed);
        assert_eq!(resumed.lint, fresh.lint);
        assert!(!fresh.lint.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn whole_grid_lint_overhead_is_bounded() {
        // The lint trajectory's budget: the in-flow whole-grid lint may
        // add at most max(50 ms, 1× the lint-free sweep) of wall to the
        // quick grid. The 50 ms floor keeps host noise on a sub-second
        // sweep from failing the bound. This is the only wall-time bound
        // on the lint; end-to-end wall is perfbench's to measure.
        // Prefix-shared T001 skipping is what keeps the overhead small:
        // only the deepest cap of each τ re-proves tree equivalence.
        // Interleaved pairs with a best-of-N minimum, like the kernel
        // instrumentation gate, so transient machine noise cancels.
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let config = ExplorationConfig::quick();
        let run = |grid_lint: bool| {
            let start = std::time::Instant::now();
            let sweep = explore_core(
                &train_data,
                &test_data,
                &config,
                &CellLibrary::egfet(),
                &AnalogModel::egfet(),
                &AnalysisConfig::printed_20hz(),
                &Recorder::disabled(),
                None,
                grid_lint,
            );
            (sweep, start.elapsed())
        };
        let (reference, _) = run(true);
        assert_eq!(reference.lint.len(), config.grid_size());
        let mut best_overhead = f64::INFINITY;
        let mut passed = false;
        for attempt in 0..6 {
            let (bare, bare_wall) = run(false);
            assert!(bare.lint.is_empty());
            assert_eq!(bare.candidates, reference.candidates);
            let (linted, linted_wall) = run(true);
            assert_eq!(linted, reference, "grid lint is deterministic");
            let bare_s = bare_wall.as_secs_f64();
            let overhead = linted_wall.as_secs_f64() - bare_s;
            best_overhead = best_overhead.min(overhead);
            if best_overhead <= (0.050f64).max(bare_s) {
                passed = true;
                break;
            }
            eprintln!(
                "grid-lint overhead attempt {attempt}: +{:.1} ms over {:.1} ms (noisy, retrying)",
                overhead * 1e3,
                bare_s * 1e3
            );
        }
        assert!(
            passed,
            "whole-grid lint consistently over budget: best +{:.1} ms \
             (budget max(50 ms, 1× bare sweep))",
            best_overhead * 1e3
        );
    }

    #[test]
    fn most_accurate_is_at_least_any_selected() {
        let (train_data, test_data) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let sweep = explore(&train_data, &test_data, &ExplorationConfig::quick());
        let top = sweep.most_accurate().unwrap().test_accuracy;
        if let Some(chosen) = sweep.select(0.01) {
            assert!(top >= chosen.test_accuracy);
        }
    }

    #[test]
    fn panicking_candidate_is_isolated_not_fatal() {
        let (train_data, test_data) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let config = ExplorationConfig {
            chaos_points: vec![(4, 0.01)],
            ..ExplorationConfig::quick()
        };
        let (recorder, sink) = Recorder::collecting();
        let sweep = explore_instrumented(
            &train_data,
            &test_data,
            &config,
            &CellLibrary::egfet(),
            &AnalogModel::egfet(),
            &AnalysisConfig::printed_20hz(),
            &recorder,
            None,
        );
        // The other eight points survive and selection still works.
        assert_eq!(sweep.candidates.len(), 8);
        assert!(!sweep
            .candidates
            .iter()
            .any(|c| c.depth == 4 && c.tau == 0.01));
        assert!(sweep.select(0.05).is_some() || sweep.most_accurate().is_some());
        // The failure is explicit, with its grid point and message.
        assert_eq!(sweep.failed_candidates.len(), 1);
        let failure = &sweep.failed_candidates[0];
        assert_eq!((failure.depth, failure.tau), (4, 0.01));
        assert!(failure.error.contains("chaos point"), "{}", failure.error);
        // …and observable in the trace.
        let snap = sink.snapshot();
        assert_eq!(snap.counter(keys::SWEEP_FAILED), 1);
        assert_eq!(snap.events_named(keys::CANDIDATE_FAILED_EVENT).count(), 1);
    }

    #[test]
    fn nan_accuracy_candidate_cannot_crash_selection() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let mut sweep = explore(
            &train_data,
            &test_data,
            &ExplorationConfig {
                taus: vec![0.0],
                depths: vec![2, 3],
                ..ExplorationConfig::quick()
            },
        );
        let mut degenerate = sweep.candidates[0].clone();
        degenerate.test_accuracy = f64::NAN;
        sweep.candidates.push(degenerate);
        // total_cmp ordering: these must complete, and never pick the NaN
        // candidate over a real one.
        let chosen = sweep.select(0.05).expect("real candidates qualify");
        assert!(chosen.test_accuracy.is_finite());
        let top = sweep.most_accurate().expect("non-empty");
        assert!(top.test_accuracy.is_finite());
        let _ = sweep.pareto();
    }

    #[test]
    fn close_taus_get_distinct_seeds() {
        // Regression: the old `(tau * 1e6) as u64` mix truncated to 1e-6
        // resolution, so τ values closer than that collided onto one RNG
        // stream. The bit-pattern mix keys every distinguishable f64.
        let base = 0x0ADC;
        let tau_a = 1e-7;
        let tau_b = 3e-7;
        let old_mix = |tau: f64| base + (tau * 1e6) as u64;
        assert_eq!(
            old_mix(tau_a),
            old_mix(tau_b),
            "the old derivation collided"
        );
        assert_ne!(tau_seed(base, tau_a), tau_seed(base, tau_b));
        // And the streams stay distinct across a dense τ grid.
        let taus: Vec<f64> = (0..1000).map(|i| i as f64 * 1e-8).collect();
        let mut seeds: Vec<u64> = taus.iter().map(|&t| tau_seed(base, t)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), taus.len());
        // Depth folds in without colliding either.
        let mut point_seeds: Vec<u64> = (1..=8)
            .flat_map(|d| taus.iter().map(move |&t| point_seed(base, d, t)))
            .collect();
        point_seeds.sort_unstable();
        point_seeds.dedup();
        assert_eq!(point_seeds.len(), 8 * taus.len());
    }

    #[test]
    fn pathological_grid_matches_serial_path() {
        // The old contiguous chunking put all deep points in the last
        // worker; work stealing must not change the result on a grid built
        // to expose scheduling: one expensive depth-8 row, many cheap
        // depth-2 rows.
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let pathological = ExplorationConfig {
            taus: (0..6).map(|i| i as f64 * 0.005).collect(),
            depths: vec![2, 8],
            ..ExplorationConfig::quick()
        };
        let serial = explore(
            &train_data,
            &test_data,
            &ExplorationConfig {
                threads: Some(1),
                ..pathological.clone()
            },
        );
        let parallel = explore(
            &train_data,
            &test_data,
            &ExplorationConfig {
                threads: Some(8),
                ..pathological
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn paper_grid_trains_one_tree_per_tau() {
        // The acceptance pin: a 49-point paper() sweep performs exactly 7
        // trainings (one per τ, at max depth) and derives the other 42.
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let config = ExplorationConfig::paper();
        let (recorder, sink) = Recorder::collecting();
        let sweep = explore_instrumented(
            &train_data,
            &test_data,
            &config,
            &CellLibrary::egfet(),
            &AnalogModel::egfet(),
            &AnalysisConfig::printed_20hz(),
            &recorder,
            None,
        );
        assert_eq!(sweep.candidates.len(), 49);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(keys::TREES_TRAINED), config.taus.len() as u64);
        assert_eq!(
            snap.counter(keys::TREES_SHARED),
            (config.grid_size() - config.taus.len()) as u64
        );
        // Gini work equals exactly 7 standalone max-depth trainings —
        // truncation does no split scoring at all.
        let (tally_recorder, tally_sink) = Recorder::collecting();
        for &tau in &config.taus {
            let cfg = AdcAwareConfig {
                max_depth: 8,
                tau,
                min_samples_split: 2,
                seed: tau_seed(config.seed, tau),
            };
            crate::train::train_adc_aware_recorded(&train_data, &cfg, &tally_recorder);
        }
        assert_eq!(
            snap.counter(keys::GINI_EVALS),
            tally_sink.snapshot().counter(keys::GINI_EVALS)
        );
    }

    #[test]
    fn kernel_instrumentation_overhead_is_under_three_percent() {
        // The profiling subsystem's own acceptance gate: the paper 7×7
        // grid on Seeds, instrumented (collecting recorder + per-worker
        // kernel scopes) vs uninstrumented (disabled recorder), runs
        // interleaved and compared min-to-min so transient machine noise
        // cancels. Inactive timers are one thread-local flag read and
        // active ones are plain per-thread integer tallies, so the
        // instrumented minimum must stay within 3% of the plain one.
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let config = ExplorationConfig::paper();
        let run = |recorder: &Recorder| {
            let start = std::time::Instant::now();
            let sweep = explore_instrumented(
                &train_data,
                &test_data,
                &config,
                &CellLibrary::egfet(),
                &AnalogModel::egfet(),
                &AnalysisConfig::printed_20hz(),
                recorder,
                None,
            );
            (sweep, start.elapsed())
        };
        // Warm-up run: faults in the dataset, code, and allocator pools.
        let (reference, _) = run(&Recorder::disabled());
        // Back-to-back pairs share their load conditions (the test suite
        // runs concurrently), so the paired ratio is the noise-robust
        // statistic; the *best* pair bounds the true overhead from above.
        // Early exit keeps the common case at one pair.
        let mut best_ratio = f64::INFINITY;
        for attempt in 0..6 {
            let (plain, plain_wall) = run(&Recorder::disabled());
            assert_eq!(plain, reference, "plain runs are deterministic");
            let (recorder, _sink) = Recorder::collecting();
            let (instr, instr_wall) = run(&recorder);
            assert_eq!(
                instr, reference,
                "instrumentation must not perturb the sweep"
            );
            let ratio = instr_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9);
            best_ratio = best_ratio.min(ratio);
            if best_ratio <= 1.03 {
                break;
            }
            eprintln!("overhead attempt {attempt}: {ratio:.4}× (noisy, retrying)");
        }
        assert!(
            best_ratio <= 1.03,
            "instrumented paper grid consistently over budget: best {best_ratio:.4}× (budget 1.03×)"
        );
    }

    #[test]
    fn checkpointed_sweep_resumes_without_retraining() {
        let path = std::env::temp_dir().join(format!(
            "printed-ckpt-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&path);

        let (train_data, test_data) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        // "Interrupted" run: only a third of the quick grid.
        let partial = ExplorationConfig {
            depths: vec![2],
            ..ExplorationConfig::quick()
        }
        .with_checkpoint(&path_str);
        explore(&train_data, &test_data, &partial);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap().lines().count(),
            3,
            "one checkpoint line per completed point"
        );

        // Resume over the full grid: the three depth-2 points must come
        // back from the checkpoint, the other six train fresh.
        let full = ExplorationConfig::quick().with_checkpoint(&path_str);
        let (recorder, sink) = Recorder::collecting();
        let resumed = explore_instrumented(
            &train_data,
            &test_data,
            &full,
            &CellLibrary::egfet(),
            &AnalogModel::egfet(),
            &AnalysisConfig::printed_20hz(),
            &recorder,
            None,
        );
        let snap = sink.snapshot();
        assert_eq!(snap.counter(keys::SWEEP_CHECKPOINT_HITS), 3);
        assert_eq!(
            snap.counter(keys::TREES_TRAINED),
            3,
            "resumed points skip training; missing caps share one tree per τ"
        );
        assert_eq!(snap.counter(keys::TREES_SHARED), 3);
        assert_eq!(snap.spans_named(keys::CANDIDATE_SPAN).count(), 6);

        // The resumed sweep is bit-identical to an uninterrupted one: the
        // restored depth-2 candidates were trained at cap 2 with the per-τ
        // seed, which equals truncating the fresh sweep's depth-6 trees.
        let fresh = explore(&train_data, &test_data, &ExplorationConfig::quick());
        assert_eq!(resumed, fresh);

        // The fully successful sweep compacted the file: one line per grid
        // point, no duplicate accumulation across resume cycles.
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 9);

        // A third run finds everything checkpointed and trains nothing.
        let (recorder, sink) = Recorder::collecting();
        let all_cached = explore_instrumented(
            &train_data,
            &test_data,
            &full,
            &CellLibrary::egfet(),
            &AnalogModel::egfet(),
            &AnalysisConfig::printed_20hz(),
            &recorder,
            None,
        );
        let snap = sink.snapshot();
        assert_eq!(snap.counter(keys::SWEEP_CHECKPOINT_HITS), 9);
        assert_eq!(snap.counter(keys::TREES_TRAINED), 0);
        assert_eq!(all_cached, fresh);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_another_dataset_is_not_resumed() {
        let path = std::env::temp_dir().join(format!(
            "printed-ckpt-foreign-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&path);
        let config = ExplorationConfig::quick().with_checkpoint(&path_str);

        // Same grid and seed, other data: every key of the Vertebral-2C
        // checkpoint matches a Vertebral-3C grid point, none may resume.
        let (train_2c, test_2c) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        explore(&train_2c, &test_2c, &config);
        let (train_3c, test_3c) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let (recorder, sink) = Recorder::collecting();
        let resumed = explore_instrumented(
            &train_3c,
            &test_3c,
            &config,
            &CellLibrary::egfet(),
            &AnalogModel::egfet(),
            &AnalysisConfig::printed_20hz(),
            &recorder,
            None,
        );
        assert_eq!(sink.snapshot().counter(keys::SWEEP_CHECKPOINT_HITS), 0);
        let fresh = explore(&train_3c, &test_3c, &ExplorationConfig::quick());
        assert_eq!(resumed, fresh);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fan_out_returns_results_in_task_order() {
        // Skewed costs, forced: with more than one worker, task 0 finishes
        // only after every other task has, so results complete out of
        // task order and must still come back in it.
        let tasks: Vec<usize> = (0..24).collect();
        let expected: Vec<usize> = tasks.iter().map(|t| t * t).collect();
        for threads in [1, 2, 3, 8] {
            let finished = AtomicUsize::new(0);
            let results = fan_out(&tasks, Some(threads), |&task| {
                if task == 0 && threads > 1 {
                    while finished.load(Ordering::SeqCst) < tasks.len() - 1 {
                        std::thread::yield_now();
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
                task * task
            });
            assert_eq!(results, expected, "{threads} threads");
        }
    }

    #[test]
    fn fan_out_handles_more_threads_than_tasks_and_no_tasks() {
        assert_eq!(fan_out(&[3_u32, 1], Some(16), |&t| t + 1), vec![4, 2]);
        let calls = AtomicUsize::new(0);
        let none: Vec<u32> = fan_out(&[] as &[u32], Some(4), |&t| {
            calls.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert!(none.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }
}
