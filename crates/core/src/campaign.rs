//! Unified robustness campaigns: faults + mismatch + supply droop.
//!
//! The paper selects designs on nominal accuracy alone; printed
//! fabrication yield and EGFET drift make that optimistic. This module
//! composes the three variation analyses the workspace already models —
//! single stuck-at faults ([`crate::robustness`]), ladder/comparator
//! mismatch Monte Carlo ([`crate::mismatch`]), and a harvester
//! supply-droop scan built on [`printed_pdk::harvester::Harvester`] —
//! into one [`RobustnessProfile`] per sweep candidate, fanned out across
//! threads, so [`Exploration::select_robust`] can pick the cheapest design
//! that is *actually expected to work* off the printer.
//!
//! ```no_run
//! use printed_codesign::campaign::{RobustnessCampaign, RobustnessConstraints};
//! use printed_codesign::explore::{explore, ExplorationConfig};
//! use printed_datasets::Benchmark;
//! use printed_telemetry::Recorder;
//!
//! let (train_q, test_q) = Benchmark::Seeds.load_quantized(4)?;
//! let (_, test_analog) = Benchmark::Seeds.load_split()?;
//! let sweep = explore(&train_q, &test_q, &ExplorationConfig::quick());
//! let campaign = RobustnessCampaign::quick();
//! let outcome = campaign.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
//! let robust = sweep.select_robust(0.05, &outcome, &RobustnessConstraints::default());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```
//!
//! [`Exploration::select_robust`]: crate::explore::Exploration::select_robust

use std::borrow::Cow;

use printed_analog::MismatchModel;
use printed_datasets::{Dataset, QuantizedDataset, ThermometerPlanes};
use printed_dtree::DecisionTree;
use printed_pdk::harvester::Harvester;
use printed_pdk::AnalogModel;
use printed_telemetry::{keys, FieldValue, Recorder};

use crate::checkpoint::{Fingerprint, Journal, RobustCheckpointLine};
use crate::explore::{fan_out, CandidateDesign, Exploration};
use crate::mismatch::{AnalogColumns, MismatchTrialStream, MismatchTrials, PackedAnalogTree};
use crate::robustness::classifier_fault_robustness;

/// Comparator-threshold drift as the harvester's storage capacitor sags.
///
/// A ratiometric ladder ideally tracks the supply, but printed references
/// leak a fraction of the sag into the effective thresholds, and EGFET
/// comparators pick up a systematic input-referred offset as headroom
/// shrinks. Both effects are modeled in normalized full-scale units: at
/// relative sag `s` (`0` = full storage voltage, [`max_sag`] = the
/// harvester's minimum operating voltage), a nominal threshold `t`
/// becomes `t·(1 − vref_leak·s) − offset_per_sag·s`.
///
/// [`max_sag`]: SupplyDroopModel::max_sag
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyDroopModel {
    /// The harvester whose storage swing bounds the sag range.
    pub harvester: Harvester,
    /// Fraction of the relative sag that leaks into the reference ladder
    /// (0 = perfectly ratiometric, 1 = thresholds sag with the supply).
    pub vref_leak: f64,
    /// Systematic comparator offset per unit of relative sag, as a
    /// fraction of full scale.
    pub offset_per_sag: f64,
    /// Number of sag steps scanned between 0 and [`max_sag`].
    ///
    /// [`max_sag`]: SupplyDroopModel::max_sag
    pub steps: usize,
    /// Accuracy loss (vs. the nominal analog accuracy) still counted as
    /// "operating" when computing the margin.
    pub tolerance: f64,
}

impl SupplyDroopModel {
    /// Printed defaults: the paper's 2 mW harvester (1.0 → 0.6 V swing),
    /// 12% reference leak, 4%-of-full-scale offset per unit sag, 8 scan
    /// steps, 2% accuracy tolerance.
    ///
    /// The leak and offset coefficients are calibrated against measured
    /// EGFET supply sensitivities rather than guessed round numbers: an
    /// EGFET inverter's trip point tracks the rail imperfectly (≈50 mV
    /// shift over the harvester's 0.4 V swing ⇒ ~12% of the relative sag
    /// leaks into a nominally ratiometric reference), and the
    /// comparator's shrinking headroom adds an input-referred offset of
    /// ≈16 mV at full sag on a 1 V full scale (0.4 relative sag ×
    /// 4%/unit-sag). DESIGN.md §6 derives both values and cites the
    /// EGFET literature behind them.
    pub fn printed_default() -> Self {
        Self {
            harvester: Harvester::printed_default(),
            vref_leak: 0.12,
            offset_per_sag: 0.04,
            steps: 8,
            tolerance: 0.02,
        }
    }

    /// Largest relative sag the load survives electrically:
    /// `1 − V_min/V_full`.
    pub fn max_sag(&self) -> f64 {
        1.0 - self.harvester.min_voltage.volts() / self.harvester.full_voltage.volts()
    }

    /// The droop margin: the largest relative sag (scanned in
    /// [`steps`](Self::steps) increments up to [`max_sag`](Self::max_sag))
    /// at which `tree`'s accuracy on the analog `test` split stays within
    /// [`tolerance`](Self::tolerance) of `nominal`. `0.0` means the design
    /// only works at full storage voltage; the scan stops at the first
    /// failing step (margins are reported conservatively, not for
    /// non-monotone recoveries deeper into the sag).
    pub fn margin(&self, tree: &DecisionTree, test: &Dataset, nominal: f64) -> f64 {
        let columns = AnalogColumns::new(test, tree.used_features());
        self.margin_packed(
            &mut PackedAnalogTree::new(tree, &columns),
            &columns,
            nominal,
        )
    }

    /// [`margin`](Self::margin) of a tree already compiled against its
    /// test split's columns.
    fn margin_packed(
        &self,
        packed: &mut PackedAnalogTree,
        columns: &AnalogColumns,
        nominal: f64,
    ) -> f64 {
        let max_sag = self.max_sag();
        let nominal_thresholds = packed.nominal_thresholds().to_vec();
        let mut thresholds = nominal_thresholds.clone();
        let mut margin = 0.0;
        for step in 1..=self.steps {
            let sag = max_sag * step as f64 / self.steps as f64;
            for (t, &nominal_t) in thresholds.iter_mut().zip(&nominal_thresholds) {
                *t = nominal_t * (1.0 - self.vref_leak * sag) - self.offset_per_sag * sag;
            }
            let accuracy = packed.accuracy(columns, &thresholds);
            if accuracy >= nominal - self.tolerance - 1e-12 {
                margin = sag;
            } else {
                break;
            }
        }
        margin
    }
}

impl Default for SupplyDroopModel {
    fn default() -> Self {
        Self::printed_default()
    }
}

/// One candidate's composite robustness picture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessProfile {
    /// Accuracy with ideal thresholds on the analog test split.
    pub nominal: f64,
    /// Mean accuracy over the mismatch Monte-Carlo trials.
    pub mean_under_mismatch: f64,
    /// Worst mismatch trial.
    pub min_under_mismatch: f64,
    /// Accuracy under the most damaging single stuck-at fault (scored on
    /// the quantized test split).
    pub worst_single_fault: f64,
    /// Fraction of single faults that left accuracy unchanged.
    pub benign_fault_fraction: f64,
    /// Largest relative supply sag the design tolerates (see
    /// [`SupplyDroopModel::margin`]).
    pub droop_margin: f64,
    /// Fraction of mismatch trials within the campaign's
    /// [`yield_loss`](RobustnessCampaign::yield_loss) of nominal — the
    /// parametric-yield estimate.
    pub yield_estimate: f64,
}

impl RobustnessProfile {
    /// The accuracy robust selection constrains: mean under mismatch, the
    /// expected off-the-printer accuracy.
    pub fn robust_accuracy(&self) -> f64 {
        self.mean_under_mismatch
    }
}

/// A sweep candidate's robustness profile, keyed by its grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRobustness {
    /// Gini slack of the profiled candidate.
    pub tau: f64,
    /// Depth cap of the profiled candidate.
    pub depth: usize,
    /// The composite profile.
    pub profile: RobustnessProfile,
    /// Monte-Carlo trials actually consumed for this candidate (equal to
    /// the campaign budget for exhaustive runs; smaller when the adaptive
    /// early exit settled the decision sooner; `0` for constant trees).
    pub trials_spent: usize,
}

/// All profiles of one campaign run, in the sweep's `(depth, tau)` order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignOutcome {
    /// One profile per profiled sweep candidate.
    pub profiles: Vec<CandidateRobustness>,
    /// Grid points the probe pre-pass ruled out before any Monte-Carlo
    /// trial, in the sweep's order. Empty for exhaustive campaigns.
    pub pruned: Vec<PrunedPoint>,
    /// Total Monte-Carlo trials the campaign consumed, including trials
    /// restored from a checkpoint (the logical campaign's spend).
    pub trials_spent: u64,
    /// Trials an exhaustive campaign at the same per-candidate budget
    /// would have consumed (profiled + pruned non-constant candidates ×
    /// budget) — the denominator for the adaptive savings.
    pub trials_budget: u64,
}

impl CampaignOutcome {
    /// Looks up the profile of grid point `(tau, depth)` (exact τ match).
    pub fn profile_for(&self, tau: f64, depth: usize) -> Option<&RobustnessProfile> {
        self.profiles
            .iter()
            .find(|p| p.depth == depth && p.tau.to_bits() == tau.to_bits())
            .map(|p| &p.profile)
    }
}

/// Extra admission constraints for robust selection; `None` fields are
/// unconstrained. The default admits everything (the robust-accuracy
/// floor in [`Exploration::select_robust`] still applies).
///
/// [`Exploration::select_robust`]: crate::explore::Exploration::select_robust
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustnessConstraints {
    /// Minimum parametric-yield estimate.
    pub min_yield: Option<f64>,
    /// Minimum accuracy under the worst single fault.
    pub min_worst_fault: Option<f64>,
    /// Minimum supply-droop margin (relative sag).
    pub min_droop_margin: Option<f64>,
}

impl RobustnessConstraints {
    /// True when `profile` satisfies every set constraint.
    ///
    /// A NaN yield estimate marks a profile whose Monte-Carlo evidence is
    /// missing or failed (empty trial set): it is rejected outright, even
    /// when no yield bound is set. Constrained comparisons go through
    /// `total_cmp` with an explicit NaN reject — `total_cmp` alone would
    /// rank NaN *above* every bound.
    pub fn admits(&self, profile: &RobustnessProfile) -> bool {
        if profile.yield_estimate.is_nan() {
            return false;
        }
        let meets = |bound: Option<f64>, value: f64| match bound {
            Some(min) => !value.is_nan() && value.total_cmp(&(min - 1e-12)).is_ge(),
            None => true,
        };
        meets(self.min_yield, profile.yield_estimate)
            && meets(self.min_worst_fault, profile.worst_single_fault)
            && meets(self.min_droop_margin, profile.droop_margin)
    }
}

/// Budget and early-exit policy for the Monte-Carlo stage of an adaptive
/// campaign (attach with [`RobustnessCampaign::budgeted`]).
///
/// The sequential decision treats every candidate as a hypothetical
/// exhaustive campaign of [`trials_max`](Self::trials_max) trials and,
/// after a 4-trial warm-up, stops as soon as completion bounds prove the
/// candidate's admit/reject outcome — the conjunction of the
/// [`constraints`](Self::constraints) and the
/// [`robust_floor`](Self::robust_floor) — cannot change with the
/// remaining trials. Because the Monte-Carlo RNG is consumed strictly
/// per-trial (see [`crate::mismatch::MismatchTrialStream`]), a budgeted
/// run observes an exact prefix of the exhaustive accuracy stream; the
/// bounds are worst-case over every completion of that prefix, so
/// admit/reject decisions — and hence [`Exploration::select_robust`] —
/// agree with the exhaustive campaign *exactly*, while spending fewer
/// trials.
///
/// [`Exploration::select_robust`]: crate::explore::Exploration::select_robust
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBudget {
    /// Hard per-candidate Monte-Carlo budget — the exhaustive campaign the
    /// sequential decisions are proved against, and the worst-case spend
    /// when nothing is decidable (exact-mode fallback).
    pub trials_max: usize,
    /// Admission constraints the early exit decides against. These must
    /// match the constraints later given to `select_robust` — deciding
    /// against weaker constraints would surrender the agreement guarantee.
    pub constraints: RobustnessConstraints,
    /// The robust-accuracy floor selection will apply
    /// (`reference_accuracy − max_loss`). When set, the mean-accuracy term
    /// can settle early; when `None` an admit can never be certified and
    /// only certain rejects (yield or deterministic metrics) exit early.
    pub robust_floor: Option<f64>,
    /// Enable the cheap-probe pre-pass: candidates whose deterministic
    /// droop margin already violates the constraints, or whose nominal
    /// accuracy sits below the floor, are pruned before any Monte-Carlo
    /// trial. Pruned points are recorded in
    /// [`CampaignOutcome::pruned`] and as
    /// [`keys::ROBUST_PRUNED_EVENT`]s — never silently skipped. The droop
    /// rule is exact (the margin is deterministic); the nominal rule
    /// additionally assumes mismatch never *raises* mean accuracy above
    /// nominal, which holds for zero-mean threshold perturbations in
    /// practice and is auditable through the recorded nominal.
    pub probe: bool,
}

impl AdaptiveBudget {
    /// A budget of `trials_max` with unconstrained admission, no floor,
    /// and no probe.
    /// With nothing to decide it never exits early: it is the exhaustive
    /// `trials_max`-trial campaign.
    pub fn new(trials_max: usize) -> Self {
        Self {
            trials_max,
            constraints: RobustnessConstraints::default(),
            robust_floor: None,
            probe: false,
        }
    }

    /// Sets the admission constraints the early exit decides against.
    pub fn with_constraints(mut self, constraints: RobustnessConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the robust-accuracy floor (`reference_accuracy − max_loss`).
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.robust_floor = Some(floor);
        self
    }

    /// Enables the cheap-probe pre-pass.
    pub fn with_probe(mut self) -> Self {
        self.probe = true;
        self
    }
}

/// Why the probe pre-pass pruned a grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// Nominal accuracy already sits below the robust-accuracy floor.
    NominalBelowFloor,
    /// The deterministic droop margin already violates the constraints.
    DroopMargin,
}

impl PruneReason {
    /// Stable lowercase tag used in traces and checkpoints.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::NominalBelowFloor => "nominal",
            Self::DroopMargin => "droop",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse_tag(tag: &str) -> Option<Self> {
        match tag {
            "nominal" => Some(Self::NominalBelowFloor),
            "droop" => Some(Self::DroopMargin),
            _ => None,
        }
    }
}

/// A grid point the probe pre-pass ruled out before any Monte-Carlo
/// trial. Pruned points carry the deterministic evidence that excluded
/// them, so a trace reader can audit every skip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedPoint {
    /// Gini slack of the pruned grid point.
    pub tau: f64,
    /// Depth cap of the pruned grid point.
    pub depth: usize,
    /// Which probe rule fired.
    pub reason: PruneReason,
    /// Nominal accuracy on the analog test split.
    pub nominal: f64,
    /// Deterministic droop margin, when the probe got far enough to
    /// compute it (`None` when the nominal rule fired first).
    pub droop_margin: Option<f64>,
}

/// Monte-Carlo trials every non-constant candidate runs before any early
/// exit (clamped to the budget).
const WARMUP_TRIALS: usize = 4;

/// Exact completion bounds on the *budget-`n` empirical mean* of a
/// `[0, 1]` statistic after observing the first `k` trials summing to
/// `sum`: every remaining trial pessimal (`0`) or optimal (`1`). A
/// decision taken against them holds for the exhaustive campaign with
/// certainty. The yield term passes its success count as `sum`.
fn completion_bounds(sum: f64, k: usize, n: usize) -> (f64, f64) {
    let n_f = n as f64;
    let rest = n_f - k as f64;
    (sum / n_f, (sum + rest) / n_f)
}

/// The campaign runner: per sweep candidate, a full stuck-at fault sweep,
/// a mismatch Monte Carlo, and a supply-droop scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessCampaign {
    /// Printing-variation model for the Monte Carlo.
    pub mismatch: MismatchModel,
    /// Monte-Carlo trials per candidate.
    pub trials: usize,
    /// Base RNG seed (each candidate derives its own, by grid point, so
    /// the outcome is independent of thread count and sweep order).
    pub seed: u64,
    /// The supply-droop model.
    pub droop: SupplyDroopModel,
    /// Accuracy loss tolerated when counting a mismatch trial as yielding.
    pub yield_loss: f64,
    /// Budget-aware sequential early exit and probe pruning. `None` (the
    /// default) runs the classic exhaustive campaign: exactly
    /// [`trials`](Self::trials) Monte-Carlo trials for every candidate.
    pub adaptive: Option<AdaptiveBudget>,
    /// Appends each finished grid point to this NDJSON file (kind
    /// `robust_ckpt`) and restores the points it already holds instead of
    /// re-profiling them, so a killed campaign resumes mid-grid with a
    /// bit-identical outcome. After a fully successful run the file is
    /// compacted to one line per grid point. Lines written under a
    /// different [`checkpoint_stamp`](Self::checkpoint_stamp), other test
    /// splits or another sweep's trees are ignored. Not part of the stamp.
    ///
    /// [`run_with`](Self::run_with) panics with `cannot open checkpoint
    /// file <path>: <err>` when the file cannot be opened for append,
    /// before any candidate is profiled.
    pub checkpoint_path: Option<String>,
}

impl RobustnessCampaign {
    /// Typical printed conditions: 5%/15 mV mismatch, 50 trials per
    /// candidate, printed droop defaults, 5% yield tolerance.
    pub fn typical() -> Self {
        Self {
            mismatch: MismatchModel::typical_printed(),
            trials: 50,
            seed: 0xB0B,
            droop: SupplyDroopModel::printed_default(),
            yield_loss: 0.05,
            adaptive: None,
            checkpoint_path: None,
        }
    }

    /// A reduced Monte-Carlo budget for quick runs, smoke tests, and CI.
    pub fn quick() -> Self {
        Self {
            trials: 8,
            ..Self::typical()
        }
    }

    /// Attaches an adaptive budget: per-candidate Monte Carlo is capped at
    /// `adaptive.trials_max` and exits early once the sequential bounds
    /// decide the candidate (see [`AdaptiveBudget`]).
    pub fn budgeted(mut self, adaptive: AdaptiveBudget) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// The per-candidate Monte-Carlo budget: `trials_max` when adaptive,
    /// [`trials`](Self::trials) otherwise.
    pub fn trial_budget(&self) -> usize {
        self.adaptive.map_or(self.trials, |a| a.trials_max)
    }

    /// Fails fast on a malformed campaign.
    ///
    /// # Panics
    ///
    /// Panics if `trials` (or an adaptive budget's `trials_max`) is 0,
    /// `yield_loss` is negative or non-finite, the droop scan has no
    /// steps, or the harvester's voltage swing is inverted.
    pub fn validate(&self) {
        assert!(
            self.trials > 0,
            "robustness campaign needs at least one Monte-Carlo trial"
        );
        assert!(
            self.yield_loss.is_finite() && self.yield_loss >= 0.0,
            "yield_loss must be a non-negative finite fraction, got {}",
            self.yield_loss
        );
        assert!(self.droop.steps >= 1, "droop scan needs at least one step");
        assert!(
            self.droop.harvester.min_voltage.volts() < self.droop.harvester.full_voltage.volts(),
            "harvester voltage swing is inverted"
        );
        if let Some(adaptive) = &self.adaptive {
            assert!(
                adaptive.trials_max > 0,
                "adaptive budget needs at least one Monte-Carlo trial"
            );
        }
    }

    /// Stamp identifying every parameter that shapes a campaign's
    /// per-candidate results — seed, budget, yield tolerance, mismatch and
    /// droop models, and the full adaptive policy. Robustness checkpoints
    /// carry this stamp so a file written under any different
    /// configuration is re-evaluated rather than trusted.
    pub fn checkpoint_stamp(&self) -> u64 {
        let mut stamp = self.seed;
        let mut mix = |bits: u64| {
            stamp = stamp
                .rotate_left(7)
                .wrapping_add(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        };
        mix(self.trial_budget() as u64);
        mix(self.yield_loss.to_bits());
        mix(self.mismatch.resistor_sigma_rel.to_bits());
        mix(self.mismatch.comparator_offset_sigma_v.to_bits());
        mix(self.droop.vref_leak.to_bits());
        mix(self.droop.offset_per_sag.to_bits());
        mix(self.droop.steps as u64);
        mix(self.droop.tolerance.to_bits());
        mix(self.droop.harvester.min_voltage.volts().to_bits());
        mix(self.droop.harvester.full_voltage.volts().to_bits());
        match &self.adaptive {
            None => mix(0),
            Some(a) => {
                mix(1);
                // The warm-up and the exact bounds' former confidence
                // (1.0) stay in the stamp, so older checkpoints resume.
                mix(WARMUP_TRIALS as u64);
                mix(1.0f64.to_bits());
                mix(a.robust_floor.map_or(u64::MAX, f64::to_bits));
                mix(u64::from(a.probe));
                mix(a.constraints.min_yield.map_or(u64::MAX, f64::to_bits));
                mix(a.constraints.min_worst_fault.map_or(u64::MAX, f64::to_bits));
                mix(a
                    .constraints
                    .min_droop_margin
                    .map_or(u64::MAX, f64::to_bits));
            }
        }
        stamp
    }

    /// Evaluates one grid point under `policy`: probe pruning, then the
    /// sequential Monte Carlo with early exit, resolved straight into its
    /// checkpoint record. The exhaustive campaign is the policy with
    /// nothing decidable — [`AdaptiveBudget::new`]`(trials)` — which runs
    /// every trial, so both share this one path.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_with_seed(
        &self,
        policy: &AdaptiveBudget,
        candidate: &CandidateDesign,
        test_planes: &ThermometerPlanes,
        columns: &AnalogColumns,
        analog: &AnalogModel,
        recorder: &Recorder,
        seed: u64,
    ) -> RobustCheckpointLine {
        let (tree, tau, depth) = (&candidate.tree, candidate.tau, candidate.depth);
        let profiled = |profile, trials_spent| {
            RobustCheckpointLine::Profiled(CandidateRobustness {
                tau,
                depth,
                profile,
                trials_spent,
            })
        };
        let pruned = |reason, nominal, droop_margin| {
            RobustCheckpointLine::Pruned(PrunedPoint {
                tau,
                depth,
                reason,
                nominal,
                droop_margin,
            })
        };
        // A constant tree has no thresholds to perturb: it yields by
        // construction and droops only at the electrical limit.
        if tree.split_count() == 0 {
            let faults = classifier_fault_robustness(&candidate.system.classifier, test_planes);
            recorder.add(keys::FAULTS_INJECTED, faults.fault_count as u64);
            let mut packed = PackedAnalogTree::new(tree, columns);
            let nominal = packed.accuracy(columns, &[]);
            let profile = RobustnessProfile {
                nominal,
                mean_under_mismatch: nominal,
                min_under_mismatch: nominal,
                worst_single_fault: faults.worst_accuracy,
                benign_fault_fraction: faults.benign_fraction,
                droop_margin: self.droop.margin_packed(&mut packed, columns, nominal),
                yield_estimate: 1.0,
            };
            return profiled(profile, 0);
        }

        // The stream computes the nominal accuracy up front without
        // consuming any RNG — the probe's first input.
        let mut stream = MismatchTrialStream::with_columns(
            tree,
            Cow::Borrowed(columns),
            &self.mismatch,
            seed,
            analog,
            recorder,
        );
        let nominal = stream.nominal();
        if policy.probe {
            if let Some(floor) = policy.robust_floor {
                if nominal < floor - 1e-12 {
                    return pruned(PruneReason::NominalBelowFloor, nominal, None);
                }
            }
        }
        let (packed, columns) = stream.scorer();
        let droop_margin = self.droop.margin_packed(packed, columns, nominal);
        if policy.probe {
            if let Some(min_droop) = policy.constraints.min_droop_margin {
                if droop_margin < min_droop - 1e-12 {
                    return pruned(PruneReason::DroopMargin, nominal, Some(droop_margin));
                }
            }
        }

        let faults = classifier_fault_robustness(&candidate.system.classifier, test_planes);
        recorder.add(keys::FAULTS_INJECTED, faults.fault_count as u64);
        // Deterministic metrics gate exactly: a violated droop or
        // worst-fault bound already proves the reject, so the Monte Carlo
        // only needs the warm-up trials for a reportable mean/yield
        // estimate.
        let meets = |bound: Option<f64>, value: f64| bound.is_none_or(|min| value >= min - 1e-12);
        let rejected_deterministically = !meets(policy.constraints.min_droop_margin, droop_margin)
            || !meets(policy.constraints.min_worst_fault, faults.worst_accuracy);

        let n = policy.trials_max;
        let warmup = WARMUP_TRIALS.clamp(1, n);
        let mut accuracies: Vec<f64> = Vec::with_capacity(n);
        let mut successes = 0usize;
        let mut sum = 0.0;
        let yield_floor = nominal - self.yield_loss - 1e-12;
        for k in 1..=n {
            let accuracy = stream.next_accuracy();
            if accuracy >= yield_floor {
                successes += 1;
            }
            sum += accuracy;
            accuracies.push(accuracy);
            if k < warmup || k == n {
                continue;
            }
            if rejected_deterministically {
                break;
            }
            // Sequential decision: stop once the admit/reject conjunction
            // is settled for every completion the bounds still allow.
            let yield_term = policy
                .constraints
                .min_yield
                .map_or(TermStatus::Pass, |min| {
                    TermStatus::of(completion_bounds(successes as f64, k, n), min)
                });
            if yield_term == TermStatus::Fail {
                break;
            }
            // Without a floor an admit can never be certified — the
            // exact-mode fallback runs the remaining budget.
            let mean_term = policy.robust_floor.map_or(TermStatus::Open, |floor| {
                TermStatus::of(completion_bounds(sum, k, n), floor)
            });
            if mean_term == TermStatus::Fail
                || (mean_term == TermStatus::Pass && yield_term == TermStatus::Pass)
            {
                break;
            }
        }

        let trials_spent = accuracies.len();
        let trials = MismatchTrials {
            nominal,
            accuracies,
        };
        let report = trials.report();
        let profile = RobustnessProfile {
            nominal,
            mean_under_mismatch: report.mean,
            min_under_mismatch: report.min,
            worst_single_fault: faults.worst_accuracy,
            benign_fault_fraction: faults.benign_fraction,
            droop_margin,
            yield_estimate: trials.yield_within(self.yield_loss),
        };
        profiled(profile, trials_spent)
    }

    /// Runs the campaign over every candidate of `sweep` with default
    /// EGFET analog technology.
    pub fn run(
        &self,
        sweep: &Exploration,
        test_q: &QuantizedDataset,
        test_analog: &Dataset,
        recorder: &Recorder,
    ) -> CampaignOutcome {
        self.run_with(sweep, test_q, test_analog, &AnalogModel::egfet(), recorder)
    }

    /// [`run`](Self::run) under an explicit analog model. Candidates are
    /// profiled in parallel on the sweep's work-stealing fan-out (one
    /// worker per available core pulls the next candidate as it frees up),
    /// each under a [`keys::ROBUST_SPAN`] carrying its grid point and
    /// profile; per-candidate derived seeds keep the outcome identical for
    /// any thread count. Checkpoints to
    /// [`checkpoint_path`](Self::checkpoint_path) when it is set.
    ///
    /// The fault leg reads what the sweep built: it scores each
    /// candidate's synthesized classifier (`candidate.system.classifier`)
    /// on test planes built once per run, instead of re-deriving either
    /// per candidate.
    ///
    /// # Panics
    ///
    /// Panics if the campaign is malformed (see [`validate`](Self::validate))
    /// or a candidate is evaluated on a `test_q` that is empty or narrower
    /// than its tree.
    pub fn run_with(
        &self,
        sweep: &Exploration,
        test_q: &QuantizedDataset,
        test_analog: &Dataset,
        analog: &AnalogModel,
        recorder: &Recorder,
    ) -> CampaignOutcome {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

        self.validate();
        let candidates = &sweep.candidates;
        let journal = self.checkpoint_path.as_deref().map(|path| {
            let print = Fingerprint::new(self.checkpoint_stamp())
                .quantized(test_q)
                .analog(test_analog);
            let stamp = candidates
                .iter()
                .fold(print, |print, candidate| print.tree(&candidate.tree))
                .finish();
            Journal::<RobustCheckpointLine>::open(path, stamp)
        });

        // Every worker scores against one set of sorted test columns and
        // faults against one set of test planes.
        let test_planes = ThermometerPlanes::new(test_q);
        let columns = AnalogColumns::new(
            test_analog,
            candidates
                .iter()
                .flat_map(|candidate| candidate.tree.used_features()),
        );
        let total = candidates.len();
        let done = AtomicUsize::new(0);
        let trials_running = AtomicU64::new(0);
        let pruned_running = AtomicUsize::new(0);
        let evaluations = fan_out(candidates, None, |candidate| {
            let key = (candidate.depth, candidate.tau.to_bits());
            let line = match journal.as_ref().and_then(|journal| journal.restored(key)) {
                Some(line) => {
                    recorder.add(keys::ROBUST_CHECKPOINT_HITS, 1);
                    line.clone()
                }
                None => {
                    let line = self.evaluate_candidate(
                        candidate,
                        &test_planes,
                        &columns,
                        analog,
                        recorder,
                    );
                    if let Some(journal) = &journal {
                        journal.append(&line);
                    }
                    line
                }
            };
            match &line {
                RobustCheckpointLine::Profiled(row) => {
                    trials_running.fetch_add(row.trials_spent as u64, Ordering::Relaxed);
                }
                RobustCheckpointLine::Pruned(_) => {
                    pruned_running.fetch_add(1, Ordering::Relaxed);
                }
            }
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            recorder.event(
                keys::ROBUST_PROGRESS_EVENT,
                vec![
                    ("done".to_owned(), FieldValue::U64(finished as u64)),
                    ("total".to_owned(), FieldValue::U64(total as u64)),
                    (
                        "trials".to_owned(),
                        FieldValue::U64(trials_running.load(Ordering::Relaxed)),
                    ),
                    (
                        "pruned".to_owned(),
                        FieldValue::U64(pruned_running.load(Ordering::Relaxed) as u64),
                    ),
                ],
            );
            line
        });

        if let Some(journal) = journal {
            // Every grid point finished: compact to one line per point so
            // repeated resume cycles keep the file bounded.
            journal.compact(&evaluations);
        }

        let budget = self.trial_budget() as u64;
        let mut outcome = CampaignOutcome::default();
        for (line, candidate) in evaluations.into_iter().zip(candidates) {
            if candidate.tree.split_count() > 0 {
                outcome.trials_budget += budget;
            }
            match line {
                RobustCheckpointLine::Profiled(row) => {
                    outcome.trials_spent += row.trials_spent as u64;
                    outcome.profiles.push(row);
                }
                RobustCheckpointLine::Pruned(point) => outcome.pruned.push(point),
            }
        }
        recorder.add(keys::ROBUST_TRIALS_SPENT, outcome.trials_spent);
        recorder.add(keys::ROBUST_TRIALS_BUDGET, outcome.trials_budget);
        outcome
    }

    /// Evaluates one sweep candidate under its span/events, returning the
    /// checkpoint-shaped record that both the persistence layer and the
    /// outcome assembly consume.
    fn evaluate_candidate(
        &self,
        candidate: &CandidateDesign,
        test_planes: &ThermometerPlanes,
        columns: &AnalogColumns,
        analog: &AnalogModel,
        recorder: &Recorder,
    ) -> RobustCheckpointLine {
        // Same collision-free per-grid-point derivation as the explorer,
        // off the campaign's own base seed.
        let seed = crate::explore::point_seed(self.seed, candidate.depth, candidate.tau);
        let span = recorder
            .span(keys::ROBUST_SPAN)
            .field("depth", candidate.depth)
            .field("tau", candidate.tau);
        let policy = self
            .adaptive
            .unwrap_or_else(|| AdaptiveBudget::new(self.trials));
        let line = self.evaluate_with_seed(
            &policy,
            candidate,
            test_planes,
            columns,
            analog,
            recorder,
            seed,
        );
        match &line {
            RobustCheckpointLine::Profiled(row) => {
                let profile = &row.profile;
                span.field("nominal", profile.nominal)
                    .field("mean_mismatch", profile.mean_under_mismatch)
                    .field("worst_fault", profile.worst_single_fault)
                    .field("droop_margin", profile.droop_margin)
                    .field("yield_est", profile.yield_estimate)
                    .field("trials_spent", row.trials_spent as u64)
                    .finish();
            }
            RobustCheckpointLine::Pruned(point) => {
                span.field("pruned", point.reason.as_str().to_owned())
                    .field("nominal", point.nominal)
                    .finish();
                let mut fields = vec![
                    ("depth".to_owned(), FieldValue::U64(point.depth as u64)),
                    ("tau".to_owned(), FieldValue::F64(point.tau)),
                    (
                        "reason".to_owned(),
                        FieldValue::Str(point.reason.as_str().to_owned()),
                    ),
                    ("nominal".to_owned(), FieldValue::F64(point.nominal)),
                ];
                if let Some(droop) = point.droop_margin {
                    fields.push(("droop_margin".to_owned(), FieldValue::F64(droop)));
                }
                recorder.event(keys::ROBUST_PRUNED_EVENT, fields);
                recorder.add(keys::ROBUST_PRUNED, 1);
            }
        }
        line
    }
}

/// Tri-state of one admission term under the running sequential bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermStatus {
    Pass,
    Fail,
    Open,
}

impl TermStatus {
    /// Settles a `value >= min` term whose value lies within `(lo, hi)`.
    fn of((lo, hi): (f64, f64), min: f64) -> Self {
        if hi < min - 1e-12 {
            Self::Fail
        } else if lo >= min - 1e-12 {
            Self::Pass
        } else {
            Self::Open
        }
    }
}

impl Default for RobustnessCampaign {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExplorationConfig};
    use crate::mismatch::AnalogTree;
    use printed_datasets::Benchmark;

    fn small_sweep() -> (Exploration, QuantizedDataset, Dataset) {
        let (train_q, test_q) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, test_analog) = Benchmark::Seeds.load_split().unwrap();
        let sweep = explore(
            &train_q,
            &test_q,
            &ExplorationConfig {
                taus: vec![0.0, 0.01],
                depths: vec![2, 4],
                ..ExplorationConfig::quick()
            },
        );
        (sweep, test_q, test_analog)
    }

    #[test]
    fn campaign_profiles_every_candidate_with_sane_bounds() {
        let (sweep, test_q, test_analog) = small_sweep();
        let campaign = RobustnessCampaign::quick();
        let (recorder, sink) = Recorder::collecting();
        let outcome = campaign.run(&sweep, &test_q, &test_analog, &recorder);
        assert_eq!(outcome.profiles.len(), sweep.candidates.len());
        let max_sag = campaign.droop.max_sag();
        for row in &outcome.profiles {
            let p = &row.profile;
            assert!((0.0..=1.0).contains(&p.nominal));
            assert!(p.min_under_mismatch <= p.mean_under_mismatch + 1e-12);
            assert!((0.0..=1.0).contains(&p.yield_estimate));
            assert!((0.0..=1.0).contains(&p.benign_fault_fraction));
            assert!((-1e-12..=max_sag + 1e-12).contains(&p.droop_margin));
            assert!(p.worst_single_fault <= 1.0);
            // The sweep's candidate exists and is findable by grid point.
            assert!(outcome.profile_for(row.tau, row.depth).is_some());
        }
        let snap = sink.snapshot();
        assert_eq!(
            snap.spans_named(keys::ROBUST_SPAN).count(),
            sweep.candidates.len()
        );
        assert!(snap.counter(keys::FAULTS_INJECTED) > 0);
        assert!(snap.counter(keys::MC_TRIALS) > 0);
    }

    #[test]
    fn campaign_is_deterministic_across_runs() {
        let (sweep, test_q, test_analog) = small_sweep();
        let campaign = RobustnessCampaign::quick();
        let a = campaign.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        let b = campaign.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn select_robust_respects_constraints() {
        let (sweep, test_q, test_analog) = small_sweep();
        let campaign = RobustnessCampaign::quick();
        let outcome = campaign.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        // Unconstrained with a loose floor: something qualifies.
        let loose = sweep.select_robust(0.2, &outcome, &RobustnessConstraints::default());
        assert!(loose.is_some());
        let chosen = loose.unwrap();
        let profile = outcome.profile_for(chosen.tau, chosen.depth).unwrap();
        assert!(profile.robust_accuracy() >= sweep.reference_accuracy - 0.2 - 1e-9);
        // An impossible constraint admits nothing.
        let impossible = RobustnessConstraints {
            min_yield: Some(1.5),
            ..RobustnessConstraints::default()
        };
        assert!(sweep.select_robust(0.2, &outcome, &impossible).is_none());
        // An empty campaign profiles nothing, so nothing is admissible.
        assert!(sweep
            .select_robust(
                0.2,
                &CampaignOutcome::default(),
                &RobustnessConstraints::default()
            )
            .is_none());
    }

    #[test]
    fn droop_margin_shrinks_with_leakier_references() {
        let (sweep, _test_q, test_analog) = small_sweep();
        let tree = &sweep.most_accurate().unwrap().tree;
        let analog_tree = AnalogTree::new(tree);
        let nominal = analog_tree.accuracy(&test_analog, &analog_tree.nominal_thresholds());
        let mild = SupplyDroopModel::printed_default();
        let harsh = SupplyDroopModel {
            vref_leak: 0.9,
            offset_per_sag: 0.25,
            ..mild
        };
        let m_mild = mild.margin(tree, &test_analog, nominal);
        let m_harsh = harsh.margin(tree, &test_analog, nominal);
        assert!(
            m_harsh <= m_mild + 1e-12,
            "harsh {m_harsh} vs mild {m_mild}"
        );
        // Zero drift: the full electrical swing is usable.
        let ideal = SupplyDroopModel {
            vref_leak: 0.0,
            offset_per_sag: 0.0,
            ..mild
        };
        assert!((ideal.margin(tree, &test_analog, nominal) - ideal.max_sag()).abs() < 1e-12);
    }

    #[test]
    fn constant_tree_candidate_is_trivially_robust_and_spends_no_trials() {
        let (mut sweep, test_q, test_analog) = small_sweep();
        let campaign = RobustnessCampaign::quick();
        let base = campaign.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        let tree = DecisionTree::constant(4, test_q.n_features(), test_q.n_classes(), 0);
        sweep.candidates.push(CandidateDesign {
            tau: 0.0,
            depth: 1,
            test_accuracy: tree.accuracy(&test_q),
            system: crate::system::synthesize_unary(&tree),
            tree,
        });
        let outcome = campaign.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        let row = outcome.profiles.last().unwrap();
        assert_eq!((row.tau, row.depth), (0.0, 1));
        assert_eq!(row.profile.yield_estimate, 1.0);
        assert_eq!(row.profile.mean_under_mismatch, row.profile.nominal);
        assert!((row.profile.droop_margin - campaign.droop.max_sag()).abs() < 1e-12);
        assert_eq!(row.trials_spent, 0);
        // The constant candidate neither spends nor budgets a trial, and
        // leaves every other candidate's profile untouched.
        assert_eq!(outcome.trials_budget, base.trials_budget);
        assert_eq!(outcome.trials_spent, base.trials_spent);
        assert_eq!(outcome.profiles[..base.profiles.len()], base.profiles[..]);
    }

    #[test]
    #[should_panic(expected = "at least one Monte-Carlo trial")]
    fn zero_trials_fail_fast() {
        let campaign = RobustnessCampaign {
            trials: 0,
            ..RobustnessCampaign::quick()
        };
        campaign.validate();
    }

    #[test]
    fn admits_rejects_nan_profiles() {
        let sane = RobustnessProfile {
            nominal: 0.9,
            mean_under_mismatch: 0.88,
            min_under_mismatch: 0.8,
            worst_single_fault: 0.5,
            benign_fault_fraction: 0.7,
            droop_margin: 0.3,
            yield_estimate: 0.95,
        };
        assert!(RobustnessConstraints::default().admits(&sane));
        // A NaN yield marks a failed/empty trial set: never admissible,
        // even unconstrained — NaN must not satisfy ">= bound" by accident.
        let poisoned = RobustnessProfile {
            yield_estimate: f64::NAN,
            ..sane
        };
        assert!(!RobustnessConstraints::default().admits(&poisoned));
        let constrained = RobustnessConstraints {
            min_yield: Some(0.5),
            min_worst_fault: Some(0.1),
            min_droop_margin: Some(0.1),
        };
        assert!(!constrained.admits(&poisoned));
        // NaN in any bounded metric rejects rather than passing the bound.
        let nan_droop = RobustnessProfile {
            droop_margin: f64::NAN,
            ..sane
        };
        assert!(!constrained.admits(&nan_droop));
        assert!(RobustnessConstraints::default().admits(&RobustnessProfile {
            droop_margin: f64::NAN,
            ..sane
        }));
    }

    #[test]
    fn completion_bounds_are_exact() {
        // Every remaining trial pessimal, then every one optimal.
        let (lo, hi) = completion_bounds(3.0, 4, 10);
        assert!((lo - 0.3).abs() < 1e-12 && (hi - 0.9).abs() < 1e-12);
        let (lo, hi) = completion_bounds(2.0, 4, 10);
        assert!((lo - 0.2).abs() < 1e-12 && (hi - 0.8).abs() < 1e-12);
        // Fully observed: the interval collapses onto the estimate.
        let (lo, hi) = completion_bounds(6.0, 10, 10);
        assert!((lo - 0.6).abs() < 1e-12 && (hi - 0.6).abs() < 1e-12);
    }

    /// Checkpoint stamps are a persisted format: `.robust` files written
    /// by earlier builds must keep resuming, so these values never move.
    #[test]
    fn checkpoint_stamps_are_pinned() {
        assert_eq!(
            RobustnessCampaign::typical().checkpoint_stamp(),
            0x5e79_9e26_a45e_108c
        );
        let probed = RobustnessCampaign::quick()
            .budgeted(AdaptiveBudget::new(8).with_floor(0.8).with_probe());
        assert_eq!(probed.checkpoint_stamp(), 0xe3a0_326b_4ece_7213);
        let constrained = RobustnessCampaign::typical().budgeted(
            AdaptiveBudget::new(24).with_constraints(RobustnessConstraints {
                min_yield: Some(0.9),
                min_worst_fault: Some(0.5),
                min_droop_margin: Some(0.2),
            }),
        );
        assert_eq!(constrained.checkpoint_stamp(), 0x95bb_adca_3a3a_152e);
    }

    /// The adaptive guarantee: the budgeted campaign's admit/reject
    /// decisions — and hence `select_robust` — agree with the
    /// exhaustive campaign exactly, while spending measurably fewer
    /// Monte-Carlo trials.
    #[test]
    fn adaptive_budget_agrees_with_exhaustive_and_saves_trials() {
        // Depth 1 on three-class Seeds caps accuracy near 2/3 — far below
        // the floor, so the sequential bounds certify its reject within a
        // few trials while the viable depths run longer.
        let (train_q, test_q) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, test_analog) = Benchmark::Seeds.load_split().unwrap();
        let sweep = explore(
            &train_q,
            &test_q,
            &ExplorationConfig {
                taus: vec![0.0, 0.01],
                depths: vec![1, 2, 4],
                ..ExplorationConfig::quick()
            },
        );
        let exhaustive = RobustnessCampaign {
            trials: 16,
            ..RobustnessCampaign::quick()
        };
        let constraints = RobustnessConstraints {
            min_yield: Some(0.5),
            ..RobustnessConstraints::default()
        };
        let max_loss = 0.05;
        let floor = sweep.reference_accuracy - max_loss;
        let adaptive = exhaustive.clone().budgeted(
            AdaptiveBudget::new(16)
                .with_constraints(constraints)
                .with_floor(floor),
        );

        let full = exhaustive.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        let budgeted = adaptive.run(&sweep, &test_q, &test_analog, &Recorder::disabled());

        // No probe: every grid point is profiled in both runs.
        assert!(budgeted.pruned.is_empty());
        assert_eq!(budgeted.profiles.len(), full.profiles.len());
        for row in &full.profiles {
            let cheap = budgeted
                .profile_for(row.tau, row.depth)
                .expect("same grid points");
            let decide = |p: &RobustnessProfile| {
                p.robust_accuracy() >= floor - 1e-12 && constraints.admits(p)
            };
            assert_eq!(
                decide(&row.profile),
                decide(cheap),
                "decision flipped at τ={} depth={}",
                row.tau,
                row.depth
            );
            // The budgeted profile is a prefix estimate of the same stream.
            assert_eq!(row.profile.nominal, cheap.nominal);
            assert_eq!(row.profile.worst_single_fault, cheap.worst_single_fault);
            assert_eq!(row.profile.droop_margin, cheap.droop_margin);
        }
        // Identical selection on both outcomes.
        let pick_full = sweep.select_robust(max_loss, &full, &constraints);
        let pick_cheap = sweep.select_robust(max_loss, &budgeted, &constraints);
        assert_eq!(
            pick_full.map(|c| (c.tau, c.depth)),
            pick_cheap.map(|c| (c.tau, c.depth))
        );
        // And measurably fewer trials spent than budgeted.
        assert_eq!(budgeted.trials_budget, full.trials_spent);
        assert!(
            budgeted.trials_spent < budgeted.trials_budget,
            "early exit saved nothing: {} of {}",
            budgeted.trials_spent,
            budgeted.trials_budget
        );
    }

    /// Without a floor or a yield bound nothing is ever decidable, so the
    /// exact-mode fallback runs the full budget on every candidate.
    #[test]
    fn adaptive_without_decidable_terms_falls_back_to_full_budget() {
        let (sweep, test_q, test_analog) = small_sweep();
        let campaign = RobustnessCampaign::quick().budgeted(AdaptiveBudget::new(8));
        let outcome = campaign.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        assert_eq!(outcome.trials_spent, outcome.trials_budget);
        // ... and the outcome is bit-identical to the exhaustive campaign
        // at the same budget, minus the bookkeeping fields.
        let classic =
            RobustnessCampaign::quick().run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        for row in &classic.profiles {
            assert_eq!(
                outcome.profile_for(row.tau, row.depth),
                Some(&row.profile),
                "exact-mode profile diverged at τ={} depth={}",
                row.tau,
                row.depth
            );
        }
    }

    #[test]
    fn probe_prunes_hopeless_points_and_records_them() {
        let (sweep, test_q, test_analog) = small_sweep();
        // A floor above every achievable accuracy: the nominal probe
        // prunes every non-constant candidate before any trial.
        let campaign = RobustnessCampaign::quick()
            .budgeted(AdaptiveBudget::new(8).with_floor(1.5).with_probe());
        let (recorder, sink) = Recorder::collecting();
        let outcome = campaign.run(&sweep, &test_q, &test_analog, &recorder);
        assert!(!outcome.pruned.is_empty());
        assert_eq!(
            outcome.pruned.len() + outcome.profiles.len(),
            sweep.candidates.len(),
            "pruned points are recorded, never silently skipped"
        );
        for point in &outcome.pruned {
            assert_eq!(point.reason, PruneReason::NominalBelowFloor);
            assert!(point.nominal < 1.5);
            assert!(point.droop_margin.is_none());
        }
        // Pruned points consume no Monte-Carlo trials.
        assert_eq!(outcome.trials_spent, 0);
        assert!(outcome.trials_budget > 0);
        let snap = sink.snapshot();
        assert_eq!(
            snap.counter(keys::ROBUST_PRUNED),
            outcome.pruned.len() as u64
        );
        assert_eq!(
            snap.events_named(keys::ROBUST_PRUNED_EVENT).count(),
            outcome.pruned.len()
        );
        assert_eq!(snap.counter(keys::ROBUST_TRIALS_SPENT), 0);

        // An impossible droop bound fires the (exact) droop rule instead.
        let droop_gated = RobustnessCampaign::quick().budgeted(
            AdaptiveBudget::new(8)
                .with_constraints(RobustnessConstraints {
                    min_droop_margin: Some(10.0),
                    ..RobustnessConstraints::default()
                })
                .with_probe(),
        );
        let outcome = droop_gated.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        assert!(!outcome.pruned.is_empty());
        for point in &outcome.pruned {
            assert_eq!(point.reason, PruneReason::DroopMargin);
            assert!(point.droop_margin.is_some());
        }
    }

    /// Probe pruning must not change what selection admits: a pruned point
    /// would have been rejected by `select_robust` anyway.
    #[test]
    fn probe_pruning_preserves_selection() {
        let (sweep, test_q, test_analog) = small_sweep();
        let constraints = RobustnessConstraints {
            min_droop_margin: Some(0.2),
            ..RobustnessConstraints::default()
        };
        let max_loss = 0.05;
        let floor = sweep.reference_accuracy - max_loss;
        let base = RobustnessCampaign {
            trials: 16,
            ..RobustnessCampaign::quick()
        };
        let policy = AdaptiveBudget::new(16)
            .with_constraints(constraints)
            .with_floor(floor);
        let sequential = base.clone().budgeted(policy);
        let probed = base.clone().budgeted(policy.with_probe());
        let a = sequential.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        let b = probed.run(&sweep, &test_q, &test_analog, &Recorder::disabled());
        assert_eq!(
            sweep
                .select_robust(max_loss, &a, &constraints)
                .map(|c| (c.tau, c.depth)),
            sweep
                .select_robust(max_loss, &b, &constraints)
                .map(|c| (c.tau, c.depth))
        );
        assert!(b.trials_spent <= a.trials_spent);
    }

    #[test]
    fn campaign_checkpoint_survives_kill_and_resume() {
        let (sweep, test_q, test_analog) = small_sweep();
        let path = std::env::temp_dir().join(format!(
            "printed-robust-ckpt-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&path);
        let campaign = RobustnessCampaign {
            trials: 12,
            checkpoint_path: Some(path_str.clone()),
            ..RobustnessCampaign::quick()
        }
        .budgeted(
            AdaptiveBudget::new(12)
                .with_constraints(RobustnessConstraints {
                    min_yield: Some(0.5),
                    ..RobustnessConstraints::default()
                })
                .with_floor(sweep.reference_accuracy - 0.05),
        );
        let analog = AnalogModel::egfet();
        // Where the file lives does not shape the outcome.
        let unpersisted = RobustnessCampaign {
            checkpoint_path: None,
            ..campaign.clone()
        };
        assert_eq!(campaign.checkpoint_stamp(), unpersisted.checkpoint_stamp());

        let full = campaign.run_with(
            &sweep,
            &test_q,
            &test_analog,
            &analog,
            &Recorder::disabled(),
        );
        // After a clean finish the file is compacted: one line per point.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), sweep.candidates.len());

        // Simulate a mid-campaign kill: only the first two lines survive,
        // the last of them torn mid-write.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.truncate(3);
        let torn = &lines[2][..lines[2].len() / 2];
        let partial = format!("{}\n{}\n{}", lines[0], lines[1], torn);
        std::fs::write(&path, partial).unwrap();

        let (recorder, sink) = Recorder::collecting();
        let resumed = campaign.run_with(&sweep, &test_q, &test_analog, &analog, &recorder);
        assert_eq!(resumed, full, "resume must be bit-identical");
        // The two intact lines were restored, the torn one re-evaluated.
        assert_eq!(sink.snapshot().counter(keys::ROBUST_CHECKPOINT_HITS), 2);
        // And the file is compacted again after the resumed finish.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), sweep.candidates.len());

        // A different campaign configuration ignores the file wholesale.
        let reseeded = RobustnessCampaign {
            seed: 0xDEAD,
            ..campaign.clone()
        };
        let (recorder, sink) = Recorder::collecting();
        reseeded.run_with(&sweep, &test_q, &test_analog, &analog, &recorder);
        assert_eq!(sink.snapshot().counter(keys::ROBUST_CHECKPOINT_HITS), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_checkpoint_from_another_dataset_is_not_resumed() {
        let path = std::env::temp_dir().join(format!(
            "printed-robust-foreign-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&path);
        let campaign = RobustnessCampaign {
            trials: 4,
            ..RobustnessCampaign::quick()
        };
        let analog = AnalogModel::egfet();

        // Same campaign, same grid keys, Seeds' profiles on disk.
        let (seeds, seeds_q, seeds_analog) = small_sweep();
        let disabled = Recorder::disabled();
        let checkpointed = RobustnessCampaign {
            checkpoint_path: Some(path_str.clone()),
            ..campaign.clone()
        };
        let run = |campaign: &RobustnessCampaign, sweep, test_q, test_analog, recorder| {
            campaign.run_with(sweep, test_q, test_analog, &analog, recorder)
        };
        run(&checkpointed, &seeds, &seeds_q, &seeds_analog, &disabled);

        let (train_q, test_q) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let (_, test_analog) = Benchmark::Vertebral2C.load_split().unwrap();
        let config = ExplorationConfig {
            taus: vec![0.0, 0.01],
            depths: vec![2, 4],
            ..ExplorationConfig::quick()
        };
        let sweep = explore(&train_q, &test_q, &config);
        let (recorder, sink) = Recorder::collecting();
        let resumed = run(&checkpointed, &sweep, &test_q, &test_analog, &recorder);
        assert_eq!(sink.snapshot().counter(keys::ROBUST_CHECKPOINT_HITS), 0);
        assert_eq!(
            resumed,
            run(&campaign, &sweep, &test_q, &test_analog, &disabled)
        );
        let _ = std::fs::remove_file(&path);
    }
}
