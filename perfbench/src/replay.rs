//! Serial replays of the layers inside the sweep and the campaign.
//!
//! The flow runs those layers on worker threads, where the benchmark
//! cannot wrap them in spans without instrumenting the program. The
//! replay calls the same public functions one at a time, from one thread,
//! on the same inputs and seeds, under the benchmark's spans — and checks
//! that every result it recomputes is bit-identical to the flow's, so the
//! replay is known to have done the flow's work. `fault_robustness` still
//! fans its faults out over the machine's cores internally.

use printed_codesign::explore::{CandidateDesign, ExplorationConfig};
use printed_codesign::{
    fault_robustness, synthesize_unary, train_adc_aware_annotated_with_index, AdcAwareConfig,
    LintConfig, LintReport, MismatchTrialStream, MismatchTrials, PruneReason, SupplyDroopModel,
};
use printed_datasets::DatasetIndex;
use printed_lint::{DroopRef, GridRef, LintTarget, Linter};
use printed_logic::netlist::Netlist;
use printed_pdk::AnalogModel;
use printed_telemetry::{keys, Recorder};

use crate::tracer::Tracer;
use crate::workload::{BenchRun, Input};

/// Work counts the replays observe. They repeat exactly for a given
/// workload and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trees trained by Algorithm 1.
    pub trees: u64,
    /// Gini evaluations of those trainings (`train.gini_evals`).
    pub gini_evals: u64,
    /// Single stuck-at faults injected.
    pub faults: u64,
    /// Faults times test samples scored.
    pub fault_evals: u64,
    /// Monte-Carlo mismatch trials.
    pub trials: u64,
}

/// The explorer's per-τ training seed (`explore::tau_seed`).
fn tau_seed(base: u64, tau: f64) -> u64 {
    base ^ tau.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The campaign's per-grid-point seed (`explore::point_seed`).
fn point_seed(base: u64, depth: usize, tau: f64) -> u64 {
    tau_seed(base, tau) ^ (depth as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Feasible-pattern cap of the sweep's in-flow T001 equivalence leg
/// (`lint::GRID_EQUIV_BUDGET`).
const GRID_EQUIV_BUDGET: usize = 512;

/// The sweep's in-flow lint of one candidate: the full pass suite, with
/// the tree re-verified only at the deepest cap.
fn grid_lint(
    candidate: &CandidateDesign,
    netlist: &Netlist,
    analog: &AnalogModel,
    grid: &ExplorationConfig,
    verify_tree: bool,
) -> LintReport {
    let classifier = &candidate.system.classifier;
    let bank = classifier.adc_bank();
    let droop = SupplyDroopModel::printed_default();
    let target = LintTarget {
        tree: verify_tree.then_some(&candidate.tree),
        netlist,
        bank: &bank,
        literals: classifier.literals(),
        class_sops: classifier.class_sops(),
        reported_adc: Some(&candidate.system.adc),
        model: analog,
        grid: Some(GridRef {
            taus: &grid.taus,
            depths: &grid.depths,
            seed: grid.seed,
        }),
        droop: Some(DroopRef {
            max_sag: droop.max_sag(),
            vref_leak: droop.vref_leak,
            offset_per_sag: droop.offset_per_sag,
        }),
        equiv_budget: Some(GRID_EQUIV_BUDGET),
    };
    Linter::with_config(LintConfig::new()).run(&target)
}

/// Replays one benchmark's sweep: per τ one training at the deepest cap,
/// then per depth truncation, synthesis, scoring and the in-flow lint.
/// Returns one message per result that differs from the flow's.
pub fn replay_sweep(
    input: &Input,
    run: &BenchRun,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<String> {
    let grid = &run.grid;
    let analog = AnalogModel::egfet();
    let max_depth = *grid.depths.iter().max().expect("non-empty grid");
    let mut depths = grid.depths.clone();
    depths.sort_unstable_by(|a, b| b.cmp(a));
    let mut problems = Vec::new();

    let index = tracer.time("train", || DatasetIndex::new(&input.train));
    for &tau in &grid.taus {
        let config = AdcAwareConfig {
            max_depth,
            tau,
            min_samples_split: 2,
            seed: tau_seed(grid.seed, tau),
        };
        let (recorder, _) = Recorder::collecting();
        let annotated = tracer.time("train", || {
            train_adc_aware_annotated_with_index(&input.train, &index, &config, &recorder)
        });
        let snapshot = recorder
            .snapshot()
            .expect("a collecting recorder snapshots");
        counts.trees += snapshot.counter(keys::TREES_TRAINED);
        counts.gini_evals += snapshot.counter(keys::GINI_EVALS);

        for &depth in &depths {
            let tree = if depth == max_depth {
                annotated.tree.clone()
            } else {
                tracer.time("train.truncate", || annotated.truncated(depth))
            };
            let system = tracer.time("synth", || synthesize_unary(&tree));
            let test_accuracy =
                tracer.time("score", || system.classifier.packed().accuracy(&input.test));
            let candidate = CandidateDesign {
                tau,
                depth,
                test_accuracy,
                tree,
                system,
            };
            // The sweep lints the netlist its synthesis built; rebuilding
            // it here stays outside the timed lint call.
            let netlist = candidate.system.classifier.to_netlist();
            let report = tracer.time("lint.grid", || {
                grid_lint(&candidate, &netlist, &analog, grid, depth == max_depth)
            });

            let same_point = |t: f64, d: usize| d == depth && t.to_bits() == tau.to_bits();
            let flow = run
                .sweep
                .candidates
                .iter()
                .find(|c| same_point(c.tau, c.depth));
            if flow.is_none_or(|c| {
                *c != candidate || c.test_accuracy.to_bits() != test_accuracy.to_bits()
            }) {
                problems.push(format!("sweep replay differs at tau={tau} depth={depth}"));
            }
            let flow_lint = run.sweep.lint.iter().find(|l| same_point(l.tau, l.depth));
            if flow_lint.is_none_or(|l| l.report != report) {
                problems.push(format!(
                    "grid lint replay differs at tau={tau} depth={depth}"
                ));
            }
        }
    }
    problems
}

/// Replays one benchmark's campaign, candidate by candidate, along the
/// path the campaign took: the probe of a pruned point, or the fault
/// sweep, the Monte-Carlo trials it spent and the droop scan of a
/// profiled one. Returns one message per result that differs from the
/// flow's.
pub fn replay_campaign(
    input: &Input,
    run: &BenchRun,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<String> {
    let Some(campaign_run) = &run.campaign else {
        return Vec::new();
    };
    let campaign = &campaign_run.campaign;
    let outcome = &campaign_run.outcome;
    let test_analog = input
        .test_analog
        .as_ref()
        .expect("robust workloads load the analog split");
    let analog = AnalogModel::egfet();
    let disabled = Recorder::disabled();
    let mut problems = Vec::new();

    for candidate in &run.sweep.candidates {
        let (tau, depth, tree) = (candidate.tau, candidate.depth, &candidate.tree);
        let same_point = |t: f64, d: usize| d == depth && t.to_bits() == tau.to_bits();
        let seed = point_seed(campaign.seed, depth, tau);
        let mut differs =
            |what: &str| problems.push(format!("{what} replay differs at tau={tau} depth={depth}"));

        if let Some(pruned) = outcome.pruned.iter().find(|p| same_point(p.tau, p.depth)) {
            let stream = tracer.time("mismatch.trial", || {
                MismatchTrialStream::new(
                    tree,
                    test_analog,
                    &campaign.mismatch,
                    seed,
                    &analog,
                    &disabled,
                )
            });
            if stream.nominal().to_bits() != pruned.nominal.to_bits() {
                differs("probe nominal");
            }
            if pruned.reason == PruneReason::DroopMargin {
                let margin = tracer.time("campaign.droop", || {
                    campaign.droop.margin(tree, test_analog, stream.nominal())
                });
                if Some(margin.to_bits()) != pruned.droop_margin.map(f64::to_bits) {
                    differs("probe droop");
                }
            }
            continue;
        }
        let Some(row) = outcome.profiles.iter().find(|r| same_point(r.tau, r.depth)) else {
            differs("campaign coverage");
            continue;
        };
        let profile = &row.profile;

        let faults = tracer.time("robustness.fault", || fault_robustness(tree, &input.test));
        counts.faults += faults.fault_count as u64;
        counts.fault_evals += (faults.fault_count * input.test.len()) as u64;
        if faults.worst_accuracy.to_bits() != profile.worst_single_fault.to_bits()
            || faults.benign_fraction.to_bits() != profile.benign_fault_fraction.to_bits()
        {
            differs("fault");
        }

        // A constant tree has no thresholds: the campaign scores it
        // nominally and spends no trials.
        let nominal = if tree.split_count() == 0 {
            profile.nominal
        } else {
            let trials = tracer.time("mismatch.trial", || {
                let mut stream = MismatchTrialStream::new(
                    tree,
                    test_analog,
                    &campaign.mismatch,
                    seed,
                    &analog,
                    &disabled,
                );
                let accuracies = (0..row.trials_spent)
                    .map(|_| stream.next_accuracy())
                    .collect();
                MismatchTrials {
                    nominal: stream.nominal(),
                    accuracies,
                }
            });
            counts.trials += row.trials_spent as u64;
            let report = trials.report();
            if trials.nominal.to_bits() != profile.nominal.to_bits()
                || report.mean.to_bits() != profile.mean_under_mismatch.to_bits()
                || report.min.to_bits() != profile.min_under_mismatch.to_bits()
                || trials.yield_within(campaign.yield_loss).to_bits()
                    != profile.yield_estimate.to_bits()
            {
                differs("mismatch");
            }
            trials.nominal
        };

        let margin = tracer.time("campaign.droop", || {
            campaign.droop.margin(tree, test_analog, nominal)
        });
        if margin.to_bits() != profile.droop_margin.to_bits() {
            differs("droop");
        }
    }
    problems
}
