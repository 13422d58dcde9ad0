//! The three workloads, their set-up, and one pass of each.
//!
//! A pass is what a user's `codesign <bench> --lint [--robust ...]`
//! command does for every benchmark of the workload, run back to back by
//! one client (a closed loop): reference training, the τ×depth sweep with
//! its in-flow grid lint, selection, a full-budget lint of the chosen
//! design and, on the robust workloads, the robustness campaign and the
//! robust selection.

use printed_bench::{choose, BITS, DEPTH_CAP};
use printed_codesign::explore::{explore_instrumented, Exploration, ExplorationConfig};
use printed_codesign::{
    lint_candidate, record_lint, record_selection, AdaptiveBudget, CampaignOutcome, LintConfig,
    LintReport, RobustnessCampaign, RobustnessConstraints,
};
use printed_datasets::{Benchmark, Dataset, QuantizedDataset};
use printed_dtree::cart::train_depth_selected;
use printed_dtree::synthesize_baseline;
use printed_logic::report::AnalysisConfig;
use printed_pdk::{AnalogModel, CellLibrary};
use printed_telemetry::{keys, Recorder};

use crate::tracer::Tracer;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All eight benchmarks through `codesign <b> --lint` on the paper grid.
    PaperFlow,
    /// Cardio through `codesign cardio --lint --robust --trials-max 24 --loss 0.05`.
    RobustAdaptive,
    /// Seeds, Vertebral-2C and Vertebral-3C through `codesign <b> --lint --robust`.
    RobustExhaustive,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFlow,
        Workload::RobustAdaptive,
        Workload::RobustExhaustive,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlow => "paper-flow",
            Workload::RobustAdaptive => "robust-adaptive",
            Workload::RobustExhaustive => "robust-exhaustive",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the robustness campaign.
    pub fn is_robust(self) -> bool {
        self != Workload::PaperFlow
    }
}

/// How big a workload is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The user's commands as they are: paper grid, full campaigns.
    Paper,
    /// Seeds only, on the quick grid with the quick campaign — for the
    /// benchmark's own tests.
    Tiny,
}

/// Number of distinct seed variants: `--seed n` selects variant
/// `n % SEED_VARIANTS`, and every variant's outputs are pinned.
pub const SEED_VARIANTS: u64 = 16;

/// Odd multiplier mixing the variant into the program's seeds; variant 0
/// leaves the paper seeds unchanged.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One workload at one size and seed variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Its size.
    pub size: Size,
    /// The seed variant, `seed % SEED_VARIANTS`.
    pub variant: u64,
}

impl Plan {
    /// The plan for `--workload`/`--seed`.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Self {
        Self {
            workload,
            size,
            variant: seed % SEED_VARIANTS,
        }
    }

    /// The benchmarks the workload runs, in order.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        match (self.size, self.workload) {
            (Size::Tiny, _) => vec![Benchmark::Seeds],
            (Size::Paper, Workload::PaperFlow) => Benchmark::ALL.to_vec(),
            (Size::Paper, Workload::RobustAdaptive) => vec![Benchmark::Cardio],
            (Size::Paper, Workload::RobustExhaustive) => vec![
                Benchmark::Seeds,
                Benchmark::Vertebral2C,
                Benchmark::Vertebral3C,
            ],
        }
    }

    /// The `--loss` accuracy constraint of the workload's command.
    pub fn loss(&self) -> f64 {
        match self.workload {
            Workload::RobustAdaptive => 0.05,
            _ => 0.01,
        }
    }

    /// The sweep grid, seeded from the variant (variant 0: `0x0ADC`).
    pub fn grid(&self) -> ExplorationConfig {
        let mut grid = match self.size {
            Size::Paper => ExplorationConfig::paper(),
            Size::Tiny => ExplorationConfig::quick(),
        };
        grid.seed ^= self.variant.wrapping_mul(SEED_MIX);
        grid
    }

    /// The robustness campaign, seeded from the variant (variant 0:
    /// `0xB0B`); `None` on `paper-flow`.
    pub fn campaign(&self, reference_accuracy: f64) -> Option<RobustnessCampaign> {
        let mut campaign = match self.size {
            Size::Paper => RobustnessCampaign::typical(),
            Size::Tiny => RobustnessCampaign::quick(),
        };
        campaign.seed ^= self.variant.wrapping_mul(SEED_MIX);
        match self.workload {
            Workload::PaperFlow => None,
            Workload::RobustExhaustive => Some(campaign),
            Workload::RobustAdaptive => {
                let trials_max = match self.size {
                    Size::Paper => 24,
                    Size::Tiny => 8,
                };
                Some(
                    campaign.budgeted(
                        AdaptiveBudget::new(trials_max)
                            .with_constraints(RobustnessConstraints::default())
                            .with_floor(reference_accuracy - self.loss())
                            .with_probe(),
                    ),
                )
            }
        }
    }
}

/// One benchmark's inputs, made by the set-up.
#[derive(Debug, Clone)]
pub struct Input {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Quantized training split.
    pub train: QuantizedDataset,
    /// Quantized test split.
    pub test: QuantizedDataset,
    /// Analog test split, loaded only by the robust workloads.
    pub test_analog: Option<Dataset>,
}

/// The set-up: `load_quantized`, plus `load_split` on the robust
/// workloads, for every benchmark of the plan — what `codesign` loads.
pub fn set_up(plan: &Plan, tracer: &mut Tracer) -> Result<Vec<Input>, String> {
    plan.benchmarks()
        .into_iter()
        .map(|benchmark| {
            tracer.time("datasets.load", || {
                let (train, test) = benchmark
                    .load_quantized(BITS)
                    .map_err(|e| format!("{benchmark}: load: {e}"))?;
                let test_analog = if plan.workload.is_robust() {
                    Some(
                        benchmark
                            .load_split()
                            .map_err(|e| format!("{benchmark}: load split: {e}"))?
                            .1,
                    )
                } else {
                    None
                };
                Ok(Input {
                    benchmark,
                    train,
                    test,
                    test_analog,
                })
            })
        })
        .collect()
}

/// The robustness leg of one benchmark's pass.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The campaign that ran.
    pub campaign: RobustnessCampaign,
    /// Its outcome.
    pub outcome: CampaignOutcome,
    /// Index into the sweep's candidates of the robust selection.
    pub robust: Option<usize>,
}

/// One benchmark's pass.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The sweep grid that ran.
    pub grid: ExplorationConfig,
    /// The sweep.
    pub sweep: Exploration,
    /// Index into the sweep's candidates of the selected design.
    pub chosen: usize,
    /// Full-budget lint of the selected design.
    pub lint: LintReport,
    /// The campaign, on the robust workloads.
    pub campaign: Option<CampaignRun>,
}

/// Runs one pass over every benchmark of the plan. `recorder` is the
/// program's own telemetry (disabled for timed passes); `tracer` records
/// the benchmark's spans around each layer call (off for timed passes).
pub fn run_pass(
    plan: &Plan,
    inputs: &[Input],
    recorder: &Recorder,
    tracer: &mut Tracer,
) -> Vec<BenchRun> {
    let analog = AnalogModel::egfet();
    let pass = tracer.enter("pass");
    let runs = inputs
        .iter()
        .map(|input| {
            let bench = tracer.enter("benchmark");
            let reference = tracer.time("dtree.reference_train", || {
                train_depth_selected(&input.train, &input.test, DEPTH_CAP)
            });
            tracer.time("dtree.baseline", || synthesize_baseline(&reference.tree));

            let grid = plan.grid();
            let sweep = tracer.time("explore.sweep", || {
                let stage = recorder.span(keys::STAGE_SWEEP);
                let sweep = explore_instrumented(
                    &input.train,
                    &input.test,
                    &grid,
                    &CellLibrary::egfet(),
                    &analog,
                    &AnalysisConfig::printed_20hz(),
                    recorder,
                    None,
                );
                stage.finish();
                sweep
            });
            let chosen = tracer.time("select", || {
                let chosen = choose(&sweep, plan.loss());
                record_selection(recorder, chosen, &analog);
                sweep
                    .candidates
                    .iter()
                    .position(|c| std::ptr::eq(c, chosen))
                    .expect("the selection is one of the sweep's candidates")
            });
            let lint = tracer.time("lint.selected", || {
                let stage = recorder.span(keys::STAGE_LINT);
                let report = lint_candidate(
                    &sweep.candidates[chosen],
                    &analog,
                    Some(&grid),
                    &LintConfig::new(),
                );
                record_lint(recorder, &report);
                stage.finish();
                report
            });

            let campaign = plan.campaign(sweep.reference_accuracy).map(|campaign| {
                let test_analog = input
                    .test_analog
                    .as_ref()
                    .expect("robust workloads load the analog split");
                let outcome = tracer.time("campaign", || {
                    let stage = recorder.span(keys::STAGE_ROBUSTNESS);
                    let outcome =
                        campaign.run_with(&sweep, &input.test, test_analog, &analog, recorder);
                    stage.finish();
                    outcome
                });
                let robust = tracer.time("select", || {
                    sweep
                        .select_robust(plan.loss(), &outcome, &RobustnessConstraints::default())
                        .map(|robust| {
                            sweep
                                .candidates
                                .iter()
                                .position(|c| std::ptr::eq(c, robust))
                                .expect("the robust selection is one of the candidates")
                        })
                });
                CampaignRun {
                    campaign,
                    outcome,
                    robust,
                }
            });
            tracer.exit(bench);
            BenchRun {
                benchmark: input.benchmark,
                grid,
                sweep,
                chosen,
                lint,
                campaign,
            }
        })
        .collect();
    tracer.exit(pass);
    runs
}
