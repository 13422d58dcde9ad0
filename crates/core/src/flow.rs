//! The one-call co-design flow.
//!
//! Everything the paper's framework does, behind a single builder: sweep
//! the ADC-aware grid (which trains the ADC-unaware reference on the way),
//! synthesize the baseline system from that reference, optionally profile
//! the grid's robustness, select under the accuracy-loss constraint, lint
//! the selection, and package the result with its comparisons. This is
//! the one place the pipeline is composed: the `codesign` and `bench_all`
//! binaries run it and only parse arguments and print the outcome.
//!
//! ```no_run
//! use printed_codesign::flow::CodesignFlow;
//! use printed_datasets::Benchmark;
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! let outcome = CodesignFlow::new(&train, &test).accuracy_loss(0.01).run();
//! println!("{}", outcome.datasheet());
//! assert!(outcome.chosen.system.is_self_powered());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use printed_datasets::QuantizedDataset;
use printed_dtree::{synthesize_baseline_with, BaselineDesign};
use printed_logic::report::AnalysisConfig;
use printed_pdk::{AnalogModel, CellKind, CellLibrary};
use printed_telemetry::{keys, FieldValue, FlowTrace, Recorder, RunManifest};

use printed_datasets::Dataset;

use crate::campaign::{CampaignOutcome, RobustnessCampaign, RobustnessConstraints};
use crate::datasheet::Datasheet;
use crate::explore::{
    explore_instrumented, CandidateDesign, Exploration, ExplorationConfig, ProgressFn,
};
use crate::system::Reduction;

/// Builder for the full co-design flow.
#[derive(Clone)]
pub struct CodesignFlow<'a> {
    train: &'a QuantizedDataset,
    test: &'a QuantizedDataset,
    accuracy_loss: f64,
    grid: ExplorationConfig,
    title: String,
    recorder: Recorder,
    progress: Option<ProgressFn<'a>>,
    robustness: Option<(RobustnessCampaign, &'a Dataset, RobustnessConstraints)>,
}

impl std::fmt::Debug for CodesignFlow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodesignFlow")
            .field("title", &self.title)
            .field("accuracy_loss", &self.accuracy_loss)
            .field("grid", &self.grid)
            .field("traced", &self.recorder.is_enabled())
            .field("progress", &self.progress.map(|_| "<callback>"))
            .finish_non_exhaustive()
    }
}

impl<'a> CodesignFlow<'a> {
    /// Starts a flow over a train/test pair with the paper's defaults
    /// (1% accuracy loss, full τ×depth grid). Every flow prices its
    /// designs in the EGFET technology at 20 Hz.
    pub fn new(train: &'a QuantizedDataset, test: &'a QuantizedDataset) -> Self {
        Self {
            train,
            test,
            accuracy_loss: 0.01,
            grid: ExplorationConfig::paper(),
            title: train.name().to_owned(),
            recorder: Recorder::disabled(),
            progress: None,
            robustness: None,
        }
    }

    /// Sets the accuracy-loss constraint (fraction; `0.01` = one point).
    ///
    /// # Panics
    ///
    /// Panics unless `loss ∈ [0, 1)`.
    pub fn accuracy_loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss must be in [0, 1), got {loss}"
        );
        self.accuracy_loss = loss;
        self
    }

    /// Replaces the exploration grid (e.g. [`ExplorationConfig::quick`]).
    pub fn grid(mut self, grid: ExplorationConfig) -> Self {
        self.grid = grid;
        self
    }

    /// Sets the title used in the datasheet rendering and as the dataset
    /// key of the trace's manifest (default: the training split's name).
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Installs a telemetry [`Recorder`]. Stage spans, per-candidate sweep
    /// spans, and Algorithm 1 counters flow into its sink; if the sink
    /// supports snapshots, [`FlowOutcome::trace`] is populated too.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Shorthand for [`CodesignFlow::recorder`] with a fresh in-memory
    /// collecting sink, so [`FlowOutcome::trace`] comes back `Some`.
    pub fn traced(self) -> Self {
        let (recorder, _sink) = Recorder::collecting();
        self.recorder(recorder)
    }

    /// Installs a live progress callback, invoked from the sweep's worker
    /// threads once per finished grid point (`k/N candidates done`). Works
    /// with or without a recorder.
    pub fn progress(mut self, callback: ProgressFn<'a>) -> Self {
        self.progress = Some(callback);
        self
    }

    /// Runs `campaign` over the sweep and also selects on *robust*
    /// accuracy (mean under mismatch), with default (empty) admission
    /// constraints, into [`FlowOutcome::robust_choice`]. `analog_test` is
    /// the normalized analog test split the Monte Carlo scores on (same
    /// benchmark as the quantized pair). Setting the campaign's
    /// [`checkpoint_path`](RobustnessCampaign::checkpoint_path) makes it
    /// resumable. See [`Exploration::select_robust`].
    pub fn robustness(self, campaign: RobustnessCampaign, analog_test: &'a Dataset) -> Self {
        self.robustness_with(campaign, analog_test, RobustnessConstraints::default())
    }

    /// [`robustness`](Self::robustness) with explicit admission
    /// constraints (minimum yield / worst-fault accuracy / droop margin).
    /// When no candidate meets the robust floor and constraints,
    /// [`FlowOutcome::robust_choice`] is `None`.
    pub fn robustness_with(
        mut self,
        campaign: RobustnessCampaign,
        analog_test: &'a Dataset,
        constraints: RobustnessConstraints,
    ) -> Self {
        self.robustness = Some((campaign, analog_test, constraints));
        self
    }

    /// Runs the flow.
    ///
    /// # Panics
    ///
    /// Panics if either dataset is empty, the grid is malformed (see
    /// [`ExplorationConfig::validate`]; checked here, before any training
    /// starts) or every grid point failed.
    pub fn run(self) -> FlowOutcome {
        self.grid.validate();
        let library = CellLibrary::egfet();
        let analog = AnalogModel::egfet();
        let analysis = AnalysisConfig::printed_20hz();
        // Main-thread kernel tallies (selection-path synthesis, lint);
        // sweep workers enter their own per-thread scopes. Dropped before
        // the snapshot below so the tallies land in the trace.
        let kernel_scope = printed_telemetry::KernelScope::enter(&self.recorder);

        // The sweep trains the ADC-unaware reference (its
        // `reference_training` span nests under this stage) and keeps it.
        let stage = self.recorder.span(keys::STAGE_SWEEP);
        let sweep = explore_instrumented(
            self.train,
            self.test,
            &self.grid,
            &library,
            &analog,
            &analysis,
            &self.recorder,
            self.progress,
        );
        stage.finish();

        let stage = self.recorder.span(keys::STAGE_BASELINE);
        let baseline = synthesize_baseline_with(&sweep.reference, &library, &analog, &analysis);
        stage.finish();

        let campaign_outcome =
            self.robustness
                .as_ref()
                .map(|(campaign, analog_test, constraints)| {
                    // Under an adaptive budget the early-exit decisions must be
                    // taken against the *selection* criteria, or the sequential
                    // stopping rule could discard trials that selection still
                    // needed. Inject the flow's robust floor and constraints so
                    // the campaign decides exactly what `select_robust` will.
                    let mut campaign = campaign.clone();
                    if let Some(adaptive) = campaign.adaptive.as_mut() {
                        adaptive.constraints = *constraints;
                        if adaptive.robust_floor.is_none() {
                            adaptive.robust_floor =
                                Some(sweep.reference_accuracy - self.accuracy_loss);
                        }
                    }
                    let stage = self.recorder.span(keys::STAGE_ROBUSTNESS);
                    let outcome =
                        campaign.run_with(&sweep, self.test, analog_test, &analog, &self.recorder);
                    stage.finish();
                    outcome
                });

        let stage = self.recorder.span(keys::STAGE_SELECTION);
        let chosen = sweep.choose(self.accuracy_loss).clone();
        record_selection(&self.recorder, &chosen, &analog);
        let robust_choice = self
            .robustness
            .as_ref()
            .zip(campaign_outcome.as_ref())
            .and_then(|((_, _, constraints), outcome)| {
                let choice = sweep.select_robust(self.accuracy_loss, outcome, constraints)?;
                let profile = outcome
                    .profile_for(choice.tau, choice.depth)
                    .expect("robust choice was profiled");
                self.recorder.event(
                    keys::ROBUST_SELECTED_EVENT,
                    vec![
                        ("tau".to_owned(), FieldValue::F64(choice.tau)),
                        ("depth".to_owned(), FieldValue::U64(choice.depth as u64)),
                        ("accuracy".to_owned(), FieldValue::F64(choice.test_accuracy)),
                        (
                            "robust_accuracy".to_owned(),
                            FieldValue::F64(profile.robust_accuracy()),
                        ),
                    ],
                );
                Some(choice.clone())
            });
        stage.finish();

        let stage = self.recorder.span(keys::STAGE_LINT);
        let lint = crate::lint::lint_candidate(
            &chosen,
            &analog,
            Some(&self.grid),
            &printed_lint::LintConfig::new(),
        );
        crate::lint::record_lint(&self.recorder, &lint);
        stage.finish();

        drop(kernel_scope);
        record_process_gauges(&self.recorder);
        let trace = self.recorder.snapshot().map(|snapshot| {
            let manifest = RunManifest::capture(&self.title)
                .with_grid(&self.grid.taus, self.grid.depths.iter().copied())
                .with_seed(self.grid.seed)
                .with_accuracy_loss(self.accuracy_loss);
            FlowTrace::from_snapshot(&self.title, &snapshot).with_manifest(manifest)
        });
        FlowOutcome {
            title: self.title,
            accuracy_loss: self.accuracy_loss,
            reference_accuracy: sweep.reference_accuracy,
            baseline,
            sweep,
            chosen,
            robust_choice,
            robustness: campaign_outcome,
            lint,
            trace,
        }
    }
}

/// Stamps process-level gauges ([`keys::PEAK_RSS_KB`]) into `recorder`,
/// so the finalized trace carries a memory axis next to the wall-time
/// one. Call once, immediately before snapshotting — peak
/// RSS is monotone, so the last value is the run's high-water mark.
/// No-op when the recorder is disabled or off Linux.
pub fn record_process_gauges(recorder: &Recorder) {
    if !recorder.is_enabled() {
        return;
    }
    if let Some(kb) = printed_telemetry::peak_rss_kb() {
        recorder.set_gauge(keys::PEAK_RSS_KB, kb);
    }
}

/// Records a selected design into `recorder`: the [`keys::SELECTED_EVENT`]
/// headline, comparator retention and per-input ADC attribution (via
/// [`printed_adc::BespokeAdcBank::record_hardware`]), AND/OR gate tallies
/// from the synthesized netlist's cell histogram, and one
/// [`keys::CLASS_EVENT`] per class label with its two-level cover size.
/// No-op when the recorder is disabled.
///
/// [`CodesignFlow::run`] calls this at selection time; standalone sweeps
/// call it directly so their traces carry the same hardware-attribution
/// records.
pub fn record_selection(recorder: &Recorder, chosen: &CandidateDesign, analog: &AnalogModel) {
    if !recorder.is_enabled() {
        return;
    }
    let system = &chosen.system;
    recorder.event(
        keys::SELECTED_EVENT,
        vec![
            ("tau".to_owned(), FieldValue::F64(chosen.tau)),
            ("depth".to_owned(), FieldValue::U64(chosen.depth as u64)),
            ("accuracy".to_owned(), FieldValue::F64(chosen.test_accuracy)),
            (
                "area_mm2".to_owned(),
                FieldValue::F64(system.total_area().mm2()),
            ),
            (
                "power_mw".to_owned(),
                FieldValue::F64(system.total_power().mw()),
            ),
            (
                "comparators".to_owned(),
                FieldValue::U64(system.comparator_count() as u64),
            ),
        ],
    );
    system
        .classifier
        .adc_bank()
        .record_hardware(recorder, analog);
    let (mut and_gates, mut or_gates) = (0u64, 0u64);
    for &(kind, n) in &system.digital.histogram {
        match kind {
            CellKind::And2
            | CellKind::And3
            | CellKind::And4
            | CellKind::Nand2
            | CellKind::Nand3
            | CellKind::Nand4 => and_gates += n as u64,
            CellKind::Or2
            | CellKind::Or3
            | CellKind::Or4
            | CellKind::Nor2
            | CellKind::Nor3
            | CellKind::Nor4 => or_gates += n as u64,
            _ => {}
        }
    }
    recorder.add(keys::HW_AND_GATES, and_gates);
    recorder.add(keys::HW_OR_GATES, or_gates);
    for class in 0..system.classifier.n_classes() {
        let sop = system.classifier.class_sop(class);
        recorder.event(
            keys::CLASS_EVENT,
            vec![
                ("class".to_owned(), FieldValue::U64(class as u64)),
                (
                    "cubes".to_owned(),
                    FieldValue::U64(sop.cubes().len() as u64),
                ),
                (
                    "literals".to_owned(),
                    FieldValue::U64(sop.literal_count() as u64),
                ),
            ],
        );
    }
}

/// The result of [`CodesignFlow::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// Title used for rendering.
    pub title: String,
    /// The accuracy-loss constraint the selection used.
    pub accuracy_loss: f64,
    /// The ADC-unaware reference's test accuracy.
    pub reference_accuracy: f64,
    /// The synthesized state-of-the-art baseline (\[2\]).
    pub baseline: BaselineDesign,
    /// The full exploration (all grid points and the reference tree), for
    /// custom selection.
    pub sweep: Exploration,
    /// The selected co-design: [`Exploration::choose`] at the
    /// accuracy-loss constraint. This is the design that is linted and
    /// recorded ([`keys::SELECTED_EVENT`]).
    pub chosen: CandidateDesign,
    /// The robustness-aware selection ([`Exploration::select_robust`],
    /// recorded as [`keys::ROBUST_SELECTED_EVENT`]) — `Some` iff the
    /// campaign ran and a candidate meets its robust floor and
    /// constraints.
    pub robust_choice: Option<CandidateDesign>,
    /// The robustness campaign's per-candidate profiles — `Some` iff the
    /// flow ran with [`CodesignFlow::robustness`].
    pub robustness: Option<CampaignOutcome>,
    /// The static-analysis findings over the chosen design.
    pub lint: printed_lint::LintReport,
    /// Telemetry summary of this run — `Some` iff a snapshot-capable
    /// recorder was installed ([`CodesignFlow::traced`] or
    /// [`CodesignFlow::recorder`] with a collecting sink).
    pub trace: Option<FlowTrace>,
}

impl FlowOutcome {
    /// Reduction factors of the chosen design vs the baseline.
    pub fn reduction(&self) -> Reduction {
        self.chosen.system.reduction_vs(&self.baseline)
    }

    /// The run's telemetry summary, if the flow was traced.
    pub fn trace(&self) -> Option<&FlowTrace> {
        self.trace.as_ref()
    }

    /// Renders the chosen design's datasheet.
    pub fn datasheet(&self) -> String {
        Datasheet::new(
            &self.title,
            &self.chosen.system,
            Some(self.chosen.test_accuracy),
        )
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;

    #[test]
    fn flow_end_to_end_on_small_benchmark() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.01)
            .grid(ExplorationConfig::quick())
            .title("Seeds flow")
            .run();
        assert!(outcome.chosen.test_accuracy >= outcome.reference_accuracy - 0.01 - 1e-9);
        let r = outcome.reduction();
        assert!(r.power_factor > 1.0);
        let sheet = outcome.datasheet();
        assert!(sheet.contains("Seeds flow"));
        assert!(outcome.sweep.candidates.len() == 9);
    }

    #[test]
    fn flow_respects_custom_grid_and_loss() {
        let (train, test) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let grid = ExplorationConfig {
            taus: vec![0.0],
            depths: vec![2, 3],
            seed: 1,
            ..ExplorationConfig::quick()
        };
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(grid)
            .run();
        assert_eq!(outcome.sweep.candidates.len(), 2);
        assert!(outcome.chosen.depth <= 3);
    }

    #[test]
    #[should_panic(expected = "loss must be")]
    fn flow_rejects_invalid_loss() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let _ = CodesignFlow::new(&train, &test).accuracy_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "exploration grid has no depths")]
    fn flow_rejects_empty_grid_before_training() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let grid = ExplorationConfig {
            taus: vec![0.0],
            depths: vec![],
            seed: 1,
            ..ExplorationConfig::quick()
        };
        let _ = CodesignFlow::new(&train, &test).grid(grid).run();
    }

    #[test]
    fn traced_flow_records_stages_and_candidates() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let grid = ExplorationConfig::quick();
        let expected_candidates = grid.grid_size();
        let expected_taus = grid.taus.len();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.01)
            .grid(grid)
            .traced()
            .run();
        let trace = outcome.trace().expect("traced flow must carry a trace");
        for stage in [
            keys::STAGE_BASELINE,
            keys::STAGE_SWEEP,
            keys::STAGE_SELECTION,
            keys::STAGE_LINT,
        ] {
            assert!(trace.stage(stage).is_some(), "missing {stage}");
        }
        // The reference is trained once, inside the sweep stage.
        let sweep = trace.stage(keys::STAGE_SWEEP).unwrap();
        let reference: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == keys::REFERENCE_SPAN)
            .collect();
        assert_eq!(reference.len(), 1);
        assert_eq!(reference[0].parent, Some(sweep.id));
        // The lint stage ran, found no errors on a clean design, and its
        // counters mirror the report carried on the outcome.
        let lint = &outcome.lint;
        assert!(!lint.has_errors(), "{}", lint.render_text());
        assert_eq!(
            trace.counter(keys::LINT_DIAGNOSTICS),
            lint.diagnostics.len() as u64
        );
        assert_eq!(trace.counter(keys::LINT_ERRORS), 0);
        assert_eq!(trace.sweep.total_candidates, expected_candidates);
        // Prefix sharing: one training per τ, the rest by truncation.
        assert_eq!(trace.counter(keys::TREES_TRAINED) as usize, expected_taus);
        assert_eq!(
            trace.counter(keys::TREES_SHARED) as usize,
            expected_candidates - expected_taus
        );
        let (s_z, s_m, s_h) = trace.split_selections();
        assert!(s_z + s_m + s_h > 0, "Algorithm 1 tallies must be populated");
        // The selection event mirrors the chosen design.
        let selected: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == keys::SELECTED_EVENT)
            .collect();
        assert_eq!(selected.len(), 1);
        assert_eq!(
            selected[0].field("depth").and_then(FieldValue::as_u64),
            Some(outcome.chosen.depth as u64)
        );
        assert_eq!(
            selected[0]
                .field("comparators")
                .and_then(FieldValue::as_u64),
            Some(outcome.chosen.system.comparator_count() as u64)
        );
        // Hardware attribution: comparator retention matches the chosen
        // system, and per-ADC/per-class events cover every input/class.
        assert_eq!(
            trace.counter(keys::HW_COMPARATORS_RETAINED) as usize,
            outcome.chosen.system.comparator_count()
        );
        assert!(trace.counter(keys::HW_COMPARATORS_DROPPED) > 0);
        assert!(trace.counter(keys::HW_LADDER_RESISTORS) > 0);
        assert!(trace.counter(keys::HW_AND_GATES) > 0);
        assert!(trace.counter(keys::TRAIN_NODES) > 0);
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| e.name == keys::ADC_EVENT)
                .count(),
            outcome.chosen.system.input_count()
        );
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| e.name == keys::CLASS_EVENT)
                .count(),
            outcome.chosen.system.classifier.n_classes()
        );
        // Provenance rides along.
        let manifest = trace
            .manifest
            .as_ref()
            .expect("traced flow stamps a manifest");
        assert_eq!(manifest.dataset, train.name());
        assert_eq!(manifest.grid_size(), expected_candidates);
        // Renderers stay usable from the outcome.
        assert!(trace.to_ndjson().contains(r#""kind":"flow""#));
        assert!(trace.render_text().contains("candidates"));
    }

    #[test]
    fn untraced_flow_carries_no_trace_and_matches_traced_results() {
        let (train, test) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let grid = ExplorationConfig {
            taus: vec![0.0, 0.01],
            depths: vec![2, 3],
            seed: 7,
            ..ExplorationConfig::quick()
        };
        let plain = CodesignFlow::new(&train, &test).grid(grid.clone()).run();
        let traced = CodesignFlow::new(&train, &test).grid(grid).traced().run();
        assert!(plain.trace().is_none());
        assert!(traced.trace().is_some());
        // Instrumentation must not perturb the numbers.
        assert_eq!(plain.chosen, traced.chosen);
        assert_eq!(plain.sweep, traced.sweep);
        assert_eq!(plain.reference_accuracy, traced.reference_accuracy);
    }

    #[test]
    fn robust_flow_profiles_the_sweep_and_selects_robustly() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, analog_test) = Benchmark::Seeds.load_split().unwrap();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(ExplorationConfig::quick())
            .robustness(RobustnessCampaign::quick(), &analog_test)
            .traced()
            .run();
        let campaign = outcome.robustness.as_ref().expect("campaign ran");
        assert_eq!(campaign.profiles.len(), outcome.sweep.candidates.len());
        // The campaign does not move the nominal selection.
        assert_eq!(&outcome.chosen, outcome.sweep.choose(0.05));
        let robust = outcome.robust_choice.as_ref().expect("Seeds admits one");
        assert_eq!(
            Some(robust),
            outcome
                .sweep
                .select_robust(0.05, campaign, &RobustnessConstraints::default())
        );
        let trace = outcome.trace().expect("traced");
        assert!(trace.stage(keys::STAGE_ROBUSTNESS).is_some());
        // One robust-selection event, for the robust choice.
        let robust_events: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == keys::ROBUST_SELECTED_EVENT)
            .collect();
        let [event] = robust_events.as_slice() else {
            panic!("expected one robust selection event, got {robust_events:?}");
        };
        assert_eq!(
            event.field("depth").and_then(FieldValue::as_u64),
            Some(robust.depth as u64)
        );
        assert!(event
            .field("robust_accuracy")
            .and_then(FieldValue::as_f64)
            .is_some());
        // Flow without robustness: no campaign rides along.
        let plain = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(ExplorationConfig::quick())
            .run();
        assert!(plain.robustness.is_none());
        assert!(plain.robust_choice.is_none());
    }

    #[test]
    fn traced_spans_record_their_causal_parents() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, analog_test) = Benchmark::Seeds.load_split().unwrap();
        let grid = ExplorationConfig {
            threads: Some(2),
            ..ExplorationConfig::quick()
        };
        let outcome = CodesignFlow::new(&train, &test)
            .grid(grid)
            .robustness(RobustnessCampaign::quick(), &analog_test)
            .traced()
            .run();
        let trace = outcome.trace().expect("traced");
        let parent_name = |span: &printed_telemetry::SpanRecord| {
            let parent = span.parent?;
            let parent = trace.spans.iter().find(|s| s.id == parent)?;
            Some(parent.name.as_str())
        };
        for name in [keys::ROBUST_SPAN, keys::TRAIN_SPAN, keys::TRUNCATE_SPAN] {
            assert!(trace.spans.iter().any(|s| s.name == name), "no {name} span");
        }
        for span in &trace.spans {
            let expected = match span.name.as_str() {
                keys::CANDIDATE_SPAN | keys::REFERENCE_SPAN => Some(keys::STAGE_SWEEP),
                keys::TRAIN_SPAN | keys::TRUNCATE_SPAN => Some(keys::CANDIDATE_SPAN),
                keys::ROBUST_SPAN => Some(keys::STAGE_ROBUSTNESS),
                _ => parent_name(span),
            };
            assert_eq!(parent_name(span), expected, "{span:?}");
            assert_ne!(parent_name(span), Some(span.name.as_str()), "{span:?}");
        }
    }
}
