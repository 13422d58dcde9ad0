//! Output checks: every pass's selected designs and robust selections,
//! rendered as one canonical line per operation, against the lines
//! pinned for the workload and seed variant, against the run's first
//! pass, and against the flow's own failure signals.
//!
//! Floats are rendered with `{:?}`, the shortest text that parses back to
//! the same `f64`, so equal lines mean bit-identical values.

use std::collections::BTreeMap;

use printed_telemetry::Recorder;

use crate::tracer::Tracer;
use crate::workload::{run_pass, set_up, BenchRun, Plan, Size, Workload};

/// The pinned outputs shipped with the benchmark.
pub const PINS: &str = include_str!("../pins.txt");

/// The `BENCH_robust.ndjson` Cardio row the repository commits, which
/// `robust-adaptive` reproduces at seed variant 0.
pub const COMMITTED_CARDIO: &str = "tau=0.025 depth=2 nominal=0.8934169278996865 \
     robust_accuracy=0.893939393939394 yield=1.0 worst_fault=0.08150470219435736 \
     droop_margin=0.4 pruned=1 trials_spent=1119 trials_budget=1176";

/// The canonical line of one benchmark's selected design.
pub fn design_line(plan: &Plan, run: &BenchRun) -> String {
    let chosen = &run.sweep.candidates[run.chosen];
    format!(
        "{} {} {} design tau={:?} depth={} area_mm2={:?} power_mw={:?} comparators={} accuracy={:?}",
        plan.workload.name(),
        plan.variant,
        run.benchmark,
        chosen.tau,
        chosen.depth,
        chosen.system.total_area().mm2(),
        chosen.system.total_power().mw(),
        chosen.system.comparator_count(),
        chosen.test_accuracy,
    )
}

/// The canonical line of one benchmark's campaign, if it ran.
pub fn campaign_line(plan: &Plan, run: &BenchRun) -> Option<String> {
    let campaign = run.campaign.as_ref()?;
    let outcome = &campaign.outcome;
    let mut line = format!(
        "{} {} {} campaign trials_spent={} trials_budget={} pruned={} profiles={}",
        plan.workload.name(),
        plan.variant,
        run.benchmark,
        outcome.trials_spent,
        outcome.trials_budget,
        outcome.pruned.len(),
        outcome.profiles.len(),
    );
    match campaign.robust {
        None => line.push_str(" selection=none"),
        Some(index) => {
            let robust = &run.sweep.candidates[index];
            let profile = outcome
                .profile_for(robust.tau, robust.depth)
                .expect("the robust selection was profiled");
            line.push_str(&format!(
                " selection=robust tau={:?} depth={} nominal={:?} robust_accuracy={:?} yield={:?} \
                 worst_fault={:?} droop_margin={:?}",
                robust.tau,
                robust.depth,
                profile.nominal,
                profile.robust_accuracy(),
                profile.yield_estimate,
                profile.worst_single_fault,
                profile.droop_margin,
            ));
        }
    }
    Some(line)
}

/// The canonical lines of one fresh untraced pass of `plan` — the lines
/// `pins.txt` holds for it.
///
/// # Errors
///
/// Fails when the set-up fails.
pub fn canonical_lines(plan: &Plan) -> Result<Vec<String>, String> {
    let inputs = set_up(plan, &mut Tracer::off())?;
    let runs = run_pass(plan, &inputs, &Recorder::disabled(), &mut Tracer::off());
    Ok(runs
        .iter()
        .flat_map(|run| std::iter::once(design_line(plan, run)).chain(campaign_line(plan, run)))
        .collect())
}

/// The key of a canonical line: workload, variant, benchmark and kind.
fn key(line: &str) -> String {
    line.split_whitespace()
        .take(4)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The `name=value` fields of a canonical line.
fn fields(line: &str) -> BTreeMap<&str, &str> {
    line.split_whitespace()
        .filter_map(|token| token.split_once('='))
        .collect()
}

/// A set of pinned canonical lines, keyed by workload, variant,
/// benchmark and kind.
#[derive(Debug, Clone, Default)]
pub struct Pins {
    lines: BTreeMap<String, String>,
}

impl Pins {
    /// Parses pins, one canonical line each; `#` starts a comment line.
    pub fn parse(text: &str) -> Self {
        Self::from_lines(
            text.lines()
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#')),
        )
    }

    /// Pins from canonical lines.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Self {
        Self {
            lines: lines
                .into_iter()
                .map(|line| (key(line), line.to_owned()))
                .collect(),
        }
    }

    /// The pins shipped with the benchmark.
    pub fn builtin() -> Self {
        Self::parse(PINS)
    }

    /// Checks a canonical line against its pin.
    pub fn verify(&self, line: &str) -> Result<(), String> {
        match self.lines.get(&key(line)) {
            None => Err(format!("no pinned output for `{}`", key(line))),
            Some(pinned) if pinned == line => Ok(()),
            Some(pinned) => Err(format!("expected `{pinned}`, got `{line}`")),
        }
    }
}

/// Checks a campaign line against the committed `BENCH_robust.ndjson`
/// Cardio row, field by field and bit for bit.
pub fn verify_committed(line: &str) -> Result<(), String> {
    let got = fields(line);
    for (name, want) in fields(COMMITTED_CARDIO) {
        let same =
            got.get(name)
                .is_some_and(|value| match (value.parse::<f64>(), want.parse::<f64>()) {
                    (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
                    _ => *value == want,
                });
        if !same {
            return Err(format!(
                "committed Cardio row has {name}={want}, got {}",
                got.get(name).unwrap_or(&"nothing")
            ));
        }
    }
    Ok(())
}

/// The outcome of checking one pass.
#[derive(Debug, Clone, Default)]
pub struct PassCheck {
    /// The pass's canonical lines, in operation order.
    pub lines: Vec<String>,
    /// Operations attempted: one design per benchmark, plus one campaign
    /// per benchmark on the robust workloads.
    pub attempted: usize,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

/// Checks one pass. `first` holds the run's first pass's lines, which
/// every later pass must repeat exactly.
pub fn check_pass(
    plan: &Plan,
    runs: &[BenchRun],
    pins: &Pins,
    first: Option<&[String]>,
) -> PassCheck {
    let mut check = PassCheck::default();
    let mut operation = |line: String, mut problems: Vec<String>| {
        if let Err(e) = pins.verify(&line) {
            problems.push(e);
        }
        if let Some(first) = first {
            if first.get(check.lines.len()) != Some(&line) {
                problems.push("differs from the run's first pass".to_owned());
            }
        }
        check.attempted += 1;
        if !problems.is_empty() {
            check
                .failures
                .push(format!("{}: {}", key(&line), problems.join("; ")));
        }
        check.lines.push(line);
    };
    for run in runs {
        let mut problems = Vec::new();
        if !run.sweep.failed_candidates.is_empty() {
            problems.push(format!(
                "{} grid point(s) panicked",
                run.sweep.failed_candidates.len()
            ));
        }
        let grid_errors: usize = run.sweep.lint.iter().map(|l| l.report.error_count()).sum();
        if grid_errors > 0 || run.lint.has_errors() {
            problems.push(format!(
                "lint errors: {} on the selected design, {grid_errors} across the grid",
                run.lint.error_count()
            ));
        }
        operation(design_line(plan, run), problems);

        if let Some(line) = campaign_line(plan, run) {
            let mut problems = Vec::new();
            let campaign = run
                .campaign
                .as_ref()
                .expect("a campaign line has a campaign");
            if campaign.outcome.profiles.is_empty() {
                problems.push("the campaign produced no profiles".to_owned());
            }
            if plan.workload == Workload::RobustAdaptive
                && plan.size == Size::Paper
                && plan.variant == 0
            {
                if let Err(e) = verify_committed(&line) {
                    problems.push(e);
                }
            }
            operation(line, problems);
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_match_by_key_and_bits() {
        let pins = Pins::parse("# comment\npaper-flow 0 Seeds design tau=0.01 accuracy=0.9\n");
        assert!(pins
            .verify("paper-flow 0 Seeds design tau=0.01 accuracy=0.9")
            .is_ok());
        assert!(pins
            .verify("paper-flow 0 Seeds design tau=0.01 accuracy=0.9000000000000001")
            .is_err());
        assert!(pins
            .verify("paper-flow 1 Seeds design tau=0.01 accuracy=0.9")
            .is_err());
    }

    #[test]
    fn committed_row_is_checked_field_by_field() {
        let line = format!(
            "robust-adaptive 0 Cardio campaign profiles=48 selection=robust {COMMITTED_CARDIO}"
        );
        assert!(verify_committed(&line).is_ok());
        assert!(verify_committed(&line.replace("trials_spent=1119", "trials_spent=1120")).is_err());
        assert!(verify_committed("robust-adaptive 0 Cardio campaign selection=none").is_err());
    }

    #[test]
    fn shipped_pins_cover_every_workload_and_variant() {
        let pins = Pins::builtin();
        for workload in Workload::ALL {
            for variant in 0..crate::workload::SEED_VARIANTS {
                let prefix = format!("{} {variant} ", workload.name());
                assert!(
                    pins.lines.keys().any(|k| k.starts_with(&prefix)),
                    "no pins for {prefix}"
                );
            }
        }
    }
}
