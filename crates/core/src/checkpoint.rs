//! Grid checkpointing: NDJSON journals of completed grid points.
//!
//! A long τ×depth sweep or robustness campaign that dies (OOM, power loss
//! on a lab machine, Ctrl-C) should not have to redo every grid point.
//! Both grid runners keep an append-only journal (load, append, compact)
//! of one record kind:
//!
//! * the sweep ([`ExplorationConfig::checkpoint_path`]) appends a
//!   [`CheckpointLine`] (kind `sweep_ckpt`, tree included) per completed
//!   point and, on resume, re-synthesizes the hardware from the stored
//!   tree — synthesis is deterministic, so only training cost is saved
//!   and the resumed sweep is bit-identical to an uninterrupted one;
//! * the robustness campaign ([`RobustnessCampaign::checkpoint_path`])
//!   appends a [`RobustCheckpointLine`] (kind `robust_ckpt`) per profiled
//!   or pruned candidate and restores it verbatim on resume.
//!
//! Lines are written with the telemetry [`JsonLine`] writer and read back
//! with [`json::parse`], the workspace's one JSON codec. Every line carries
//! its runner's stamp: the configuration that shapes the results plus a
//! fingerprint of the data they were computed on (the sweep's train and
//! test splits; the campaign's test splits and candidate trees). Lines
//! that fail to decode, or that carry another stamp — a different
//! configuration or a different dataset — are skipped rather than trusted.
//!
//! [`ExplorationConfig::checkpoint_path`]: crate::explore::ExplorationConfig::checkpoint_path
//! [`RobustnessCampaign::checkpoint_path`]: crate::campaign::RobustnessCampaign::checkpoint_path

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Mutex;

use printed_datasets::{Dataset, QuantizedDataset};
use printed_dtree::{DecisionTree, Node};
use printed_telemetry::json::{self, JsonValue};
use printed_telemetry::JsonLine;

use crate::campaign::{CandidateRobustness, PruneReason, PrunedPoint, RobustnessProfile};
use crate::explore::CandidateDesign;

/// One grid point's record in a checkpoint journal.
pub trait GridRecord: Sized {
    /// Map key identifying the grid point. τ is keyed by its exact bit
    /// pattern: `f64::to_string`/`parse` round-trip losslessly, so a
    /// resumed run matches the original grid exactly.
    fn key(&self) -> (usize, u64);

    /// Renders the record as one NDJSON line (no trailing newline),
    /// stamped so a checkpoint from another configuration or dataset is
    /// never resumed by accident.
    fn encode(&self, stamp: u64) -> String;

    /// Parses one line previously produced by [`encode`](Self::encode).
    /// Returns `None` for anything unusable: other NDJSON kinds, foreign
    /// stamps, truncated lines (a crash mid-append leaves a partial last
    /// line), non-finite metrics (rendered as `null`), or records that
    /// fail validation — the grid point is then cleanly re-evaluated.
    fn decode(line: &str, stamp: u64) -> Option<Self>;
}

/// One completed sweep grid point, as persisted to the checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointLine {
    /// Gini slack of the grid point.
    pub tau: f64,
    /// Depth cap of the grid point.
    pub depth: usize,
    /// Test accuracy the trained tree reached.
    pub test_accuracy: f64,
    /// The trained tree itself (hardware re-synthesizes from this).
    pub tree: DecisionTree,
}

impl From<&CandidateDesign> for CheckpointLine {
    fn from(candidate: &CandidateDesign) -> Self {
        Self {
            tau: candidate.tau,
            depth: candidate.depth,
            test_accuracy: candidate.test_accuracy,
            tree: candidate.tree.clone(),
        }
    }
}

impl GridRecord for CheckpointLine {
    fn key(&self) -> (usize, u64) {
        (self.depth, self.tau.to_bits())
    }

    fn encode(&self, stamp: u64) -> String {
        JsonLine::new()
            .str("kind", "sweep_ckpt")
            .u64("v", 1)
            .u64("stamp", stamp)
            .u64("depth", self.depth as u64)
            .f64("tau", self.tau)
            .f64("accuracy", self.test_accuracy)
            .u64("bits", u64::from(self.tree.bits()))
            .u64("features", self.tree.n_features() as u64)
            .u64("classes", self.tree.n_classes() as u64)
            .str("nodes", &encode_nodes(self.tree.nodes()))
            .finish()
    }

    fn decode(line: &str, stamp: u64) -> Option<Self> {
        let line = Fields::parse(line, "sweep_ckpt", stamp)?;
        let depth = line.u64("depth")? as usize;
        let tau = line.f64("tau")?;
        let test_accuracy = line.f64("accuracy")?;
        let bits = u32::try_from(line.u64("bits")?).ok()?;
        let features = line.u64("features")? as usize;
        let classes = line.u64("classes")? as usize;
        let nodes = decode_nodes(line.str("nodes")?)?;
        let tree = DecisionTree::from_nodes(bits, features, classes, nodes).ok()?;
        Some(Self {
            tau,
            depth,
            test_accuracy,
            tree,
        })
    }
}

/// A parsed checkpoint line of one `kind`, version 1 and the expected
/// stamp, with typed field lookups that reject `null` (non-finite) floats.
struct Fields(JsonValue);

impl Fields {
    /// Parses `line` and checks its `kind`, `v` and `stamp`. `None` for
    /// torn or malformed lines, every other kind and foreign stamps.
    fn parse(line: &str, kind: &str, stamp: u64) -> Option<Self> {
        let fields = Self(json::parse(line).ok()?);
        (fields.str("kind")? == kind && fields.u64("v")? == 1 && fields.u64("stamp")? == stamp)
            .then_some(fields)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.0.get(key)?.as_str()
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.0.get(key)?.as_u64()
    }

    fn f64(&self, key: &str) -> Option<f64> {
        self.0.get(key)?.as_f64().filter(|v| v.is_finite())
    }
}

/// `L<class>` for leaves, `S<feature>:<threshold>:<lo>:<hi>` for splits,
/// `|`-joined in node order. The alphabet needs no JSON escaping.
fn encode_nodes(nodes: &[Node]) -> String {
    let parts: Vec<String> = nodes
        .iter()
        .map(|node| match *node {
            Node::Leaf { class } => format!("L{class}"),
            Node::Split {
                feature,
                threshold,
                lo,
                hi,
            } => format!("S{feature}:{threshold}:{lo}:{hi}"),
        })
        .collect();
    parts.join("|")
}

fn decode_nodes(text: &str) -> Option<Vec<Node>> {
    text.split('|')
        .map(|part| {
            if let Some(class) = part.strip_prefix('L') {
                Some(Node::Leaf {
                    class: class.parse().ok()?,
                })
            } else if let Some(body) = part.strip_prefix('S') {
                let mut fields = body.split(':');
                let node = Node::Split {
                    feature: fields.next()?.parse().ok()?,
                    threshold: fields.next()?.parse().ok()?,
                    lo: fields.next()?.parse().ok()?,
                    hi: fields.next()?.parse().ok()?,
                };
                if fields.next().is_some() {
                    return None;
                }
                Some(node)
            } else {
                None
            }
        })
        .collect()
}

/// Reads every resumable grid point from checkpoint file text, silently
/// skipping undecodable or foreign-stamp lines.
///
/// When the file holds several lines for the same `(depth, τ)` (resumed
/// runs append, they never rewrite in place), the **last** line wins: it
/// is the most recently written result, and under a fixed stamp any
/// duplicates are bit-identical anyway. First-seen order of the surviving
/// keys is preserved.
pub fn load_lines<R: GridRecord>(text: &str, stamp: u64) -> Vec<R> {
    let mut lines: Vec<R> = Vec::new();
    let mut index: HashMap<(usize, u64), usize> = HashMap::new();
    for line in text.lines().filter_map(|line| R::decode(line, stamp)) {
        let slot = *index.entry(line.key()).or_insert(lines.len());
        if slot == lines.len() {
            lines.push(line);
        } else {
            lines[slot] = line;
        }
    }
    lines
}

/// Rewrites the checkpoint file at `path` to exactly one line per entry in
/// `lines`, dropping duplicates and foreign-stamp leftovers. Both grid
/// runners call this after a fully successful run so repeated resume
/// cycles keep the file bounded at one line per grid point; after
/// compaction the file describes exactly that run's grid (a checkpoint
/// file belongs to one configuration).
///
/// The rewrite goes through a sibling temp file and a rename, so a crash
/// mid-compaction leaves either the old or the new file, never a torn one.
///
/// # Errors
///
/// Propagates I/O failures from writing the temp file or renaming it.
pub fn compact<R: GridRecord>(path: &str, stamp: u64, lines: &[R]) -> std::io::Result<()> {
    let mut text = String::new();
    for line in lines {
        text.push_str(&line.encode(stamp));
        text.push('\n');
    }
    let tmp = format!("{path}.compact.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// One finished robustness-campaign grid point, as persisted to the
/// campaign checkpoint file (kind `robust_ckpt`). Unlike sweep
/// checkpoints, no tree is stored — the campaign always runs over an
/// already-materialized sweep, so a line only has to carry the profile
/// (or the prune evidence) and the trial spend.
///
/// The campaign stamps its lines with
/// [`RobustnessCampaign::checkpoint_stamp`] — every parameter that shapes
/// per-candidate results (seed, budget, yield tolerance, mismatch/droop
/// models, adaptive policy) — folded with a fingerprint of both test
/// splits and every candidate tree; a stale or foreign line never resumes.
///
/// [`RobustnessCampaign::checkpoint_stamp`]:
///     crate::campaign::RobustnessCampaign::checkpoint_stamp
#[derive(Debug, Clone, PartialEq)]
pub enum RobustCheckpointLine {
    /// The candidate was profiled (possibly with an early exit).
    Profiled(CandidateRobustness),
    /// The probe pre-pass pruned the candidate before any trial.
    Pruned(PrunedPoint),
}

impl GridRecord for RobustCheckpointLine {
    fn key(&self) -> (usize, u64) {
        match self {
            Self::Profiled(row) => (row.depth, row.tau.to_bits()),
            Self::Pruned(point) => (point.depth, point.tau.to_bits()),
        }
    }

    fn encode(&self, stamp: u64) -> String {
        let base = |disposition: &str, depth: usize, tau: f64| {
            JsonLine::new()
                .str("kind", "robust_ckpt")
                .u64("v", 1)
                .u64("stamp", stamp)
                .str("point", disposition)
                .u64("depth", depth as u64)
                .f64("tau", tau)
        };
        match self {
            Self::Profiled(row) => base("ok", row.depth, row.tau)
                .u64("trials", row.trials_spent as u64)
                .f64("nominal", row.profile.nominal)
                .f64("mean", row.profile.mean_under_mismatch)
                .f64("min", row.profile.min_under_mismatch)
                .f64("worst_fault", row.profile.worst_single_fault)
                .f64("benign", row.profile.benign_fault_fraction)
                .f64("droop", row.profile.droop_margin)
                .f64("yld", row.profile.yield_estimate)
                .finish(),
            Self::Pruned(point) => {
                let line = base(point.reason.as_str(), point.depth, point.tau)
                    .f64("nominal", point.nominal);
                match point.droop_margin {
                    Some(droop) => line.f64("droop", droop).finish(),
                    None => line.finish(),
                }
            }
        }
    }

    fn decode(line: &str, stamp: u64) -> Option<Self> {
        let line = Fields::parse(line, "robust_ckpt", stamp)?;
        let depth = line.u64("depth")? as usize;
        let tau = line.f64("tau")?;
        let nominal = line.f64("nominal")?;
        match line.str("point")? {
            "ok" => Some(Self::Profiled(CandidateRobustness {
                tau,
                depth,
                trials_spent: line.u64("trials")? as usize,
                profile: RobustnessProfile {
                    nominal,
                    mean_under_mismatch: line.f64("mean")?,
                    min_under_mismatch: line.f64("min")?,
                    worst_single_fault: line.f64("worst_fault")?,
                    benign_fault_fraction: line.f64("benign")?,
                    droop_margin: line.f64("droop")?,
                    yield_estimate: line.f64("yld")?,
                },
            })),
            tag => {
                let reason = PruneReason::parse_tag(tag)?;
                let droop_margin = line.f64("droop");
                if reason == PruneReason::DroopMargin && droop_margin.is_none() {
                    return None;
                }
                Some(Self::Pruned(PrunedPoint {
                    tau,
                    depth,
                    reason,
                    nominal,
                    droop_margin,
                }))
            }
        }
    }
}

/// FNV-1a over the data a grid run's results depend on. Folded into a
/// journal's stamp, it keeps a checkpoint written for one dataset from
/// resuming a run on another.
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fingerprint from a configuration stamp.
    pub(crate) fn new(stamp: u64) -> Self {
        let mut print = Self(0xCBF2_9CE4_8422_2325);
        print.words([stamp]);
        print
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for word in words {
            self.bytes(&word.to_le_bytes());
        }
    }

    /// Folds in a quantized split: shape, every level and every label.
    pub(crate) fn quantized(mut self, data: &QuantizedDataset) -> Self {
        let bits = data.bits() as usize;
        self.words([bits, data.n_features(), data.n_classes(), data.len()].map(|n| n as u64));
        for (levels, label) in data.iter() {
            self.bytes(levels);
            self.words([label as u64]);
        }
        self
    }

    /// Folds in an analog split: shape, every value's bits and every label.
    pub(crate) fn analog(mut self, data: &Dataset) -> Self {
        self.words([data.n_features(), data.n_classes(), data.len()].map(|n| n as u64));
        for (values, label) in data.iter() {
            self.words(values.iter().map(|value| value.to_bits()));
            self.words([label as u64]);
        }
        self
    }

    /// Folds in a tree: shape and the checkpoint encoding of its nodes.
    pub(crate) fn tree(mut self, tree: &DecisionTree) -> Self {
        let bits = tree.bits() as usize;
        self.words([bits, tree.n_features(), tree.n_classes()].map(|n| n as u64));
        self.bytes(encode_nodes(tree.nodes()).as_bytes());
        self
    }

    /// The stamp to write on and expect from journal lines.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// A grid runner's checkpoint journal: the records a previous run left at
/// `path` (last line per grid point), plus an append sink for the points
/// this run completes.
pub(crate) struct Journal<R> {
    path: String,
    stamp: u64,
    restored: HashMap<(usize, u64), R>,
    sink: Mutex<std::fs::File>,
}

impl<R: GridRecord> Journal<R> {
    /// Loads the resumable records at `path` (a missing or unreadable file
    /// holds none) and opens the file for append.
    ///
    /// # Panics
    ///
    /// Panics with `cannot open checkpoint file <path>: <err>` when the
    /// file cannot be opened for append — before the runner starts any
    /// work.
    pub(crate) fn open(path: &str, stamp: u64) -> Self {
        let restored = std::fs::read_to_string(path)
            .map(|text| load_lines::<R>(&text, stamp))
            .unwrap_or_default()
            .into_iter()
            .map(|line| (line.key(), line))
            .collect();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open checkpoint file {path}: {e}"));
        Self {
            path: path.to_owned(),
            stamp,
            restored,
            sink: Mutex::new(file),
        }
    }

    /// The record a previous run left for grid point `key`, if any.
    pub(crate) fn restored(&self, key: (usize, u64)) -> Option<&R> {
        self.restored.get(&key)
    }

    /// Appends one flushed line, so a kill at any moment loses at most the
    /// line being written (a torn final line is skipped on resume).
    /// Best-effort: a full disk must not kill the run, only the resume.
    pub(crate) fn append(&self, record: &R) {
        let line = record.encode(self.stamp);
        let mut file = self.sink.lock().expect("checkpoint file lock");
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }

    /// Closes the sink and [`compact`]s the file to exactly `lines`.
    /// Best-effort, like the appends.
    pub(crate) fn compact(self, lines: &[R]) {
        drop(self.sink);
        let _ = compact(&self.path, self.stamp, lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> DecisionTree {
        DecisionTree::from_nodes(
            4,
            3,
            2,
            vec![
                Node::Split {
                    feature: 1,
                    threshold: 7,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trips_exactly() {
        let line = CheckpointLine {
            tau: 0.005,
            depth: 4,
            test_accuracy: 0.9285714285714286,
            tree: sample_tree(),
        };
        let encoded = line.encode(0x0ADC);
        let decoded = CheckpointLine::decode(&encoded, 0x0ADC).expect("decodes");
        assert_eq!(line, decoded);
    }

    #[test]
    fn rejects_foreign_seed_and_garbage() {
        let line = CheckpointLine {
            tau: 0.0,
            depth: 2,
            test_accuracy: 0.5,
            tree: DecisionTree::constant(4, 1, 2, 0),
        };
        let encoded = line.encode(1);
        assert!(CheckpointLine::decode(&encoded, 2).is_none());
        assert!(CheckpointLine::decode("not json", 1).is_none());
        assert!(CheckpointLine::decode("", 1).is_none());
        // A truncated append (crash mid-write) must not decode.
        assert!(CheckpointLine::decode(&encoded[..encoded.len() / 2], 1).is_none());
    }

    #[test]
    fn skips_nan_accuracy_lines() {
        let line = CheckpointLine {
            tau: 0.0,
            depth: 2,
            test_accuracy: f64::NAN,
            tree: DecisionTree::constant(4, 1, 2, 0),
        };
        // NaN renders as null and the line is rejected on read, forcing a
        // clean re-evaluation of that grid point.
        assert!(CheckpointLine::decode(&line.encode(7), 7).is_none());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last_line() {
        let older = CheckpointLine {
            tau: 0.01,
            depth: 4,
            test_accuracy: 0.6,
            tree: DecisionTree::constant(4, 1, 2, 0),
        };
        let newer = CheckpointLine {
            test_accuracy: 0.8,
            tree: sample_tree(),
            ..older.clone()
        };
        let other = CheckpointLine {
            tau: 0.02,
            depth: 2,
            test_accuracy: 0.7,
            tree: DecisionTree::constant(4, 1, 2, 1),
        };
        let text = format!(
            "{}\n{}\n{}\n",
            older.encode(5),
            other.encode(5),
            newer.encode(5)
        );
        // Last line per (depth, τ) wins; first-seen key order is kept.
        assert_eq!(load_lines::<CheckpointLine>(&text, 5), vec![newer, other]);
    }

    #[test]
    fn compaction_round_trips_and_drops_duplicates() {
        let path = std::env::temp_dir().join(format!(
            "printed-compact-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        let a = CheckpointLine {
            tau: 0.0,
            depth: 2,
            test_accuracy: 0.9,
            tree: sample_tree(),
        };
        let b = CheckpointLine {
            tau: 0.01,
            depth: 3,
            test_accuracy: 0.8,
            tree: DecisionTree::constant(4, 1, 2, 1),
        };
        // A grown file: duplicates, a foreign-seed line, and junk.
        let grown = format!(
            "{}\n{}\njunk\n{}\n{}\n",
            a.encode(3),
            b.encode(3),
            b.encode(99),
            a.encode(3)
        );
        std::fs::write(&path, grown).unwrap();
        let loaded = load_lines::<CheckpointLine>(&std::fs::read_to_string(&path).unwrap(), 3);
        assert_eq!(loaded, vec![a.clone(), b.clone()]);
        compact(&path_str, 3, &loaded).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per key after compaction");
        assert_eq!(load_lines::<CheckpointLine>(&text, 3), vec![a, b]);
        let _ = std::fs::remove_file(&path);
    }

    fn sample_profiled() -> RobustCheckpointLine {
        RobustCheckpointLine::Profiled(CandidateRobustness {
            tau: 0.01,
            depth: 4,
            trials_spent: 11,
            profile: RobustnessProfile {
                nominal: 0.9285714285714286,
                mean_under_mismatch: 0.91,
                min_under_mismatch: 0.85,
                worst_single_fault: 0.6,
                benign_fault_fraction: 0.25,
                droop_margin: 0.2,
                yield_estimate: 0.8181818181818182,
            },
        })
    }

    #[test]
    fn robust_lines_round_trip_both_variants() {
        let profiled = sample_profiled();
        let encoded = profiled.encode(0xB0B);
        assert_eq!(
            RobustCheckpointLine::decode(&encoded, 0xB0B),
            Some(profiled)
        );
        for point in [
            PrunedPoint {
                tau: 0.03,
                depth: 2,
                reason: PruneReason::NominalBelowFloor,
                nominal: 0.7,
                droop_margin: None,
            },
            PrunedPoint {
                tau: 0.05,
                depth: 6,
                reason: PruneReason::DroopMargin,
                nominal: 0.9,
                droop_margin: Some(0.05),
            },
        ] {
            let line = RobustCheckpointLine::Pruned(point);
            let encoded = line.encode(7);
            assert_eq!(RobustCheckpointLine::decode(&encoded, 7), Some(line));
        }
    }

    #[test]
    fn robust_decode_rejects_foreign_and_torn_lines() {
        let line = sample_profiled();
        let encoded = line.encode(1);
        assert!(RobustCheckpointLine::decode(&encoded, 2).is_none());
        assert!(RobustCheckpointLine::decode("junk", 1).is_none());
        assert!(RobustCheckpointLine::decode(&encoded[..encoded.len() / 2], 1).is_none());
        // A sweep checkpoint line is a foreign kind here.
        let sweep = CheckpointLine {
            tau: 0.0,
            depth: 2,
            test_accuracy: 0.5,
            tree: sample_tree(),
        };
        assert!(RobustCheckpointLine::decode(&sweep.encode(1), 1).is_none());
        // NaN metrics render as null and force a re-evaluation.
        let mut nan = sample_profiled();
        if let RobustCheckpointLine::Profiled(row) = &mut nan {
            row.profile.yield_estimate = f64::NAN;
        }
        assert!(RobustCheckpointLine::decode(&nan.encode(1), 1).is_none());
    }

    #[test]
    fn robust_load_is_last_wins_and_compaction_bounds_the_file() {
        let a = sample_profiled();
        let mut newer = a.clone();
        if let RobustCheckpointLine::Profiled(row) = &mut newer {
            row.trials_spent = 24;
        }
        let b = RobustCheckpointLine::Pruned(PrunedPoint {
            tau: 0.02,
            depth: 2,
            reason: PruneReason::DroopMargin,
            nominal: 0.88,
            droop_margin: Some(0.1),
        });
        let grown = format!(
            "{}\n{}\njunk\n{}\n{}\n",
            a.encode(3),
            b.encode(3),
            b.encode(99),
            newer.encode(3)
        );
        assert_eq!(
            load_lines::<RobustCheckpointLine>(&grown, 3),
            vec![newer.clone(), b.clone()]
        );
        let path = std::env::temp_dir().join(format!(
            "printed-robust-compact-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        std::fs::write(&path, grown).unwrap();
        compact(&path_str, 3, &[newer.clone(), b.clone()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(load_lines::<RobustCheckpointLine>(&text, 3), vec![newer, b]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_lines_filters_per_line() {
        let good = CheckpointLine {
            tau: 0.01,
            depth: 6,
            test_accuracy: 0.75,
            tree: sample_tree(),
        };
        let text = format!("{}\njunk line\n{}\n", good.encode(9), good.encode(10));
        let loaded = load_lines::<CheckpointLine>(&text, 9);
        assert_eq!(loaded, vec![good]);
    }

    #[test]
    fn journal_restores_appends_and_compacts() {
        let path = std::env::temp_dir().join(format!(
            "printed-journal-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&path);
        let a = sample_profiled();
        let b = RobustCheckpointLine::Pruned(PrunedPoint {
            tau: 0.02,
            depth: 2,
            reason: PruneReason::NominalBelowFloor,
            nominal: 0.4,
            droop_margin: None,
        });

        let journal = Journal::<RobustCheckpointLine>::open(&path_str, 5);
        assert!(journal.restored(a.key()).is_none());
        journal.append(&a);
        journal.append(&a);
        journal.append(&b);
        drop(journal);

        let journal = Journal::<RobustCheckpointLine>::open(&path_str, 5);
        assert_eq!(journal.restored(a.key()), Some(&a));
        assert_eq!(journal.restored(b.key()), Some(&b));
        journal.compact(&[a.clone(), b.clone()]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            load_lines::<RobustCheckpointLine>(&text, 5),
            vec![a.clone(), b]
        );
        assert_eq!(text.lines().count(), 2);

        // Another stamp restores nothing from the same file.
        let foreign = Journal::<RobustCheckpointLine>::open(&path_str, 6);
        assert!(foreign.restored(a.key()).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_open_on_a_directory_panics_with_the_path() {
        let dir = std::env::temp_dir();
        let path = dir.to_str().unwrap();
        let panic = std::panic::catch_unwind(|| Journal::<RobustCheckpointLine>::open(path, 1))
            .err()
            .expect("a directory cannot be opened for append");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(
            message.starts_with(&format!("cannot open checkpoint file {path}: ")),
            "{message}"
        );
    }

    #[test]
    fn fingerprints_tell_datasets_and_trees_apart() {
        let (_, seeds) = printed_datasets::Benchmark::Seeds
            .load_quantized(4)
            .unwrap();
        let (_, vertebral) = printed_datasets::Benchmark::Vertebral2C
            .load_quantized(4)
            .unwrap();
        let print = |data: &QuantizedDataset| Fingerprint::new(7).quantized(data).finish();
        assert_eq!(print(&seeds), print(&seeds));
        assert_ne!(print(&seeds), print(&vertebral));
        assert_ne!(
            print(&seeds),
            Fingerprint::new(8).quantized(&seeds).finish()
        );
        let tree = |t: &DecisionTree| Fingerprint::new(7).tree(t).finish();
        assert_ne!(
            tree(&sample_tree()),
            tree(&DecisionTree::constant(4, 3, 2, 0))
        );
    }
}
