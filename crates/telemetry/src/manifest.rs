//! Run manifests: what produced a trace, stamped into every NDJSON dump.
//!
//! A trace without provenance is a puzzle: "Seeds, 0.9048 accuracy" means
//! nothing six commits later. [`RunManifest`] pins a trace to the git
//! revision, dataset, and exploration grid that produced it, so the
//! `printed-trace diff` regression gate can refuse to compare runs whose
//! configurations drifted apart.

use std::fs;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{array, JsonLine};

/// Provenance for one traced run: revision, dataset, grid, and wall-clock
/// timestamp. Attach to a [`crate::FlowTrace`] via
/// [`crate::FlowTrace::with_manifest`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Full git commit SHA of the working tree (`"unknown"` when no
    /// repository is discoverable).
    pub git_sha: String,
    /// Benchmark/dataset name the flow ran against.
    pub dataset: String,
    /// Accuracy-loss thresholds (τ) of the exploration grid, ascending.
    pub taus: Vec<f64>,
    /// Tree-depth bounds of the exploration grid, ascending.
    pub depths: Vec<u64>,
    /// RNG seed the exploration ran with.
    pub seed: u64,
    /// Selection constraint: maximum tolerated accuracy loss vs the
    /// reference model.
    pub accuracy_loss: f64,
    /// Unix timestamp (seconds) when the manifest was captured.
    pub unix_secs: u64,
    /// Logical CPUs available to the run (0 = unknown / pre-env manifest).
    pub cpus: u64,
    /// Explicit sweep thread-count override (0 = auto, i.e. all CPUs).
    pub threads: u64,
    /// Build profile the binary was compiled under (`"release"` /
    /// `"debug"`; empty = unknown / pre-env manifest).
    pub build: String,
}

impl RunManifest {
    /// Captures a manifest for `dataset`: resolves the git SHA by walking
    /// up from the current directory and stamps the current time. Grid
    /// parameters start empty; fill them with [`RunManifest::with_grid`].
    pub fn capture(dataset: impl Into<String>) -> Self {
        let git_sha = std::env::current_dir()
            .ok()
            .and_then(|dir| read_git_sha(&dir))
            .unwrap_or_else(|| "unknown".to_owned());
        let unix_secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Self {
            git_sha,
            dataset: dataset.into(),
            unix_secs,
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            build: if cfg!(debug_assertions) {
                "debug".to_owned()
            } else {
                "release".to_owned()
            },
            ..Self::default()
        }
    }

    /// Sets the exploration grid (builder style).
    pub fn with_grid(mut self, taus: &[f64], depths: impl IntoIterator<Item = usize>) -> Self {
        self.taus = taus.to_vec();
        self.depths = depths.into_iter().map(|d| d as u64).collect();
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the selection accuracy-loss constraint (builder style).
    pub fn with_accuracy_loss(mut self, loss: f64) -> Self {
        self.accuracy_loss = loss;
        self
    }

    /// Records an explicit sweep thread-count override (builder style);
    /// `None` means auto (all CPUs), stored as 0.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads.map(|t| t as u64).unwrap_or(0);
        self
    }

    /// Grid points this manifest describes (`taus × depths`).
    pub fn grid_size(&self) -> usize {
        self.taus.len() * self.depths.len()
    }

    /// First eight hex digits of the SHA (or the whole string if shorter).
    pub fn short_sha(&self) -> &str {
        let end = self
            .git_sha
            .char_indices()
            .nth(8)
            .map_or(self.git_sha.len(), |(i, _)| i);
        &self.git_sha[..end]
    }

    /// Renders the manifest as one `{"kind":"manifest"}` NDJSON line.
    pub fn to_json_line(&self) -> String {
        JsonLine::new()
            .str("kind", "manifest")
            .str("git_sha", &self.git_sha)
            .str("dataset", &self.dataset)
            .raw(
                "taus",
                &array(self.taus.iter().map(|t| {
                    let mut buf = String::new();
                    crate::json::push_f64(&mut buf, *t);
                    buf
                })),
            )
            .raw("depths", &array(self.depths.iter().map(u64::to_string)))
            .u64("seed", self.seed)
            .f64("accuracy_loss", self.accuracy_loss)
            .u64("unix_secs", self.unix_secs)
            .u64("cpus", self.cpus)
            .u64("threads", self.threads)
            .str("build", &self.build)
            .finish()
    }
}

/// Resolves the HEAD commit SHA by walking up from `start` to the nearest
/// `.git` directory, then following `HEAD` through loose or packed refs.
/// Pure file reads — no `git` subprocess, so it works in minimal
/// containers and costs microseconds.
fn read_git_sha(start: &Path) -> Option<String> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            let head = fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(reference) => {
                    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
                        return Some(sha.trim().to_owned());
                    }
                    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                    packed.lines().find_map(|line| {
                        line.strip_suffix(reference)
                            .map(|sha| sha.trim().to_owned())
                            .filter(|sha| !sha.is_empty() && !sha.starts_with('#'))
                    })
                }
                None => Some(head.to_owned()),
            };
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_in_this_repo_finds_a_sha() {
        let manifest = RunManifest::capture("Seeds");
        // The workspace is a git repository, so capture must resolve a
        // real 40-hex SHA (not the "unknown" fallback).
        assert_eq!(manifest.git_sha.len(), 40, "sha: {:?}", manifest.git_sha);
        assert!(manifest.git_sha.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(manifest.short_sha().len(), 8);
        assert!(manifest.unix_secs > 1_700_000_000);
        assert_eq!(manifest.dataset, "Seeds");
    }

    #[test]
    fn builders_fill_the_grid() {
        let manifest = RunManifest::capture("WhiteWine")
            .with_grid(&[0.0, 0.005], [2usize, 4, 6])
            .with_seed(42)
            .with_accuracy_loss(0.01);
        assert_eq!(manifest.grid_size(), 6);
        assert_eq!(manifest.depths, vec![2, 4, 6]);
        assert_eq!(manifest.seed, 42);
    }

    #[test]
    fn json_line_has_kind_and_arrays() {
        let line = RunManifest {
            git_sha: "abc123".into(),
            dataset: "Seeds".into(),
            taus: vec![0.0, 0.01],
            depths: vec![4, 6],
            seed: 7,
            accuracy_loss: 0.005,
            unix_secs: 1_750_000_000,
            cpus: 8,
            threads: 0,
            build: "release".into(),
        }
        .to_json_line();
        assert!(line.starts_with(r#"{"kind":"manifest""#));
        assert!(line.contains(r#""taus":[0.0,0.01]"#));
        assert!(line.contains(r#""depths":[4,6]"#));
        assert!(line.contains(r#""git_sha":"abc123""#));
        assert!(line.contains(r#""cpus":8"#));
        assert!(line.contains(r#""build":"release""#));
    }

    #[test]
    fn capture_fingerprints_the_environment() {
        let manifest = RunManifest::capture("Seeds");
        assert!(manifest.cpus > 0);
        assert!(matches!(manifest.build.as_str(), "debug" | "release"));
        assert_eq!(manifest.threads, 0, "auto");
        assert_eq!(manifest.with_threads(Some(4)).threads, 4);
    }

    #[test]
    fn short_sha_handles_short_strings() {
        let manifest = RunManifest {
            git_sha: "abc".into(),
            ..RunManifest::default()
        };
        assert_eq!(manifest.short_sha(), "abc");
    }
}
