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
/// `.git`, then following `HEAD` through loose or packed refs.
///
/// A `.git` directory is the git directory itself. A `.git` file (a linked
/// worktree or a submodule) names it in a `gitdir: <path>` line, relative
/// to the file's directory. `HEAD` is read there, and refs resolve in the
/// git directory's `commondir` when it has one (a worktree shares its main
/// repository's refs). Pure file reads — no `git` subprocess, so it works
/// in minimal containers and costs microseconds.
fn read_git_sha(start: &Path) -> Option<String> {
    let git = start
        .ancestors()
        .map(|dir| dir.join(".git"))
        .find(|git| git.exists())?;
    let git_dir = if git.is_dir() {
        git
    } else {
        let link = fs::read_to_string(&git).ok()?;
        let target = link.trim().strip_prefix("gitdir:")?.trim();
        git.parent()?.join(target)
    };
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    let refs = match fs::read_to_string(git_dir.join("commondir")) {
        Ok(common) => git_dir.join(common.trim()),
        Err(_) => git_dir,
    };
    if let Ok(sha) = fs::read_to_string(refs.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = fs::read_to_string(refs.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_owned())
    })
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
    }

    const SHA_A: &str = "1111111111111111111111111111111111111111";
    const SHA_B: &str = "2222222222222222222222222222222222222222";

    /// A fresh directory under the system temp dir, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("printed-manifest-{name}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        /// Writes `contents` to `rel`, creating parent directories.
        fn write(&self, rel: &str, contents: &str) -> &Self {
            let path = self.0.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, contents).unwrap();
            self
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn git_directory_resolves_a_loose_ref() {
        let repo = Scratch::new("loose");
        repo.write(".git/HEAD", "ref: refs/heads/main\n")
            .write(".git/refs/heads/main", &format!("{SHA_A}\n"))
            .write("src/lib.rs", "");
        assert_eq!(read_git_sha(&repo.0.join("src")).as_deref(), Some(SHA_A));
    }

    #[test]
    fn git_directory_resolves_a_packed_ref_by_exact_name() {
        let repo = Scratch::new("packed");
        // `refs/heads/backup/refs/heads/main` (branch
        // `backup/refs/heads/main`) ends with the wanted name; only the
        // exact `<sha> <ref>` line may match.
        repo.write(".git/HEAD", "ref: refs/heads/main\n").write(
            ".git/packed-refs",
            &format!(
                "# pack-refs with: peeled fully-peeled sorted\n\
                 {SHA_B} refs/heads/backup/refs/heads/main\n\
                 {SHA_A} refs/heads/main\n\
                 ^{SHA_B}\n"
            ),
        );
        assert_eq!(read_git_sha(&repo.0).as_deref(), Some(SHA_A));
    }

    #[test]
    fn detached_head_is_the_sha_itself() {
        let repo = Scratch::new("detached");
        repo.write(".git/HEAD", &format!("{SHA_B}\n"));
        assert_eq!(read_git_sha(&repo.0).as_deref(), Some(SHA_B));
    }

    #[test]
    fn worktree_git_file_resolves_refs_in_the_common_dir() {
        let root = Scratch::new("worktree");
        // The main repository's refs; its own HEAD is elsewhere.
        root.write("main/.git/HEAD", "ref: refs/heads/main\n")
            .write("main/.git/refs/heads/main", &format!("{SHA_A}\n"))
            .write("main/.git/refs/heads/topic", &format!("{SHA_B}\n"))
            .write("main/.git/worktrees/wt/HEAD", "ref: refs/heads/topic\n")
            .write("main/.git/worktrees/wt/commondir", "../..\n")
            .write("wt/.git", "gitdir: ../main/.git/worktrees/wt\n");
        assert_eq!(read_git_sha(&root.0.join("wt")).as_deref(), Some(SHA_B));
    }

    #[test]
    fn submodule_git_file_does_not_fall_through_to_the_superproject() {
        let root = Scratch::new("submodule");
        root.write(".git/HEAD", "ref: refs/heads/main\n")
            .write(".git/refs/heads/main", &format!("{SHA_A}\n"))
            .write(".git/modules/sub/HEAD", &format!("{SHA_B}\n"))
            .write("sub/.git", "gitdir: ../.git/modules/sub\n");
        assert_eq!(read_git_sha(&root.0.join("sub")).as_deref(), Some(SHA_B));
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
