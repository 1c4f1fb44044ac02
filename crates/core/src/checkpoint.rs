//! Checkpoint/resume for the Algorithm-2 episode loop.
//!
//! A [`Checkpoint`] snapshots everything a killed `lcda search` run needs
//! to continue: the run configuration, the optimizer's name and every
//! episode record so far. An LLM optimizer's conversation transcript is
//! not stored: replay (below) rebuilds it exchange for exchange. Each
//! exchange holds how its prompt was built, not the text, and
//! `LlmOptimizer::prompt` renders it again from the replayed history.
//! The snapshot is written as JSON after every episode via an atomic
//! temp-file + rename, so a kill at any instant leaves either the
//! previous or the new checkpoint on disk — never a torn file.
//!
//! Resume does **not** serialize RNG internals. Instead
//! [`crate::CoDesign`] *replays* the recorded episodes through the
//! freshly seeded optimizer — re-running `propose`/`observe` without
//! touching the (expensive) evaluators — which restores optimizer state,
//! RNG streams, and transcript bit-exactly. Replay cross-checks each
//! re-proposed design against the recorded one and fails with
//! [`crate::CoreError::Checkpoint`] when the checkpoint belongs to a
//! different config or seed.
//!
//! # Durability
//!
//! Saves are atomic, durable and checksummed, and [`CheckpointStore`]
//! keeps the last *N* generations (`--keep-checkpoints N`), falling back
//! to the newest one that verifies. `durable.rs` holds these rules for
//! every artifact.

use crate::codesign::{CoDesignConfig, EpisodeRecord};
use crate::durable::{
    from_checksummed_json, generation_path, load_checksummed, rotate_generations, save_checksummed,
    to_checksummed_json,
};
use crate::pipeline::EvalCache;
use crate::{CoreError, Result};
use std::path::{Path, PathBuf};

/// Format version stamped into every checkpoint file.
pub const CHECKPOINT_VERSION: u32 = 1;

fn default_backend_name() -> String {
    crate::backend::DEFAULT_BACKEND.to_string()
}

/// A point-in-time snapshot of a co-design run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The run configuration (objective, episode budget, master seed).
    pub config: CoDesignConfig,
    /// Name of the optimizer that produced the history.
    pub optimizer: String,
    /// Name of the hardware backend the history was evaluated under.
    /// Checkpoints written before the backend layer existed carry no such
    /// field and default to `cim` — the only hardware model of that era —
    /// so they load and resume unchanged.
    pub backend: String,
    /// Digest of the resolved [`crate::hwconfig::HwHierarchy`] the
    /// history was evaluated under (see
    /// [`crate::hwconfig::HwHierarchy::digest`]). Checkpoints written
    /// before hardware became data carry no such field and load as
    /// `None`; resume only rejects a checkpoint whose *recorded* digest
    /// disagrees with the resuming run's hierarchy.
    pub hw_digest: Option<String>,
    /// Every completed episode, in order. For LLM optimizers replay
    /// rebuilds the conversation transcript from it, so the transcript is
    /// not stored (older files that carry one still load; the entry is
    /// ignored).
    pub history: Vec<EpisodeRecord>,
    /// The evaluation memo table ([`crate::pipeline::EvalCache`]), so a
    /// resumed run re-serves already-evaluated designs from memory.
    /// Optional: checkpoints written before the pipeline existed (or by
    /// runs with caching off) load fine without it.
    pub eval_cache: Option<EvalCache>,
}

lcda_base::impl_json!(struct Checkpoint {
    version,
    config,
    optimizer,
    #[default = default_backend_name] backend,
    #[skip_if = Option::is_none] hw_digest,
    history,
    #[skip_if = Option::is_none] eval_cache,
});

impl Checkpoint {
    /// Snapshots a run in progress.
    pub fn new(
        config: CoDesignConfig,
        optimizer: impl Into<String>,
        history: Vec<EpisodeRecord>,
    ) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config,
            optimizer: optimizer.into(),
            backend: default_backend_name(),
            hw_digest: None,
            history,
            eval_cache: None,
        }
    }

    /// Attaches the evaluation memo table (builder style).
    #[must_use]
    pub fn with_eval_cache(mut self, cache: EvalCache) -> Self {
        self.eval_cache = Some(cache);
        self
    }

    /// Stamps the hardware backend name (builder style).
    #[must_use]
    pub fn with_backend(mut self, backend: impl Into<String>) -> Self {
        self.backend = backend.into();
        self
    }

    /// Stamps the hardware hierarchy digest (builder style).
    #[must_use]
    pub fn with_hw_digest(mut self, digest: Option<String>) -> Self {
        self.hw_digest = digest;
        self
    }

    /// Number of completed episodes in the snapshot. Returned as `u64`:
    /// the former `as u32` cast silently truncated oversized histories.
    pub fn episodes_done(&self) -> u64 {
        self.history.len() as u64
    }

    /// Serializes to pretty JSON with an embedded content checksum.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when serialization fails.
    pub fn to_json(&self) -> Result<String> {
        to_checksummed_json(self)
    }

    /// Deserializes from JSON, verifying the content checksum (when
    /// present — pre-checksum files load unverified) and the format
    /// version.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] for malformed JSON, a checksum
    /// mismatch (corruption), or an unsupported version.
    pub fn from_json(json: &str) -> Result<Self> {
        from_checksummed_json(json).and_then(Self::supported)
    }

    /// Rejects a checkpoint of another format version.
    fn supported(self) -> Result<Self> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CoreError::Checkpoint(format!(
                "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
                self.version
            )));
        }
        Ok(self)
    }

    /// Writes the checkpoint atomically **and durably**: serialize to
    /// `<file>.tmp`, fsync it, rename over `path`, then fsync the parent
    /// directory. A kill at any instant leaves either the previous or
    /// the new checkpoint — never a torn file — and a power cut after
    /// return cannot unpublish the rename.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on serialization or I/O failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        save_checksummed(path, self)
    }

    /// Reads a checkpoint from disk.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when the file cannot be read or
    /// parsed.
    pub fn load(path: &Path) -> Result<Self> {
        load_checksummed(path).and_then(Self::supported)
    }
}

/// Generation-rotating checkpoint persistence (`--keep-checkpoints N`):
/// `run.json` is the newest generation, `run.json.1` the previous one,
/// and so on. Only the newest `keep` generations stay on disk.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    path: PathBuf,
    keep: u32,
}

impl CheckpointStore {
    /// A store rotating up to `keep` generations at `path` (min 1 —
    /// `keep == 1` is plain non-rotating persistence).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for `keep == 0`.
    pub fn new(path: impl Into<PathBuf>, keep: u32) -> Result<Self> {
        if keep == 0 {
            return Err(CoreError::InvalidConfig(
                "checkpoint generations to keep must be at least 1".into(),
            ));
        }
        Ok(CheckpointStore {
            path: path.into(),
            keep,
        })
    }

    /// The generation-0 path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many generations are kept.
    pub fn keep(&self) -> u32 {
        self.keep
    }

    /// The on-disk path of a generation (0 = newest = the base path).
    pub fn generation_path(&self, generation: u32) -> PathBuf {
        generation_path(&self.path, generation)
    }

    /// Rotates existing generations up and writes `checkpoint` as
    /// generation 0 (atomically and durably, via [`Checkpoint::save`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on rotation or write failure.
    pub fn save(&self, checkpoint: &Checkpoint) -> Result<()> {
        rotate_generations(&self.path, self.keep)?;
        checkpoint.save(&self.path)
    }

    /// Loads the newest generation that parses and verifies, returning
    /// it with its generation index. `Ok(None)` when no generation file
    /// exists (a fresh run).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when generation files exist but
    /// none verifies, naming the newest failure and its generation.
    pub fn load_latest(&self) -> Result<Option<(Checkpoint, u32)>> {
        let mut newest_failure: Option<(u32, CoreError)> = None;
        for generation in 0..self.keep {
            let path = self.generation_path(generation);
            if path.exists() {
                match Checkpoint::load(&path) {
                    Ok(checkpoint) => return Ok(Some((checkpoint, generation))),
                    Err(e) => _ = newest_failure.get_or_insert((generation, e)),
                }
            }
        }
        match newest_failure {
            None => Ok(None),
            Some((generation, e)) => Err(CoreError::Checkpoint(format!(
                "no valid checkpoint generation under {} (newest failure: generation {generation}: {e})",
                self.path.display()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{to_checksummed_compact_json, CHECKSUM_KEY};
    use crate::reward::Objective;
    use lcda_base::json::Value;

    fn cfg() -> CoDesignConfig {
        CoDesignConfig::builder(Objective::AccuracyEnergy)
            .episodes(4)
            .seed(7)
            .build()
    }

    #[test]
    fn checksum_is_stable_across_write_parse_write() {
        let cp = Checkpoint::new(cfg(), "random", Vec::new())
            .with_hw_digest(Some("0123456789abcdef".into()))
            .with_eval_cache(EvalCache::new("deadbeefdeadbeef"));
        let first = cp.to_json().unwrap();
        assert!(first.starts_with("{\n  \"checksum\": \""), "{first}");
        let second = Checkpoint::from_json(&first).unwrap().to_json().unwrap();
        assert_eq!(first, second);
        // The compact form carries the same digest.
        let compact = to_checksummed_compact_json(&cp).unwrap();
        let digest = |text: &str| Value::parse(text).unwrap()[CHECKSUM_KEY].clone();
        assert_eq!(digest(&compact), digest(&first));
    }

    /// Every durable artifact saves the bytes its `to_json` renders, and
    /// the streamed checksum is the fingerprint of the compact text.
    #[test]
    fn saves_stream_exactly_what_to_json_renders() {
        use crate::codesign::{CoDesign, OptimizerSpec};
        use crate::pipeline::stable_fingerprint;
        use crate::space::DesignSpace;

        let dir = std::env::temp_dir().join(format!("lcda-ckpt-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let saved_as = |path: &Path, expected: String| {
            let text = std::fs::read_to_string(path).unwrap();
            assert_eq!(text, expected, "{}", path.display());
            let mut value = Value::parse(&text).unwrap();
            let recorded = value.remove(CHECKSUM_KEY).unwrap();
            let fingerprint = stable_fingerprint(&[&value.to_string()]);
            assert_eq!(recorded.as_str(), Some(fingerprint.as_str()));
        };

        // A checkpoint of a real run: history plus a filled eval_cache.
        let mut last = None;
        CoDesign::builder(DesignSpace::tiny_test(), cfg())
            .optimizer(OptimizerSpec::Random)
            .build()
            .unwrap()
            .run_resumable(None, |cp| {
                last = Some(cp.clone());
                Ok(())
            })
            .unwrap();
        let cp = last.unwrap();
        assert!(cp.eval_cache.as_ref().is_some_and(|c| !c.is_empty()));
        cp.save(&dir.join("run.json")).unwrap();
        saved_as(&dir.join("run.json"), cp.to_json().unwrap());

        // A cache store, with a key that needs escaping.
        let store = crate::cache::CacheStore::new();
        let mut session = store.session("deadbeefdeadbeef");
        session.insert_accuracy("[[32,3]] | \"quoted\"".into(), 0.875);
        session.insert_hardware("[[64,5]]".into(), None);
        store.save(&dir.join("store.json")).unwrap();
        saved_as(&dir.join("store.json"), store.to_json().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_roundtrip() {
        let cp = Checkpoint::new(cfg(), "lcda/sim-llm/pretrained", Vec::new());
        let json = cp.to_json().unwrap();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(cp, back);
        assert_eq!(back.episodes_done(), 0);
    }

    /// Drops the embedded checksum line, producing the legacy
    /// (pre-checksum) file shape that loads without verification.
    fn strip_checksum(json: &str) -> String {
        json.lines()
            .filter(|l| !l.trim_start().starts_with("\"checksum\""))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn version_mismatch_rejected() {
        let cp = Checkpoint::new(cfg(), "x", Vec::new());
        // Strip the checksum so the (older) version gate is what fires,
        // not the corruption gate.
        let json =
            strip_checksum(&cp.to_json().unwrap()).replace("\"version\": 1", "\"version\": 99");
        match Checkpoint::from_json(&json) {
            Err(CoreError::Checkpoint(msg)) => assert!(msg.contains("version")),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn tampered_json_fails_the_checksum() {
        let cp = Checkpoint::new(cfg(), "random", Vec::new());
        let json = cp
            .to_json()
            .unwrap()
            .replace("\"version\": 1", "\"version\": 99");
        match Checkpoint::from_json(&json) {
            Err(CoreError::Checkpoint(msg)) => {
                assert!(msg.contains("checksum mismatch"), "{msg}")
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn checksum_roundtrip_and_legacy_files_load_unverified() {
        let cp = Checkpoint::new(cfg(), "random", Vec::new());
        let json = cp.to_json().unwrap();
        assert!(json.contains("\"checksum\""));
        assert_eq!(Checkpoint::from_json(&json).unwrap(), cp);
        // A pre-checksum file has no checksum key and still loads.
        let legacy = strip_checksum(&json);
        assert!(!legacy.contains("checksum"));
        assert_eq!(Checkpoint::from_json(&legacy).unwrap(), cp);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            Checkpoint::from_json("{not json"),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lcda-ckpt-test-{}.json", std::process::id()));
        let cp = Checkpoint::new(cfg(), "random", Vec::new());
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(cp, back);
        // No stray temp file left behind (`<file>.tmp`, appended so
        // rotated generations like `run.json.1` don't collide).
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        assert!(!path.with_file_name(format!("{name}.tmp")).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eval_cache_rides_along_and_legacy_json_loads_without_it() {
        let cp = Checkpoint::new(cfg(), "random", Vec::new())
            .with_eval_cache(EvalCache::new("deadbeefdeadbeef"));
        let json = cp.to_json().unwrap();
        assert!(json.contains("eval_cache"));
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(
            back.eval_cache.as_ref().unwrap().context(),
            "deadbeefdeadbeef"
        );

        // A pre-pipeline checkpoint has no eval_cache key at all.
        let legacy = Checkpoint::new(cfg(), "random", Vec::new());
        let back = Checkpoint::from_json(&legacy.to_json().unwrap()).unwrap();
        assert!(back.eval_cache.is_none());
    }

    #[test]
    fn backend_stamp_roundtrips_and_legacy_json_defaults_to_cim() {
        let cp = Checkpoint::new(cfg(), "random", Vec::new()).with_backend("systolic");
        let back = Checkpoint::from_json(&cp.to_json().unwrap()).unwrap();
        assert_eq!(back.backend, "systolic");

        // A pre-backend checkpoint has no `backend` key at all (and, being
        // that old, no checksum either); it must load under the default
        // `cim` backend (forward compatibility).
        let json = Checkpoint::new(cfg(), "random", Vec::new())
            .to_json()
            .unwrap();
        let legacy: String = strip_checksum(&json)
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"backend\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!legacy.contains("backend"));
        let back = Checkpoint::from_json(&legacy).unwrap();
        assert_eq!(back.backend, "cim");
    }

    #[test]
    fn load_missing_file_errors() {
        let path = std::env::temp_dir().join("lcda-ckpt-definitely-missing.json");
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
    }

    fn temp_store(tag: &str, keep: u32) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("lcda-ckpt-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        CheckpointStore::new(dir.join("run.json"), keep).unwrap()
    }

    fn snapshot(episodes: u32) -> Checkpoint {
        Checkpoint::new(
            CoDesignConfig::builder(Objective::AccuracyEnergy)
                .episodes(episodes)
                .seed(7)
                .build(),
            "random",
            Vec::new(),
        )
    }

    #[test]
    fn store_rejects_zero_keep() {
        assert!(matches!(
            CheckpointStore::new("run.json", 0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn store_rotates_generations_and_drops_the_oldest() {
        let store = temp_store("rotate", 2);
        store.save(&snapshot(1)).unwrap();
        store.save(&snapshot(2)).unwrap();
        store.save(&snapshot(3)).unwrap();
        assert!(store.generation_path(0).exists());
        assert!(store.generation_path(1).exists());
        assert!(
            !store.generation_path(2).exists(),
            "keep=2 must never leave a third generation"
        );
        let (newest, generation) = store.load_latest().unwrap().unwrap();
        assert_eq!(generation, 0);
        assert_eq!(newest.config.episodes, 3);
        let previous = Checkpoint::load(&store.generation_path(1)).unwrap();
        assert_eq!(previous.config.episodes, 2);
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }

    #[test]
    fn store_falls_back_to_previous_valid_generation() {
        let store = temp_store("fallback", 3);
        store.save(&snapshot(1)).unwrap();
        store.save(&snapshot(2)).unwrap();
        // Corrupt the newest generation with a mid-file bit flip.
        let g0 = store.generation_path(0);
        let mut bytes = std::fs::read(&g0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&g0, bytes).unwrap();
        let (cp, generation) = store.load_latest().unwrap().unwrap();
        assert_eq!(generation, 1, "corrupted newest must fall back");
        assert_eq!(cp.config.episodes, 1);
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }

    #[test]
    fn store_with_no_files_is_a_fresh_run() {
        let store = temp_store("fresh", 2);
        assert!(store.load_latest().unwrap().is_none());
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }

    #[test]
    fn store_errors_when_every_generation_is_corrupt() {
        let store = temp_store("allbad", 2);
        store.save(&snapshot(1)).unwrap();
        store.save(&snapshot(2)).unwrap();
        for g in 0..2 {
            std::fs::write(store.generation_path(g), b"{garbage").unwrap();
        }
        match store.load_latest() {
            Err(CoreError::Checkpoint(msg)) => {
                assert!(msg.contains("no valid checkpoint generation"), "{msg}")
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }
}
