//! Checkpoint/resume for the Algorithm-2 episode loop.
//!
//! A [`Checkpoint`] snapshots everything a killed `lcda search` run needs
//! to continue: the run configuration, the optimizer's name and every
//! episode record so far. An LLM optimizer's conversation transcript is
//! not stored: each prompt re-lists the history, so the transcript grows
//! quadratically with the episode count, and replay (below) rebuilds it
//! exchange for exchange. The snapshot is written as JSON after every
//! episode via an atomic temp-file + rename, so a kill at any instant
//! leaves either the previous or the new checkpoint on disk — never a
//! torn file.
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
//! # Durability and corruption
//!
//! The atomic rename protects against *torn* files, but not against a
//! crash before the data reaches the platter, nor against on-disk bit
//! rot. Three further layers close those holes:
//!
//! - [`Checkpoint::save`] fsyncs the temp file before the rename and the
//!   parent directory after it, so a published checkpoint survives a
//!   power cut;
//! - every checkpoint embeds a content **checksum** (a stable FNV digest
//!   of its canonical JSON), verified on load — silent corruption is a
//!   typed [`CoreError::Checkpoint`] instead of garbage state (files
//!   written before the checksum existed load without verification);
//! - [`CheckpointStore`] keeps the last *N* **generations**
//!   (`--keep-checkpoints N`): `run.json` is the newest, `run.json.1`
//!   the previous one, and so on; [`CheckpointStore::load_latest`] falls
//!   back to the newest generation that still verifies.

use crate::codesign::{CoDesignConfig, EpisodeRecord};
use crate::pipeline::{EvalCache, Fnv};
use crate::{CoreError, Result};
use lcda_base::json::{FromJson, ToJson, Value};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Format version stamped into every checkpoint file.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The JSON key carrying the content checksum. Not a struct field:
/// the checksum describes the file, not the run, and keeping it out of
/// [`Checkpoint`] keeps `PartialEq`/round-trip semantics value-based.
const CHECKSUM_KEY: &str = "checksum";

fn default_backend_name() -> String {
    crate::backend::DEFAULT_BACKEND.to_string()
}

/// The content checksum of a checkpoint JSON value (without its
/// checksum field): a stable FNV digest of the compact serialization,
/// equal to `stable_fingerprint(&[&value.to_string()])`. The compact text
/// is streamed into the hasher, never held as a string. Objects keep
/// their entry order through a parse, so the digest is the same before a
/// write and after the read.
fn checksum_of(value: &Value) -> String {
    let mut h = Fnv::default();
    // Writing into the hasher cannot fail.
    let _ = write!(h, "{value}");
    h.end_part();
    h.hex()
}

/// `artifact`'s JSON object with its content checksum as the first
/// entry, so the checksum leads the file.
fn with_checksum<T: ToJson>(artifact: &T) -> Result<Value> {
    let mut value = artifact.to_json();
    let digest = checksum_of(&value);
    let Value::Object(entries) = &mut value else {
        return Err(CoreError::Checkpoint(
            "serialize: artifact did not form a JSON object".into(),
        ));
    };
    entries.insert(0, (CHECKSUM_KEY.to_string(), Value::String(digest)));
    Ok(value)
}

/// Serializes any durable artifact to pretty JSON with an embedded
/// content checksum (shared by [`Checkpoint`], the shard manifest and
/// the cache store): the bytes [`save_checksummed`] writes, as a string.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] when the value does not form a JSON
/// object.
pub(crate) fn to_checksummed_json<T: ToJson>(artifact: &T) -> Result<String> {
    Ok(format!("{:#}", with_checksum(artifact)?))
}

/// Saves a durable artifact to `path` as [`to_checksummed_json`] renders
/// it, atomically and durably ([`atomic_write`]). The pretty body streams
/// from the JSON tree into the file, so neither the compact text (for
/// the checksum) nor the pretty text is ever held in memory.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] when the value does not form a JSON
/// object, or on I/O failure.
pub(crate) fn save_checksummed<T: ToJson>(path: &Path, artifact: &T) -> Result<()> {
    let value = with_checksum(artifact)?;
    atomic_write(path, |out| write!(out, "{value:#}"))
}

/// Serializes a durable artifact to **compact** single-line JSON with an
/// embedded content checksum — the WAL-line variant of
/// [`to_checksummed_json`] (a write-ahead log needs one record per
/// line, so pretty printing is out).
///
/// # Errors
///
/// As [`to_checksummed_json`].
pub(crate) fn to_checksummed_compact_json<T: ToJson>(artifact: &T) -> Result<String> {
    Ok(with_checksum(artifact)?.to_string())
}

/// Parses a checksummed JSON artifact, verifying and stripping the
/// embedded checksum (when present — pre-checksum files pass
/// unverified). Returns the cleaned value for [`FromJson::from_json`].
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] for malformed JSON or a checksum
/// mismatch.
pub(crate) fn from_checksummed_json(json: &str) -> Result<Value> {
    let mut value = Value::parse(json).map_err(|e| CoreError::Checkpoint(format!("parse: {e}")))?;
    if let Some(recorded) = value.remove(CHECKSUM_KEY) {
        let computed = checksum_of(&value);
        if recorded.as_str() != Some(computed.as_str()) {
            return Err(CoreError::Checkpoint(format!(
                "checksum mismatch (corrupted file): recorded {recorded}, computed \"{computed}\""
            )));
        }
    }
    Ok(value)
}

/// Writes a file atomically **and durably**: `write` fills `<file>.tmp`
/// through a buffer, which is fsynced, renamed over `path`, and then the
/// parent directory is fsynced (unix). A kill at any instant leaves
/// either the previous or the new file — never a torn one.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on I/O failure.
pub(crate) fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint");
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let write_error =
        |e: &dyn std::fmt::Display| CoreError::Checkpoint(format!("write {}: {e}", tmp.display()));
    let file = File::create(&tmp)
        .map_err(|e| CoreError::Checkpoint(format!("create {}: {e}", tmp.display())))?;
    let mut out = BufWriter::new(file);
    write(&mut out).map_err(|e| write_error(&e))?;
    let file = out.into_inner().map_err(|e| write_error(e.error()))?;
    file.sync_all()
        .map_err(|e| CoreError::Checkpoint(format!("fsync {}: {e}", tmp.display())))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| CoreError::Checkpoint(format!("rename to {}: {e}", path.display())))?;
    // Durability of the rename itself requires fsyncing the directory
    // entry (POSIX; meaningless and unsupported on other platforms).
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let dir = std::fs::File::open(&parent)
            .map_err(|e| CoreError::Checkpoint(format!("open {}: {e}", parent.display())))?;
        dir.sync_all()
            .map_err(|e| CoreError::Checkpoint(format!("fsync {}: {e}", parent.display())))?;
    }
    Ok(())
}

/// The on-disk path of a rotated generation (0 = newest = `base`;
/// generation *k* is `<base>.k`).
pub(crate) fn generation_path(base: &Path, generation: u32) -> PathBuf {
    if generation == 0 {
        base.to_path_buf()
    } else {
        let name = base
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("checkpoint");
        base.with_file_name(format!("{name}.{generation}"))
    }
}

/// Shifts existing generations of `base` up by one, dropping the oldest
/// beyond `keep` (the rotation half of a generation-rotating save).
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on a failed rename.
pub(crate) fn rotate_generations(base: &Path, keep: u32) -> Result<()> {
    for generation in (0..keep.saturating_sub(1)).rev() {
        let from = generation_path(base, generation);
        if from.exists() {
            let to = generation_path(base, generation + 1);
            std::fs::rename(&from, &to).map_err(|e| {
                CoreError::Checkpoint(format!(
                    "rotate {} -> {}: {e}",
                    from.display(),
                    to.display()
                ))
            })?;
        }
    }
    Ok(())
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
        let value = from_checksummed_json(json)?;
        let cp = <Checkpoint as FromJson>::from_json(&value)
            .map_err(|e| CoreError::Checkpoint(format!("parse: {e}")))?;
        if cp.version != CHECKPOINT_VERSION {
            return Err(CoreError::Checkpoint(format!(
                "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
                cp.version
            )));
        }
        Ok(cp)
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
        let json = std::fs::read_to_string(path)
            .map_err(|e| CoreError::Checkpoint(format!("read {}: {e}", path.display())))?;
        Checkpoint::from_json(&json)
    }
}

/// Generation-rotating checkpoint persistence (`--keep-checkpoints N`).
///
/// Generation 0 is `path` itself; generation *k* is `<path>.k`. Each
/// [`CheckpointStore::save`] shifts the existing generations up by one
/// (dropping the oldest beyond the keep budget) before writing the new
/// snapshot, so the last `keep` snapshots survive on disk.
/// [`CheckpointStore::load_latest`] returns the newest generation that
/// still verifies — a corrupted `run.json` falls back to `run.json.1`,
/// and deterministic replay makes resuming from an older generation
/// converge to the identical outcome.
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
    /// none verifies, naming the newest failure.
    pub fn load_latest(&self) -> Result<Option<(Checkpoint, u32)>> {
        let mut newest_failure: Option<(u32, CoreError)> = None;
        for generation in 0..self.keep {
            let path = self.generation_path(generation);
            if !path.exists() {
                continue;
            }
            match Checkpoint::load(&path) {
                Ok(checkpoint) => return Ok(Some((checkpoint, generation))),
                Err(e) => {
                    if newest_failure.is_none() {
                        newest_failure = Some((generation, e));
                    }
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
    use crate::reward::Objective;

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
        use crate::shard::{manifest_path, ShardPlan, Supervisor};
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

        // The last manifest a fleet saved.
        let base = dir.join("fleet.json");
        let mut manifest = None;
        let mut plan = ShardPlan::new(2);
        plan.barrier_interval = 2;
        Supervisor::new(DesignSpace::tiny_test(), cfg(), plan)
            .checkpoints(&base, 1)
            .run_with(|_, m| {
                manifest = Some(m.clone());
                Ok(())
            })
            .unwrap();
        saved_as(&manifest_path(&base), manifest.unwrap().to_json().unwrap());

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
