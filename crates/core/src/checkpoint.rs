//! Checkpoint/resume for the Algorithm-2 episode loop.
//!
//! A [`Checkpoint`] snapshots everything a killed `lcda search` run needs
//! to continue: the run configuration, the optimizer's name, every
//! episode record so far and the evaluation memo table. An LLM
//! optimizer's conversation transcript is not stored: replay (below)
//! rebuilds it exchange for exchange. Each exchange holds how its prompt
//! was built, not the text, and `LlmOptimizer::prompt` renders it again
//! from the replayed history.
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
//! # The checkpoint log
//!
//! [`CheckpointStore`] persists a run as an append-only JSONL log, so a
//! save costs what the episode added, not the whole history. The first
//! line is a header: version, config, optimizer, backend, hardware digest
//! and the memo table's context. Each save appends one checksummed line
//! holding only the episodes and memo entries the log does not hold yet,
//! and fsyncs it. A save starts a new log — written atomically, rotating
//! the older logs into generations (`--keep-checkpoints N`) — only when
//! no log of the same header is open or on disk, or when the checkpoint
//! no longer extends what the log holds. Loading salvages a torn final
//! line; a bad header or mid-file damage falls back to the previous
//! generation. A whole-file checkpoint ([`Checkpoint::save`], and every
//! file written before the log) still loads. `durable.rs` holds these
//! rules for every artifact.

use crate::cache::Key;
use crate::codesign::{CoDesignConfig, EpisodeRecord};
use crate::durable::{
    append_line, atomic_write, from_checksummed_json, generation_path, open_jsonl,
    rotate_generations, save_checksummed, to_checksummed_compact_json, to_checksummed_json,
    valid_jsonl_prefix,
};
use crate::evaluate::HwMetrics;
use crate::pipeline::{EvalCache, Fnv};
use crate::{lock, CoreError, Result};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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
        check_version(self.version)?;
        Ok(self)
    }

    /// Writes the checkpoint as one whole file, atomically **and
    /// durably**: serialize to `<file>.tmp`, fsync it, rename over
    /// `path`, then fsync the parent directory. A kill at any instant
    /// leaves either the previous or the new checkpoint — never a torn
    /// file — and a power cut after return cannot unpublish the rename.
    /// A run saving every episode wants [`CheckpointStore::save`], which
    /// appends only what changed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on serialization or I/O failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        save_checksummed(path, self)
    }

    /// Reads a checkpoint from disk: a checkpoint log
    /// ([`CheckpointStore`]), salvaging a torn final line, or a whole
    /// file ([`Checkpoint::save`]), which is pretty JSON and so starts
    /// with a lone `{` line.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when the file cannot be read or
    /// parsed, fails a checksum, or is damaged before its final line.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| CoreError::Checkpoint(format!("read {}: {e}", path.display())))?;
        if bytes.starts_with(b"{\n") {
            let text = std::str::from_utf8(&bytes)
                .map_err(|e| CoreError::Checkpoint(format!("parse: {e}")))?;
            return Self::from_json(text);
        }
        let mut log = None;
        valid_jsonl_prefix(path, &bytes, CoreError::Checkpoint, |line| {
            decode_log_line(&mut log, line)
        })?;
        log.ok_or_else(|| CoreError::Checkpoint(format!("{}: no log header", path.display())))
    }
}

fn check_version(version: u32) -> Result<()> {
    if version != CHECKPOINT_VERSION {
        return Err(CoreError::Checkpoint(format!(
            "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )));
    }
    Ok(())
}

/// The first line of a checkpoint log: everything of a [`Checkpoint`]
/// except its history and memo entries. `cache_context` is the memo
/// table's context, `None` for a run with caching off.
struct LogHeader {
    version: u32,
    config: CoDesignConfig,
    optimizer: String,
    backend: String,
    hw_digest: Option<String>,
    cache_context: Option<String>,
}

lcda_base::impl_json!(struct LogHeader {
    version,
    config,
    optimizer,
    backend,
    #[skip_if = Option::is_none] hw_digest,
    #[skip_if = Option::is_none] cache_context,
});

impl LogHeader {
    /// The header line a log of `cp` starts with.
    fn line_of(cp: &Checkpoint) -> Result<String> {
        to_checksummed_compact_json(&LogHeader {
            version: cp.version,
            config: cp.config,
            optimizer: cp.optimizer.clone(),
            backend: cp.backend.clone(),
            hw_digest: cp.hw_digest.clone(),
            cache_context: cp.eval_cache.as_ref().map(|c| c.context().to_string()),
        })
    }
}

/// Every line after the header: the episodes and memo entries one save
/// added. Its keys are clones of the checkpoint's, not copies.
#[derive(Default)]
struct LogDelta {
    history: Vec<EpisodeRecord>,
    accuracy: BTreeMap<Key, f64>,
    hardware: BTreeMap<Key, Option<HwMetrics>>,
}

lcda_base::impl_json!(struct LogDelta { history, accuracy, hardware });

impl LogDelta {
    fn is_empty(&self) -> bool {
        self.history.is_empty() && self.accuracy.is_empty() && self.hardware.is_empty()
    }
}

/// Decodes the next line of a log into `log`, the checkpoint its lines
/// so far rebuild: the header first, then deltas.
fn decode_log_line(log: &mut Option<Checkpoint>, line: &str) -> Result<()> {
    let Some(cp) = log else {
        let header: LogHeader = from_checksummed_json(line)?;
        check_version(header.version)?;
        let mut cp = Checkpoint::new(header.config, header.optimizer, Vec::new())
            .with_backend(header.backend)
            .with_hw_digest(header.hw_digest);
        cp.eval_cache = header.cache_context.map(EvalCache::new);
        *log = Some(cp);
        return Ok(());
    };
    let delta: LogDelta = from_checksummed_json(line)?;
    cp.history.extend(delta.history);
    if let Some(cache) = &mut cp.eval_cache {
        cache.accuracy.extend(delta.accuracy);
        cache.hardware.extend(delta.hardware);
    } else if !delta.accuracy.is_empty() || !delta.hardware.is_empty() {
        return Err(CoreError::Checkpoint(
            "memo entries in a log without a memo table".into(),
        ));
    }
    Ok(())
}

/// A memo key's identity in a log: which table, and the design text.
fn key_fingerprint(table: char, key: &str) -> u64 {
    let mut h = Fnv::default();
    // Writing into the hasher cannot fail.
    let _ = write!(h, "{table}{key}");
    h.value()
}

/// What a checkpoint log holds, enough to tell whether a checkpoint
/// extends it and what a save must append. Memo keys are kept as 64-bit
/// fingerprints, not copies; a collision only costs the colliding entry
/// on resume (a memo miss, never a wrong result).
#[derive(Debug, Default)]
struct Held {
    episodes: usize,
    /// The last episode record the log holds.
    last: Option<EpisodeRecord>,
    keys: HashSet<u64>,
}

impl Held {
    /// What `cp` adds to the log, or `None` when `cp` does not extend
    /// it: fewer episodes, another last record, or a memo entry the log
    /// holds that `cp` lacks.
    fn delta(&self, cp: &Checkpoint) -> Option<LogDelta> {
        if cp.history.len() < self.episodes
            || self.episodes.checked_sub(1).map(|i| &cp.history[i]) != self.last.as_ref()
        {
            return None;
        }
        let mut delta = LogDelta {
            history: cp.history[self.episodes..].to_vec(),
            ..LogDelta::default()
        };
        if let Some(cache) = &cp.eval_cache {
            for (key, value) in &cache.accuracy {
                if !self.keys.contains(&key_fingerprint('a', key)) {
                    delta.accuracy.insert(key.clone(), *value);
                }
            }
            for (key, value) in &cache.hardware {
                if !self.keys.contains(&key_fingerprint('h', key)) {
                    delta.hardware.insert(key.clone(), *value);
                }
            }
            let held = cache.len() - delta.accuracy.len() - delta.hardware.len();
            if held < self.keys.len() {
                return None;
            }
        }
        Some(delta)
    }

    /// Records that `delta` is now in the log.
    fn absorb(&mut self, delta: &LogDelta) {
        self.episodes += delta.history.len();
        if let Some(last) = delta.history.last() {
            self.last = Some(last.clone());
        }
        let accuracy = delta.accuracy.keys().map(|k| key_fingerprint('a', k));
        let hardware = delta.hardware.keys().map(|k| key_fingerprint('h', k));
        self.keys.extend(accuracy.chain(hardware));
    }
}

/// The log a [`CheckpointStore`] appends to.
#[derive(Debug)]
struct OpenLog {
    file: File,
    header: String,
    held: Held,
}

impl OpenLog {
    /// Appends `delta` as one checksummed, fsynced line; nothing when it
    /// is empty.
    fn append(&mut self, path: &Path, delta: LogDelta) -> Result<()> {
        if delta.is_empty() {
            return Ok(());
        }
        let line = to_checksummed_compact_json(&delta)?;
        append_line(&mut self.file, path, &line, CoreError::Checkpoint)?;
        self.held.absorb(&delta);
        Ok(())
    }
}

/// Checkpoint persistence as an append-only log with generation
/// rotation (`--keep-checkpoints N`): `run.json` is the newest log,
/// `run.json.1` the previous one, and so on. Only the newest `keep` logs
/// stay on disk. See the [module docs](self) for the format.
pub struct CheckpointStore {
    path: PathBuf,
    keep: u32,
    /// The log saves append to, opened by the first save.
    log: Mutex<Option<OpenLog>>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("path", &self.path)
            .field("keep", &self.keep)
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// A store rotating up to `keep` logs at `path` (min 1 — `keep == 1`
    /// is plain non-rotating persistence). Does no I/O: the log opens on
    /// the first save.
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
            log: Mutex::new(None),
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

    /// Persists `checkpoint`. When it extends the log at the base path —
    /// same header, and everything the log holds — one checksummed line
    /// with only the new episodes and memo entries is appended and
    /// fsynced; nothing is written when there is nothing new. Otherwise
    /// the older logs rotate up a generation and a new log holding the
    /// whole checkpoint is written atomically. The store keeps the log
    /// open between saves of an unfinished run; a log on disk — left by
    /// a finished run or another process — is reopened and appended to
    /// when it matches, its torn tail salvaged first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on serialization, rotation or
    /// write failure.
    pub fn save(&self, checkpoint: &Checkpoint) -> Result<()> {
        let header = LogHeader::line_of(checkpoint)?;
        let mut log = lock(&self.log);
        if log.is_none() {
            *log = self.reopen(&header);
        }
        let delta = log
            .as_ref()
            .filter(|open| open.header == header)
            .and_then(|open| open.held.delta(checkpoint));
        let saved = match (delta, log.as_mut()) {
            (Some(delta), Some(open)) => open.append(&self.path, delta),
            _ => {
                // Close the old log before it rotates away.
                *log = None;
                self.start_log(header, checkpoint)
                    .map(|open| *log = Some(open))
            }
        };
        // A failed append may leave a torn tail, and a finished run saves
        // no more: either way the log closes, releasing its handle and
        // memory, and a later save reopens it from disk.
        if saved.is_err() || checkpoint.episodes_done() >= u64::from(checkpoint.config.episodes) {
            *log = None;
        }
        saved
    }

    /// Opens the log at the base path for appending when its header line
    /// is `header`, rebuilding what it holds and salvaging a torn tail.
    /// `None` — start a new log — when there is no such log or it is
    /// damaged before its final line.
    fn reopen(&self, header: &str) -> Option<OpenLog> {
        // Checked first: salvage would cut a lone header line of another
        // run's log as if it were torn.
        let mut first = String::new();
        let file = File::open(&self.path).ok()?;
        std::io::BufReader::new(file).read_line(&mut first).ok()?;
        if first.trim_end() != header {
            return None;
        }
        let mut held: Option<Held> = None;
        let file = open_jsonl(&self.path, CoreError::Checkpoint, |line| match &mut held {
            None => {
                held = Some(Held::default());
                Ok(())
            }
            Some(held) => from_checksummed_json(line).map(|delta| held.absorb(&delta)),
        })
        .ok()?;
        Some(OpenLog {
            file,
            header: header.to_string(),
            held: held?,
        })
    }

    /// Rotates the older logs up a generation and writes a new log
    /// holding all of `checkpoint`, atomically and durably.
    fn start_log(&self, header: String, checkpoint: &Checkpoint) -> Result<OpenLog> {
        rotate_generations(&self.path, self.keep)?;
        let mut delta = LogDelta {
            history: checkpoint.history.clone(),
            ..LogDelta::default()
        };
        if let Some(cache) = &checkpoint.eval_cache {
            delta.accuracy.clone_from(&cache.accuracy);
            delta.hardware.clone_from(&cache.hardware);
        }
        let body = to_checksummed_compact_json(&delta)?;
        atomic_write(&self.path, |out| writeln!(out, "{header}\n{body}"))?;
        let file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| CoreError::Checkpoint(format!("open {}: {e}", self.path.display())))?;
        let mut held = Held::default();
        held.absorb(&delta);
        Ok(OpenLog { file, header, held })
    }

    /// Loads the newest generation that parses and verifies, returning
    /// it with its generation index. A torn final line of a log is
    /// salvaged (dropped); a bad header or damage before the final line
    /// fails the generation. `Ok(None)` when no generation file exists
    /// (a fresh run). Reads only, and trusts the disk over what earlier
    /// saves left in memory: the next save reopens the log, truncating a
    /// torn tail, or starts a new one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when generation files exist but
    /// none verifies, naming the newest failure and its generation.
    pub fn load_latest(&self) -> Result<Option<(Checkpoint, u32)>> {
        *lock(&self.log) = None;
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
    fn a_log_delta_streams_its_recorded_text() {
        let cp = crate::durable::tests::searched_checkpoint(&crate::CacheStore::new());
        let cache = cp.eval_cache.clone().unwrap();
        let delta = LogDelta {
            history: cp.history[8..].to_vec(),
            accuracy: cache.accuracy,
            hardware: cache.hardware,
        };
        crate::durable::tests::assert_recorded("log delta", &delta);
        let empty = LogDelta::default();
        assert_eq!(
            lcda_base::json::to_string(&empty),
            r#"{"history":[],"accuracy":{},"hardware":{}}"#
        );
        assert_eq!(
            lcda_base::json::to_string_pretty(&empty),
            "{\n  \"history\": [],\n  \"accuracy\": {},\n  \"hardware\": {}\n}"
        );
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

        // A checkpoint of a real run: history plus a filled eval_cache
        // (an attached store memoizes the analytic evaluators).
        let mut last = None;
        CoDesign::builder(DesignSpace::tiny_test(), cfg())
            .optimizer(OptimizerSpec::Random)
            .cache_store(&crate::cache::CacheStore::new())
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
        session.insert_accuracy("[[32,3]] | \"quoted\"", 0.875);
        session.insert_hardware("[[64,5]]", None);
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
        let cp = Checkpoint::new(cfg(), "random", Vec::new()).with_backend("stub");
        let back = Checkpoint::from_json(&cp.to_json().unwrap()).unwrap();
        assert_eq!(back.backend, "stub");

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
        let _ = std::fs::remove_dir_all(&dir);
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

    /// Every checkpoint of a random search over the paper's space, on an
    /// attached store so that each carries a memo table.
    fn run_checkpoints(episodes: u32) -> Vec<Checkpoint> {
        use crate::codesign::{CoDesign, OptimizerSpec};
        use crate::space::DesignSpace;
        let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
            .episodes(episodes)
            .seed(3)
            .build();
        let mut checkpoints = Vec::new();
        CoDesign::builder(DesignSpace::nacim_cifar10(), config)
            .optimizer(OptimizerSpec::Random)
            .cache_store(&crate::cache::CacheStore::new())
            .build()
            .unwrap()
            .run_resumable(None, |cp| {
                checkpoints.push(cp.clone());
                Ok(())
            })
            .unwrap();
        checkpoints
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    fn lines(path: &Path) -> usize {
        std::fs::read_to_string(path).unwrap().lines().count()
    }

    #[test]
    fn store_rejects_zero_keep() {
        assert!(matches!(
            CheckpointStore::new("run.json", 0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    /// Each save appends what its episode added, so the log grows by
    /// about one record per save however long the history is.
    #[test]
    fn saves_append_one_line_and_never_rewrite_the_log() {
        let store = temp_store("append", 2);
        let checkpoints = run_checkpoints(150);
        let mut growth = vec![0];
        for cp in &checkpoints {
            let before = std::fs::metadata(store.path()).map_or(0, |m| m.len());
            store.save(cp).unwrap();
            growth.push(file_len(store.path()) - before);
            // Open while the run goes on; a finished run's save closes it.
            assert_eq!(lock(&store.log).is_some(), cp.episodes_done() < 150);
        }
        let last = &checkpoints[149];
        let record = lcda_base::json::to_string(&last.history[149]).len() as u64;
        assert!(
            growth[150].abs_diff(growth[10]) <= record,
            "growth {} at episode 150 vs {} at episode 10 (one record: {record} bytes)",
            growth[150],
            growth[10]
        );
        // One header, then one line per save; no rotation happened.
        assert_eq!(lines(store.path()), 151);
        assert!(!store.generation_path(1).exists());
        assert!(last.eval_cache.as_ref().is_some_and(|c| c.len() > 150));
        let (loaded, generation) = store.load_latest().unwrap().unwrap();
        assert_eq!((&loaded, generation), (last, 0));
        // Saving a checkpoint the log already holds writes nothing.
        let len = file_len(store.path());
        store.save(last).unwrap();
        assert_eq!(file_len(store.path()), len);
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }

    /// A new process's store appends to the log a killed one left,
    /// after cutting its torn final line.
    #[test]
    fn a_new_store_reopens_the_log_and_salvages_its_torn_tail() {
        let checkpoints = run_checkpoints(6);
        let killed = temp_store("reopen", 2);
        let path = killed.path().to_path_buf();
        for cp in &checkpoints[..4] {
            killed.save(cp).unwrap();
        }
        drop(killed);
        let len = file_len(&path) - 7;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len)
            .unwrap();

        let store = CheckpointStore::new(&path, 2).unwrap();
        let (salvaged, generation) = store.load_latest().unwrap().unwrap();
        assert_eq!((&salvaged, generation), (&checkpoints[2], 0));
        assert_eq!(file_len(&path), len, "loading only reads");
        for cp in &checkpoints[3..] {
            store.save(cp).unwrap();
        }
        assert_eq!(lines(&path), 7, "the header, then one line per episode");
        assert!(!store.generation_path(1).exists(), "appended, not rotated");
        let (loaded, _) = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded, checkpoints[5]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A store mid-run, whose log lost its last line on disk, continues
    /// from what `load_latest` found, not from what it saved.
    #[test]
    fn after_load_latest_the_next_save_trusts_the_disk() {
        let checkpoints = run_checkpoints(5);
        let store = temp_store("trust", 2);
        for cp in &checkpoints[..3] {
            store.save(cp).unwrap();
        }
        let text = std::fs::read_to_string(store.path()).unwrap();
        let cut = text.trim_end().rfind('\n').unwrap() + 1;
        std::fs::write(store.path(), &text[..cut]).unwrap();
        let (salvaged, _) = store.load_latest().unwrap().unwrap();
        assert_eq!(salvaged, checkpoints[1]);
        for cp in &checkpoints[2..] {
            store.save(cp).unwrap();
        }
        assert_eq!(
            store.load_latest().unwrap().unwrap(),
            (checkpoints[4].clone(), 0)
        );
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }

    /// Fewer episodes, or a memo table that lost an entry the log holds
    /// (a bounded store evicts), cannot be appended: a new log starts.
    #[test]
    fn a_checkpoint_that_does_not_extend_the_log_starts_a_new_one() {
        let checkpoints = run_checkpoints(5);
        let store = temp_store("restart", 2);
        store.save(&checkpoints[4]).unwrap();
        store.save(&checkpoints[2]).unwrap();
        assert_eq!(
            Checkpoint::load(&store.generation_path(1)).unwrap(),
            checkpoints[4]
        );
        assert_eq!(
            store.load_latest().unwrap().unwrap(),
            (checkpoints[2].clone(), 0)
        );
        let mut evicted = checkpoints[3].clone();
        let held = checkpoints[2].eval_cache.as_ref().unwrap().accuracy.keys();
        let gone = held.last().unwrap();
        evicted.eval_cache.as_mut().unwrap().accuracy.remove(gone);
        store.save(&evicted).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap(), (evicted, 0));
        assert_eq!(
            Checkpoint::load(&store.generation_path(1)).unwrap(),
            checkpoints[2]
        );
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
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

    /// A bad header or a bad line before the final one fails the log,
    /// and the store falls back to the previous one.
    #[test]
    fn store_falls_back_to_previous_valid_generation() {
        let checkpoints = run_checkpoints(3);
        for damaged_line in [0, 1] {
            let store = temp_store("fallback", 3);
            store.save(&snapshot(1)).unwrap();
            for cp in &checkpoints {
                store.save(cp).unwrap();
            }
            let g0 = store.generation_path(0);
            let text = std::fs::read_to_string(&g0).unwrap();
            let at = text
                .split_inclusive('\n')
                .take(damaged_line)
                .map(str::len)
                .sum::<usize>();
            let mut bytes = text.into_bytes();
            bytes[at + 20] ^= 0x40;
            std::fs::write(&g0, bytes).unwrap();
            let (cp, generation) = store.load_latest().unwrap().unwrap();
            assert_eq!(generation, 1, "damaged line {damaged_line} must fall back");
            assert_eq!(cp, snapshot(1));
            let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
        }
    }

    #[test]
    fn store_with_no_files_is_a_fresh_run() {
        let store = temp_store("fresh", 2);
        assert!(store.load_latest().unwrap().is_none());
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }

    /// A whole-file checkpoint loads through the store, and the first
    /// save after it starts a log, rotating the file a generation up.
    #[test]
    fn a_whole_file_checkpoint_loads_and_the_next_save_starts_a_log() {
        let checkpoints = run_checkpoints(3);
        let store = temp_store("whole", 2);
        checkpoints[1].save(store.path()).unwrap();
        assert_eq!(
            store.load_latest().unwrap().unwrap(),
            (checkpoints[1].clone(), 0)
        );
        store.save(&checkpoints[2]).unwrap();
        assert_eq!(lines(store.path()), 2);
        let (whole, log) = (store.generation_path(1), store.path());
        assert!(std::fs::read_to_string(&whole).unwrap().starts_with("{\n"));
        assert_eq!(Checkpoint::load(&whole).unwrap(), checkpoints[1]);
        assert_eq!(Checkpoint::load(log).unwrap(), checkpoints[2]);
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
