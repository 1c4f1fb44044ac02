//! The run journal: a structured, deterministic event stream for search
//! runs.
//!
//! The paper's headline claim is *comparative* — LCDA reaches NACIM-grade
//! designs with fewer evaluations — so the runtime must be able to show
//! where a run spends its budget: cache hits vs. recomputation,
//! Monte-Carlo trials, backend cost-model calls, LLM re-prompts and
//! quarantined evaluations. This module provides that substrate:
//!
//! - [`JournalEvent`] — the typed event taxonomy (run/episode lifecycle,
//!   evaluation requests, cache traffic, Monte-Carlo batches, backend
//!   cost calls, and the LLM events bridged from [`lcda_llm::obs`]);
//! - [`Journal`] — a cheaply cloneable sink handle threaded through
//!   [`crate::EvalPipeline`], [`crate::CoDesign`] and the optimizer
//!   stack, writing each event as one JSON line (JSONL);
//! - [`RunReport`] — per-phase event counts and counter aggregation
//!   parsed back from a journal, rendered by `lcda report`.
//!
//! # Determinism
//!
//! Journals carry **no timestamps**. Every record is stamped with a
//! monotonic `step` index only, so identical seeded runs produce
//! **byte-identical** journals, which makes them diffable artifacts: a
//! behaviour change between two builds shows up as a journal diff, not a
//! hunch. `BTreeMap`-backed aggregation and the JSON writer's
//! deterministic float formatting keep [`RunReport`] equally
//! reproducible. Older journals also stamped each record with a
//! simulated-clock timestamp that stayed zero unless faults were
//! injected; the reader ignores unknown keys, so those journals still
//! parse (`tests/fixtures/parent_era/run.jsonl`).

use crate::pipeline::CacheStats;
use crate::{CoreError, Result};
use lcda_base::json::{FromJson, JsonOut, ToJson, Value};
use lcda_llm::obs::{LlmEvent, LlmObserver, ObserverHandle};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Which half of the memo table a cache event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// The accuracy memo table.
    Accuracy,
    /// The hardware-metrics memo table.
    Hardware,
}

lcda_base::impl_json!(
    #[snake_case]
    enum CacheKind {
        Accuracy,
        Hardware,
    }
);

/// One observable moment of a search run.
///
/// Serialized internally tagged (`"event": "cache_hit"`, …) so a JSONL
/// journal stays self-describing line by line.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// The episode loop started (after any checkpoint replay).
    RunStart {
        /// Optimizer name driving the loop.
        optimizer: String,
        /// Hardware backend name.
        backend: String,
        /// Objective name (`accuracy-energy` / `accuracy-latency`).
        objective: String,
        /// Episode budget of the run.
        episodes: u32,
        /// Master seed.
        seed: u64,
        /// Episodes restored from a checkpoint before the loop started.
        resumed: u64,
    },
    /// The resolved hardware hierarchy the run's backend lowered from
    /// (emitted right after [`JournalEvent::RunStart`] when the backend
    /// exposes one).
    HwConfig {
        /// Backend identity the hierarchy was lowered for.
        backend: String,
        /// Stable digest of the hierarchy's canonical JSON — the same
        /// value that namespaces the backend's cache fingerprint.
        digest: String,
        /// One-line tier summary (`chip 1x1 · xbar 128x128 · …`).
        summary: String,
    },
    /// The episode loop finished.
    RunEnd {
        /// Total completed episodes (including resumed ones).
        episodes: u64,
        /// Reward of the best episode.
        best_reward: f64,
    },
    /// One episode completed.
    Episode {
        /// Episode index (0-based).
        episode: u32,
        /// Scalar reward fed back to the optimizer.
        reward: f64,
        /// Monte-Carlo/surrogate accuracy (0 for invalid hardware).
        accuracy: f64,
        /// True when non-finite metrics were quarantined.
        quarantined: bool,
    },
    /// The pipeline was asked for a full episode-grade evaluation.
    EvalRequest {
        /// Canonical rollout text of the design.
        design: String,
    },
    /// A cache lookup was served from the memo table.
    CacheHit {
        /// Which memo table.
        kind: CacheKind,
    },
    /// A cache lookup fell through to the wrapped evaluator.
    CacheMiss {
        /// Which memo table.
        kind: CacheKind,
    },
    /// A result was admitted into the memo table.
    CacheInsert {
        /// Which memo table.
        kind: CacheKind,
    },
    /// A Monte-Carlo accuracy batch completed.
    McBatch {
        /// Trials in the batch.
        trials: u32,
        /// Worker threads used.
        threads: u64,
        /// Mean accuracy over the trials.
        mean: f64,
    },
    /// The hardware backend's cost model was invoked (a cache miss or an
    /// uncached pipeline).
    BackendCost {
        /// Backend evaluator name.
        backend: String,
        /// False when the design violated the platform constraint.
        feasible: bool,
    },
    /// A checkpoint snapshot was handed to the persistence callback.
    CheckpointSaved {
        /// Completed episodes in the snapshot.
        episodes_done: u64,
    },
    /// The optimizer sent a prompt to the language model.
    LlmPrompt {
        /// Optimizer episode the prompt belongs to.
        episode: u32,
        /// Attempt within the episode (`> 0` = re-prompt).
        attempt: u32,
        /// Rendered prompt length in bytes.
        chars: u64,
    },
    /// A model response could not be parsed into a design.
    LlmParseFailure {
        /// Optimizer episode the response belonged to.
        episode: u32,
        /// The parse error, single line.
        error: String,
    },
    /// An evaluator panicked; the panic was caught at the pipeline
    /// boundary and converted into a typed error.
    EvalPanic {
        /// First line of the panic payload.
        message: String,
    },
    /// A design was quarantined because its evaluator panicked.
    EvalQuarantined {
        /// The evaluation error that forced the quarantine.
        reason: String,
    },
    /// A serve job passed admission validation and was queued. First
    /// record of every per-job journal file.
    JobAdmitted {
        /// Job id (`job-N`), the journal file's key.
        job: String,
        /// Optimizer spec name requested.
        optimizer: String,
        /// Validated backend spec (canonical form).
        backend: String,
        /// Episode budget.
        episodes: u32,
        /// Master seed.
        seed: u64,
    },
    /// A worker picked the job up and started its search.
    JobStarted {
        /// Job id (`job-N`).
        job: String,
    },
    /// The job reached a terminal state; last job-lifecycle record of
    /// its journal file.
    JobEnded {
        /// Job id (`job-N`).
        job: String,
        /// Terminal state name (`done` / `failed` / `cancelled`).
        state: String,
    },
    /// The job's session view of the shared cross-run cache at
    /// completion: its own hit/miss/insert counters plus the cross-run
    /// split and the store-wide totals at that instant.
    SharedCache {
        /// Job id (`job-N`).
        job: String,
        /// Session lookups served from the store.
        hits: u64,
        /// Session lookups that fell through to the evaluators.
        misses: u64,
        /// Entries this session admitted.
        inserts: u64,
        /// Session hits served by entries another run admitted.
        cross_run_hits: u64,
        /// Entries resident in the shared store.
        store_entries: u64,
        /// Store-wide evictions so far.
        store_evictions: u64,
    },
    /// A job was re-admitted from the durable WAL after a server
    /// restart (a `kill -9` survivor).
    JobRecovered {
        /// Job id (`job-N`).
        job: String,
        /// Ledger state at the crash (`queued` or `running`).
        state: String,
        /// Episodes already persisted in the job's latest checkpoint
        /// generation (0 when the job restarts from scratch).
        episodes_done: u64,
    },
    /// A job's wall-clock deadline expired; the job lands terminally
    /// `failed: deadline_exceeded`.
    JobDeadline {
        /// Job id (`job-N`).
        job: String,
        /// The deadline that expired, seconds.
        deadline_secs: u64,
    },
    /// A job's search panicked; the panic was caught at the worker
    /// boundary, the job failed and the worker survived.
    JobPanic {
        /// Job id (`job-N`).
        job: String,
        /// The panic payload, best effort.
        message: String,
    },
    /// An admission was rejected with HTTP 429 because the bounded job
    /// queue was full. Recorded in the server-level journal.
    QueueRejected {
        /// Jobs queued or running when the admission was rejected.
        depth: u64,
        /// The queue's capacity bound.
        capacity: u64,
    },
    /// A journal-stream consumer stalled past the write timeout and was
    /// disconnected; the job itself is unaffected. Recorded in the
    /// server-level journal.
    StreamDropped {
        /// Job id (`job-N`) whose stream was dropped.
        job: String,
    },
}

lcda_base::impl_json!(#[tag = "event", snake_case] enum JournalEvent {
    RunStart { optimizer, backend, objective, episodes, seed, resumed },
    HwConfig { backend, digest, summary },
    RunEnd { episodes, best_reward },
    Episode { episode, reward, accuracy, quarantined },
    EvalRequest { design },
    CacheHit { kind },
    CacheMiss { kind },
    CacheInsert { kind },
    McBatch { trials, threads, mean },
    BackendCost { backend, feasible },
    CheckpointSaved { episodes_done },
    LlmPrompt { episode, attempt, chars },
    LlmParseFailure { episode, error },
    EvalPanic { message },
    EvalQuarantined { reason },
    JobAdmitted { job, optimizer, backend, episodes, seed },
    JobStarted { job },
    JobEnded { job, state },
    SharedCache { job, hits, misses, inserts, cross_run_hits, store_entries, store_evictions },
    JobRecovered { job, state, episodes_done },
    JobDeadline { job, deadline_secs },
    JobPanic { job, message },
    QueueRejected { depth, capacity },
    StreamDropped { job },
});

impl JournalEvent {
    /// The coarse phase this event is accounted under in [`RunReport`].
    pub fn phase(&self) -> &'static str {
        match self {
            JournalEvent::RunStart { .. }
            | JournalEvent::HwConfig { .. }
            | JournalEvent::RunEnd { .. }
            | JournalEvent::CheckpointSaved { .. } => "run",
            JournalEvent::Episode { .. } => "episode",
            JournalEvent::EvalRequest { .. }
            | JournalEvent::EvalPanic { .. }
            | JournalEvent::EvalQuarantined { .. } => "eval",
            JournalEvent::CacheHit { .. }
            | JournalEvent::CacheMiss { .. }
            | JournalEvent::CacheInsert { .. } => "cache",
            JournalEvent::McBatch { .. } => "mc",
            JournalEvent::BackendCost { .. } => "backend",
            JournalEvent::LlmPrompt { .. } | JournalEvent::LlmParseFailure { .. } => "llm",
            JournalEvent::JobAdmitted { .. }
            | JournalEvent::JobStarted { .. }
            | JournalEvent::JobEnded { .. }
            | JournalEvent::JobRecovered { .. }
            | JournalEvent::JobDeadline { .. }
            | JournalEvent::JobPanic { .. }
            | JournalEvent::QueueRejected { .. }
            | JournalEvent::StreamDropped { .. } => "job",
            JournalEvent::SharedCache { .. } => "cache",
        }
    }
}

/// One journal line: a monotonic step index and the event payload
/// (flattened alongside it).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Monotonic record index within the journal (0-based).
    pub step: u64,
    /// The event payload.
    pub event: JournalEvent,
}

// `step` followed by the event's own tagged object, on one level.
impl ToJson for JournalRecord {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.flatten("step", &self.step, &self.event)
    }
}

impl FromJson for JournalRecord {
    fn from_json(value: &Value) -> lcda_base::json::Result<Self> {
        Ok(JournalRecord {
            step: value.field("step")?,
            event: JournalEvent::from_json(value)?,
        })
    }
}

struct JournalInner {
    sink: Box<dyn Write + Send>,
    step: u64,
    error: Option<String>,
}

/// A cheaply cloneable handle to a JSONL event sink.
///
/// The default handle is disabled: every [`Journal::record`] through it
/// is a no-op, so instrumented code costs nothing in un-journaled runs.
/// All clones share one sink and one step counter;
/// write or serialization failures are latched and surfaced by
/// [`Journal::finish`] instead of panicking mid-search.
#[derive(Clone, Default)]
pub struct Journal {
    inner: Option<Arc<Mutex<JournalInner>>>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("active", &self.is_active())
            .finish()
    }
}

/// A shared in-memory byte buffer usable as a journal sink (tests,
/// benches, and the `lcda report` round-trip check).
#[derive(Debug, Clone, Default)]
pub struct JournalBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl JournalBuffer {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        JournalBuffer::default()
    }

    /// The buffered JSONL text written so far.
    pub fn contents(&self) -> String {
        let bytes = self.bytes.lock().map(|b| b.clone()).unwrap_or_default();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for JournalBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes
            .lock()
            .map_err(|_| std::io::Error::other("journal buffer poisoned"))?
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Journal {
    /// The disabled journal: every record is a no-op.
    pub fn disabled() -> Self {
        Journal::default()
    }

    /// A journal writing JSONL to an arbitrary sink.
    pub fn to_writer(sink: Box<dyn Write + Send>) -> Self {
        Journal {
            inner: Some(Arc::new(Mutex::new(JournalInner {
                sink,
                step: 0,
                error: None,
            }))),
        }
    }

    /// A journal writing JSONL to a file, truncating any previous run's
    /// journal at that path (each run owns its journal start to finish —
    /// appending would break byte-identity across reruns).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] when the file cannot be created.
    pub fn to_file(path: &Path) -> Result<Self> {
        let file = std::fs::File::create(path)
            .map_err(|e| CoreError::Journal(format!("create {}: {e}", path.display())))?;
        Ok(Journal::to_writer(Box::new(std::io::BufWriter::new(file))))
    }

    /// A journal writing into a shared in-memory buffer, returned
    /// alongside the handle.
    pub fn in_memory() -> (Self, JournalBuffer) {
        let buffer = JournalBuffer::new();
        (Journal::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// Reopens an existing journal for appending (the counterpart of
    /// `--resume` for the journal file), salvaging it by the JSONL rule
    /// of [`crate::durable`]: a torn final line is truncated away, but a
    /// bad line with any line after it fails the resume and leaves the
    /// file untouched, as the serve WAL does. Blank lines are skipped.
    ///
    /// The step counter continues from the last salvaged record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] for damage before the final line,
    /// or when the file cannot be read, truncated, or reopened.
    pub fn resume_file(path: &Path) -> Result<Self> {
        let mut last: Option<JournalRecord> = None;
        let file = crate::durable::open_jsonl(path, CoreError::Journal, |line| {
            if line.trim().is_empty() {
                return Ok(());
            }
            lcda_base::json::from_str::<JournalRecord>(line).map(|record| last = Some(record))
        })?;
        let step = last.map_or(0, |r| r.step + 1);
        Ok(Journal {
            inner: Some(Arc::new(Mutex::new(JournalInner {
                sink: Box::new(std::io::BufWriter::new(file)),
                step,
                error: None,
            }))),
        })
    }

    /// True when a sink is attached.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends one event as a JSON line (no-op when disabled). Failures
    /// are latched for [`Journal::finish`], never panicking mid-run.
    pub fn record(&self, event: JournalEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let Ok(mut guard) = inner.lock() else {
            return;
        };
        if guard.error.is_some() {
            return;
        }
        let record = JournalRecord {
            step: guard.step,
            event,
        };
        guard.step += 1;
        let line = lcda_base::json::to_string(&record);
        let write = guard
            .sink
            .write_all(line.as_bytes())
            .and_then(|()| guard.sink.write_all(b"\n"));
        if let Err(e) = write {
            guard.error = Some(format!("write journal record: {e}"));
        }
    }

    /// Flushes the sink and surfaces any failure latched by
    /// [`Journal::record`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] for a latched record failure or a
    /// failed flush.
    pub fn finish(&self) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut guard = inner
            .lock()
            .map_err(|_| CoreError::Journal("journal lock poisoned".into()))?;
        if let Some(e) = guard.error.take() {
            return Err(CoreError::Journal(e));
        }
        guard
            .sink
            .flush()
            .map_err(|e| CoreError::Journal(format!("flush journal: {e}")))
    }

    /// An [`ObserverHandle`] that bridges [`LlmEvent`]s from the
    /// LLM optimizer into this journal. Empty (no-op) when
    /// the journal is disabled, so un-journaled runs skip the adapter
    /// entirely.
    pub fn llm_observer(&self) -> ObserverHandle {
        if self.is_active() {
            ObserverHandle::new(Box::new(LlmBridge {
                journal: self.clone(),
            }))
        } else {
            ObserverHandle::none()
        }
    }
}

/// Adapter mapping [`LlmEvent`]s onto [`JournalEvent`]s.
struct LlmBridge {
    journal: Journal,
}

impl LlmObserver for LlmBridge {
    fn record(&mut self, event: &LlmEvent) {
        let mapped = match event {
            LlmEvent::Prompt {
                episode,
                attempt,
                chars,
            } => JournalEvent::LlmPrompt {
                episode: *episode,
                attempt: *attempt,
                chars: *chars,
            },
            LlmEvent::ParseFailure { episode, error } => JournalEvent::LlmParseFailure {
                episode: *episode,
                error: error.clone(),
            },
        };
        self.journal.record(mapped);
    }
}

/// Counter and per-phase event-count aggregation over a journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Total journal records.
    pub records: u64,
    /// Completed episodes.
    pub episodes: u64,
    /// Episodes quarantined for non-finite metrics.
    pub quarantined: u64,
    /// Episode-grade pipeline evaluations requested.
    pub evals: u64,
    /// Cache traffic rebuilt from the hit/miss/insert events — matches
    /// the pipeline's run-local [`CacheStats`] exactly, because both are
    /// driven by the same lookups.
    pub cache: CacheStats,
    /// Monte-Carlo batches run.
    pub mc_batches: u64,
    /// Total Monte-Carlo trials across all batches.
    pub mc_trials: u64,
    /// Hardware backend cost-model invocations.
    pub backend_calls: u64,
    /// Cost calls that reported a platform-constraint violation.
    pub infeasible: u64,
    /// Prompts sent to the language model.
    pub prompts: u64,
    /// Prompts that were retries within an episode (`attempt > 0`).
    pub reprompts: u64,
    /// Model responses that failed to parse.
    pub parse_failures: u64,
    /// Checkpoint snapshots taken.
    pub checkpoints: u64,
    /// Evaluator panics caught at the pipeline boundary.
    pub eval_panics: u64,
    /// Designs quarantined for evaluator panics.
    pub eval_quarantined: u64,
    /// True when the journal tail was torn (a trailing line could not be
    /// parsed — typically a run killed mid-write) and the report covers
    /// only the salvaged complete-line prefix.
    pub truncated: bool,
    /// Journal lines dropped by the torn-tail salvage (the unparseable
    /// line and everything after it).
    pub dropped_lines: u64,
    /// Complete records of events this build does not know — events an
    /// earlier build wrote and a later one retired, such as the sharded
    /// search's `shard_heartbeat` — skipped rather than aggregated.
    pub retired_events: u64,
    /// Serve jobs admitted into the queue.
    pub jobs_admitted: u64,
    /// Serve jobs that reached a terminal state.
    pub jobs_ended: u64,
    /// Serve jobs re-admitted from the durable WAL after a restart.
    pub jobs_recovered: u64,
    /// Serve jobs that hit their wall-clock deadline.
    pub jobs_deadline: u64,
    /// Serve jobs that panicked (worker survived each).
    pub job_panics: u64,
    /// Admissions rejected with 429 because the bounded queue was full.
    pub queue_rejected: u64,
    /// Journal-stream consumers disconnected for stalling past the
    /// write timeout.
    pub streams_dropped: u64,
    /// Shared-cache hits served by entries another session inserted
    /// (cross-run reuse through the [`CacheStore`]).
    ///
    /// [`CacheStore`]: crate::cache::CacheStore
    pub cross_run_hits: u64,
    /// Entries evicted from the shared store under its capacity bound.
    pub store_evictions: u64,
    /// Hardware-hierarchy summary recorded at run start (`hw_config`
    /// event), when the run's backend exposed one: `"{digest} {summary}"`.
    pub hw_config: Option<String>,
    /// Best episode reward, when the run recorded its end.
    pub best_reward: Option<f64>,
    /// Events per phase ([`JournalEvent::phase`]).
    pub phases: BTreeMap<String, u64>,
}

lcda_base::impl_json!(struct RunReport {
    records,
    episodes,
    quarantined,
    evals,
    cache,
    mc_batches,
    mc_trials,
    backend_calls,
    infeasible,
    prompts,
    reprompts,
    parse_failures,
    checkpoints,
    #[default] eval_panics,
    #[default] eval_quarantined,
    #[default] truncated,
    #[default] dropped_lines,
    #[default] retired_events,
    #[default] jobs_admitted,
    #[default] jobs_ended,
    #[default] jobs_recovered,
    #[default] jobs_deadline,
    #[default] job_panics,
    #[default] queue_rejected,
    #[default] streams_dropped,
    #[default] cross_run_hits,
    #[default] store_evictions,
    #[default] hw_config,
    best_reward,
    phases,
});

impl RunReport {
    /// Aggregates a report from parsed records (in journal order).
    pub fn from_records(records: impl IntoIterator<Item = JournalRecord>) -> Self {
        let mut report = RunReport::default();
        for record in records {
            report.records += 1;
            *report
                .phases
                .entry(record.event.phase().to_string())
                .or_default() += 1;
            match &record.event {
                JournalEvent::RunStart { .. } => {}
                JournalEvent::HwConfig {
                    digest, summary, ..
                } => {
                    report.hw_config = Some(format!("{digest} {summary}"));
                }
                JournalEvent::RunEnd { best_reward, .. } => {
                    report.best_reward = Some(*best_reward);
                }
                JournalEvent::Episode { quarantined, .. } => {
                    report.episodes += 1;
                    if *quarantined {
                        report.quarantined += 1;
                    }
                }
                JournalEvent::EvalRequest { .. } => report.evals += 1,
                JournalEvent::CacheHit { .. } => report.cache.hits += 1,
                JournalEvent::CacheMiss { .. } => report.cache.misses += 1,
                JournalEvent::CacheInsert { .. } => report.cache.inserts += 1,
                JournalEvent::McBatch { trials, .. } => {
                    report.mc_batches += 1;
                    report.mc_trials += u64::from(*trials);
                }
                JournalEvent::BackendCost { feasible, .. } => {
                    report.backend_calls += 1;
                    if !feasible {
                        report.infeasible += 1;
                    }
                }
                JournalEvent::CheckpointSaved { .. } => report.checkpoints += 1,
                JournalEvent::LlmPrompt { attempt, .. } => {
                    report.prompts += 1;
                    if *attempt > 0 {
                        report.reprompts += 1;
                    }
                }
                JournalEvent::LlmParseFailure { .. } => report.parse_failures += 1,
                JournalEvent::EvalPanic { .. } => report.eval_panics += 1,
                JournalEvent::EvalQuarantined { .. } => report.eval_quarantined += 1,
                JournalEvent::JobAdmitted { .. } => report.jobs_admitted += 1,
                JournalEvent::JobStarted { .. } => {}
                JournalEvent::JobEnded { .. } => report.jobs_ended += 1,
                JournalEvent::JobRecovered { .. } => report.jobs_recovered += 1,
                JournalEvent::JobDeadline { .. } => report.jobs_deadline += 1,
                JournalEvent::JobPanic { .. } => report.job_panics += 1,
                JournalEvent::QueueRejected { .. } => report.queue_rejected += 1,
                JournalEvent::StreamDropped { .. } => report.streams_dropped += 1,
                JournalEvent::SharedCache {
                    cross_run_hits,
                    store_evictions,
                    ..
                } => {
                    report.cross_run_hits += cross_run_hits;
                    report.store_evictions += store_evictions;
                }
            }
        }
        report
    }

    /// Parses a JSONL journal and aggregates it, salvaging torn tails.
    ///
    /// A run killed mid-write leaves a partial final line; erroring on it
    /// would make `lcda report` useless on exactly the runs it exists to
    /// explain. Instead, the longest prefix of parseable lines is
    /// aggregated and the cut is surfaced via [`RunReport::truncated`]
    /// and [`RunReport::dropped_lines`] (the first unparseable line and
    /// everything after it are dropped — corruption mid-file invalidates
    /// the suffix, since step indices would no longer be trustworthy).
    ///
    /// A complete record of an event this build does not know (see
    /// [`RunReport::retired_events`]) is not damage: it is skipped and
    /// counted, and the lines after it are aggregated.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` is kept so future structural
    /// validation can fail without an API break.
    pub fn from_jsonl(text: &str) -> Result<Self> {
        let mut records = Vec::new();
        let mut retired = 0u64;
        let mut truncated = false;
        let mut dropped = 0u64;
        let mut lines = text.lines();
        for line in lines.by_ref() {
            if line.trim().is_empty() {
                continue;
            }
            match lcda_base::json::from_str::<JournalRecord>(line) {
                Ok(record) => records.push(record),
                Err(_) if names_an_unknown_event(line) => retired += 1,
                Err(_) => {
                    truncated = true;
                    dropped = 1;
                    break;
                }
            }
        }
        if truncated {
            dropped += lines.filter(|l| !l.trim().is_empty()).count() as u64;
        }
        let mut report = RunReport::from_records(records);
        report.retired_events = retired;
        report.truncated = truncated;
        report.dropped_lines = dropped;
        Ok(report)
    }

    /// Renders the human-readable breakdown table for `lcda report`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run journal report");
        let _ = writeln!(out, "  records          {}", self.records);
        let _ = writeln!(
            out,
            "  episodes         {} ({} quarantined)",
            self.episodes, self.quarantined
        );
        let _ = writeln!(out, "  evaluations      {}", self.evals);
        let _ = writeln!(
            out,
            "  cache            {} hits / {} misses / {} inserts (hit-rate {:.1}%)",
            self.cache.hits,
            self.cache.misses,
            self.cache.inserts,
            self.cache.hit_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "  monte-carlo      {} batches / {} trials",
            self.mc_batches, self.mc_trials
        );
        let _ = writeln!(
            out,
            "  backend calls    {} ({} infeasible)",
            self.backend_calls, self.infeasible
        );
        let _ = writeln!(
            out,
            "  llm prompts      {} ({} re-prompts, {} parse failures)",
            self.prompts, self.reprompts, self.parse_failures
        );
        let _ = writeln!(
            out,
            "  eval failures    {} panics / {} quarantined",
            self.eval_panics, self.eval_quarantined
        );
        let _ = writeln!(out, "  checkpoints      {}", self.checkpoints);
        if let Some(hw) = &self.hw_config {
            let _ = writeln!(out, "  hw config        {hw}");
        }
        if self.jobs_admitted > 0 || self.jobs_ended > 0 {
            let _ = writeln!(
                out,
                "  serve jobs       {} admitted / {} ended",
                self.jobs_admitted, self.jobs_ended
            );
        }
        if self.jobs_recovered > 0
            || self.jobs_deadline > 0
            || self.job_panics > 0
            || self.queue_rejected > 0
            || self.streams_dropped > 0
        {
            let _ = writeln!(
                out,
                "  serve durability {} recovered / {} deadline / {} panics / {} rejected / {} streams dropped",
                self.jobs_recovered,
                self.jobs_deadline,
                self.job_panics,
                self.queue_rejected,
                self.streams_dropped
            );
        }
        if self.cross_run_hits > 0 || self.store_evictions > 0 {
            let _ = writeln!(
                out,
                "  shared cache     {} cross-run hits / {} evictions",
                self.cross_run_hits, self.store_evictions
            );
        }
        if self.retired_events > 0 {
            let _ = writeln!(
                out,
                "  retired events   {} (skipped; unknown to this build)",
                self.retired_events
            );
        }
        if self.truncated {
            let _ = writeln!(
                out,
                "  truncated: true  (torn journal tail; {} line(s) dropped)",
                self.dropped_lines
            );
        }
        if let Some(best) = self.best_reward {
            let _ = writeln!(out, "  best reward      {best:.6}");
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "phase breakdown (events)");
            for (name, events) in &self.phases {
                let _ = writeln!(out, "  {name:<8} {events:>6} events");
            }
        }
        out
    }
}

/// Whether an undecodable journal line is a complete record of an event
/// this build does not know: a JSON object with an integer `step` whose
/// `event` names no [`JournalEvent`] variant. A known event with a
/// damaged payload is not one.
fn names_an_unknown_event(line: &str) -> bool {
    Value::parse(line).is_ok_and(|value| {
        value.get("step").is_some_and(Value::is_u64)
            && JournalEvent::from_json(&value)
                .is_err_and(|e| e.to_string().starts_with("unknown variant"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload-light event for tests that only count records.
    fn tick() -> JournalEvent {
        JournalEvent::CheckpointSaved { episodes_done: 1 }
    }

    #[test]
    fn disabled_journal_is_a_noop() {
        let j = Journal::disabled();
        assert!(!j.is_active());
        j.record(tick());
        j.finish().unwrap();
        assert!(!j.llm_observer().is_active());
    }

    #[test]
    fn record_lines_are_flat_and_round_trip() {
        let record = JournalRecord {
            step: 4,
            event: JournalEvent::SharedCache {
                job: "job-2".into(),
                hits: 3,
                misses: 1,
                inserts: 1,
                cross_run_hits: 2,
                store_entries: 9,
                store_evictions: 0,
            },
        };
        let line = lcda_base::json::to_string(&record);
        assert_eq!(
            line,
            r#"{"step":4,"event":"shared_cache","job":"job-2","hits":3,"misses":1,"inserts":1,"cross_run_hits":2,"store_entries":9,"store_evictions":0}"#
        );
        let back: JournalRecord = lcda_base::json::from_str(&line).unwrap();
        assert_eq!(back, record);
        let err =
            lcda_base::json::from_str::<JournalRecord>(r#"{"step":0,"event":"nope"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown variant `nope`"), "{err}");
    }

    #[test]
    fn records_are_stamped_and_jsonl_parses_back() {
        let (j, buf) = Journal::in_memory();
        j.record(JournalEvent::EvalRequest {
            design: "d0".into(),
        });
        j.record(JournalEvent::CacheHit {
            kind: CacheKind::Accuracy,
        });
        j.finish().unwrap();

        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"eval_request\""));
        let r0: JournalRecord = lcda_base::json::from_str(lines[0]).unwrap();
        let r1: JournalRecord = lcda_base::json::from_str(lines[1]).unwrap();
        assert_eq!((r0.step, r1.step), (0, 1));
        assert_eq!(
            r1.event,
            JournalEvent::CacheHit {
                kind: CacheKind::Accuracy
            }
        );
        assert_eq!(r1.event.phase(), "cache");
    }

    #[test]
    fn clones_share_step_counter_and_sink() {
        let (j, buf) = Journal::in_memory();
        let j2 = j.clone();
        j.record(tick());
        j2.record(tick());
        j.finish().unwrap();
        let report = RunReport::from_jsonl(&buf.contents()).unwrap();
        assert_eq!(report.records, 2);
        let text = buf.contents();
        assert!(text.lines().nth(1).unwrap().contains("\"step\":1"));
    }

    #[test]
    fn llm_observer_bridges_events() {
        let (j, buf) = Journal::in_memory();
        let observer = j.llm_observer();
        assert!(observer.is_active());
        observer.emit(LlmEvent::Prompt {
            episode: 2,
            attempt: 1,
            chars: 900,
        });
        observer.emit(LlmEvent::ParseFailure {
            episode: 2,
            error: "no brackets".into(),
        });
        j.finish().unwrap();
        let report = RunReport::from_jsonl(&buf.contents()).unwrap();
        assert_eq!(report.prompts, 1);
        assert_eq!(report.reprompts, 1);
        assert_eq!(report.parse_failures, 1);
        assert_eq!(report.phases["llm"], 2);
    }

    #[test]
    fn report_aggregates_counters_and_phase_counts() {
        let records = vec![
            JournalRecord {
                step: 0,
                event: JournalEvent::RunStart {
                    optimizer: "o".into(),
                    backend: "cim".into(),
                    objective: "accuracy-energy".into(),
                    episodes: 2,
                    seed: 7,
                    resumed: 0,
                },
            },
            JournalRecord {
                step: 1,
                event: JournalEvent::CacheMiss {
                    kind: CacheKind::Hardware,
                },
            },
            JournalRecord {
                step: 2,
                event: JournalEvent::LlmPrompt {
                    episode: 0,
                    attempt: 0,
                    chars: 100,
                },
            },
            JournalRecord {
                step: 3,
                event: JournalEvent::Episode {
                    episode: 0,
                    reward: 0.5,
                    accuracy: 0.8,
                    quarantined: false,
                },
            },
            JournalRecord {
                step: 4,
                event: JournalEvent::RunEnd {
                    episodes: 1,
                    best_reward: 0.5,
                },
            },
        ];
        let report = RunReport::from_records(records);
        assert_eq!(report.records, 5);
        assert_eq!(report.episodes, 1);
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.prompts, 1);
        assert_eq!(report.best_reward, Some(0.5));
        assert_eq!(report.phases["run"], 2);
        assert_eq!(report.phases["llm"], 1);
        assert_eq!(report.phases["cache"], 1);
        let table = report.render();
        assert!(table.contains("best reward"));
        assert!(table.contains("hit-rate 0.0%"));
        assert!(!table.contains("retired"), "{table}");
    }

    #[test]
    fn hw_config_event_round_trips_and_lands_in_the_report() {
        let (j, buf) = Journal::in_memory();
        j.record(JournalEvent::HwConfig {
            backend: "cim".into(),
            digest: "abc123".into(),
            summary: "chip 1x1 · xbar 128x128".into(),
        });
        j.finish().unwrap();
        let text = buf.contents();
        assert!(text.contains("\"event\":\"hw_config\""), "{text}");
        let record: JournalRecord =
            lcda_base::json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(record.event.phase(), "run");
        let report = RunReport::from_jsonl(&text).unwrap();
        assert_eq!(
            report.hw_config.as_deref(),
            Some("abc123 chip 1x1 · xbar 128x128")
        );
        let table = report.render();
        assert!(table.contains("hw config        abc123"), "{table}");
    }

    #[test]
    fn malformed_jsonl_salvages_the_valid_prefix() {
        let report = RunReport::from_jsonl(
            "{\"step\":0,\"event\":\"run_end\",\"episodes\":1,\"best_reward\":0.1}\nnot json",
        )
        .unwrap();
        assert_eq!(report.records, 1, "the parseable prefix must survive");
        assert_eq!(report.best_reward, Some(0.1));
        assert!(report.truncated);
        assert_eq!(report.dropped_lines, 1);
        let table = report.render();
        assert!(table.contains("truncated: true"), "{table}");
    }

    #[test]
    fn torn_tail_drops_suffix_after_first_bad_line() {
        let good = "{\"step\":0,\"event\":\"checkpoint_saved\",\"episodes_done\":1}";
        let text = format!("{good}\n{{\"step\":1,\"ev\n{good}\n{good}\n");
        let report = RunReport::from_jsonl(&text).unwrap();
        assert_eq!(report.records, 1);
        assert!(report.truncated);
        assert_eq!(report.dropped_lines, 3, "bad line + unreachable suffix");
    }

    #[test]
    fn intact_jsonl_is_not_flagged_truncated() {
        let (j, buf) = Journal::in_memory();
        j.record(tick());
        j.finish().unwrap();
        let report = RunReport::from_jsonl(&buf.contents()).unwrap();
        assert!(!report.truncated);
        assert_eq!(report.dropped_lines, 0);
        assert!(!report.render().contains("truncated"));
    }

    #[test]
    fn eval_events_are_counted_and_phased() {
        let (j, buf) = Journal::in_memory();
        j.record(JournalEvent::EvalPanic {
            message: "mapper overflow".into(),
        });
        j.record(JournalEvent::EvalQuarantined {
            reason: "evaluator panicked: mapper overflow".into(),
        });
        j.finish().unwrap();
        let report = RunReport::from_jsonl(&buf.contents()).unwrap();
        assert_eq!(report.eval_panics, 1);
        assert_eq!(report.eval_quarantined, 1);
        assert_eq!(report.phases["eval"], 2);
        assert!(report
            .render()
            .contains("eval failures    1 panics / 1 quarantined"));
    }

    #[test]
    fn an_unknown_event_between_known_ones_is_retired_not_a_torn_tail() {
        let (j, buf) = Journal::in_memory();
        j.record(tick());
        j.finish().unwrap();
        let retired = "{\"step\":1,\"event\":\"shard_heartbeat\",\"shard\":0,\"generation\":0,\"episodes\":4}";
        let after = "{\"step\":2,\"event\":\"run_end\",\"episodes\":4,\"best_reward\":0.5}";
        let text = format!("{}{retired}\n{after}\n", buf.contents());
        let report = RunReport::from_jsonl(&text).unwrap();
        assert!(!report.truncated, "{report:?}");
        assert_eq!(report.dropped_lines, 0);
        assert_eq!(report.retired_events, 1);
        assert_eq!(report.records, 2);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(report.best_reward, Some(0.5));
        let table = report.render();
        assert!(
            table.contains("retired events   1 (skipped; unknown to this build)"),
            "{table}"
        );
        // A known event carrying a field this build no longer writes
        // (the retry count of an older `job_panic`) is still a record.
        let older = "{\"step\":0,\"event\":\"job_panic\",\"job\":\"job-1\",\"attempt\":2,\"message\":\"boom\"}\n";
        let report = RunReport::from_jsonl(older).unwrap();
        assert_eq!(report.job_panics, 1, "{report:?}");
        assert!(!report.truncated, "{report:?}");
        assert_eq!(report.retired_events, 0);
    }

    #[test]
    fn malformed_records_stay_torn_tails_not_retired_events() {
        for line in [
            "{\"step\":1,\"event\":\"run_end\",\"episodes\":\"four\"}",
            "{\"step\":\"one\",\"event\":\"shard_heartbeat\"}",
            "{\"step\":1,\"event\":7}",
            "{\"step\":1,\"event\":\"shard_heart",
        ] {
            let report = RunReport::from_jsonl(&format!("{line}\n")).unwrap();
            assert!(report.truncated, "{line}");
            assert_eq!(report.retired_events, 0, "{line}");
        }
    }

    #[test]
    fn resume_file_repairs_torn_tail_and_continues_steps() {
        let path = std::env::temp_dir().join(format!(
            "lcda-journal-resume-test-{}.jsonl",
            std::process::id()
        ));
        let j = Journal::to_file(&path).unwrap();
        j.record(tick());
        j.record(tick());
        j.finish().unwrap();
        // Tear the tail: append a partial line as a kill-mid-write would.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"step\":2,\"eve").unwrap();
        }
        let resumed = Journal::resume_file(&path).unwrap();
        resumed.record(JournalEvent::RunEnd {
            episodes: 2,
            best_reward: 0.5,
        });
        resumed.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let report = RunReport::from_jsonl(&text).unwrap();
        assert!(!report.truncated, "resume must have repaired the tail");
        assert_eq!(report.records, 3);
        let last: JournalRecord = lcda_base::json::from_str(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.step, 2, "step must continue past the salvage point");
    }

    #[test]
    fn resume_file_fails_on_mid_file_damage_and_leaves_the_file_untouched() {
        let path = std::env::temp_dir().join(format!(
            "lcda-journal-midfile-test-{}.jsonl",
            std::process::id()
        ));
        let j = Journal::to_file(&path).unwrap();
        for _ in 0..5 {
            j.record(tick());
        }
        j.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        // Damage line 2 of 5: the records after it must not be dropped.
        let damaged = text.replacen("\n{", "\n#", 1);
        std::fs::write(&path, &damaged).unwrap();
        let err = Journal::resume_file(&path).unwrap_err();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CoreError::Journal(_)), "{err:?}");
        assert!(err.to_string().contains("line 2"), "{err}");
        assert_eq!(
            bytes,
            damaged.as_bytes(),
            "a refused resume must not touch the file"
        );
    }

    #[test]
    fn write_failures_surface_at_finish() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let j = Journal::to_writer(Box::new(Broken));
        j.record(tick());
        match j.finish() {
            Err(CoreError::Journal(msg)) => assert!(msg.contains("disk full")),
            other => panic!("expected journal error, got {other:?}"),
        }
    }
}
