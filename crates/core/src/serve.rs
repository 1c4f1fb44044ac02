//! Co-design-as-a-service: a multi-tenant job server over one shared
//! [`CacheStore`].
//!
//! [`JobServer`] runs co-design searches on behalf of HTTP clients. Each
//! submitted [`JobSpec`] becomes a job with a typed lifecycle
//! ([`JobState`]: queued → running → done/failed/cancelled), executed by
//! a fixed worker pool. All jobs evaluate through the server's one
//! [`CacheStore`], so a design evaluated by any tenant is free for every
//! later tenant with the same evaluator context — the per-session
//! [`SessionStats::cross_run_hits`] counter makes that reuse visible per
//! job.
//!
//! The server speaks minimal HTTP/1.1 over [`std::net::TcpListener`] —
//! no framework, no new dependencies:
//!
//! | method & path            | effect                                       |
//! |--------------------------|----------------------------------------------|
//! | `POST /jobs`             | submit a [`JobSpec`] (JSON body) → `202`     |
//! | `GET /jobs/{id}`         | job status + per-session cache stats         |
//! | `GET /jobs/{id}/result`  | the finished run's JSON outcome              |
//! | `POST /jobs/{id}/cancel` | cancel a queued or running job               |
//! | `GET /jobs/{id}/journal` | live-stream the job's JSONL journal (chunked)|
//! | `GET /stats`             | job counts + shared-store counters           |
//! | `GET /healthz`           | liveness: uptime, workers, queue depth       |
//! | `GET /readyz`            | readiness: `503` when shutting down or full  |
//! | `POST /shutdown`         | stop accepting work and exit the serve loop  |
//!
//! # Durability
//!
//! With a journal directory configured, the server keeps a durable job
//! ledger — a write-ahead log (`jobs.wal.jsonl`, see [`crate::wal`])
//! appended and fsynced on every admission and state transition — plus
//! per-job checkpoint generations (`job-<n>.ckpt.json`) saved at episode
//! boundaries and a per-job result file (`job-<n>.result.json`) written
//! atomically *before* the `done` transition is journaled. `kill -9` at
//! any instant therefore loses no acknowledged work: on restart,
//! [`JobServer::bind`] replays the ledger, restores terminal jobs in
//! place, and re-admits interrupted jobs in original admission order,
//! resuming each from its newest checkpoint generation.
//! A recovered job's result is **byte-identical** to an uninterrupted
//! run's (checkpoint resume replays recorded episodes through the
//! freshly seeded optimizer — the same discipline `lcda search --resume`
//! uses).
//!
//! The result file is also the only copy the server keeps: the outcome
//! streams into it, a `done` job's body is copied from it to the socket
//! on each `GET /jobs/{id}/result`, and a restart only checks that the
//! file exists. A job closes its journal file when it reaches a terminal
//! state. So a finished job holds its spec and a few counters in memory,
//! not its result or an open file.
//! A server without a journal directory has nowhere durable to put a
//! result and keeps it in memory instead.
//!
//! # Overload and deadlines
//!
//! The admission queue is bounded ([`ServeConfig::queue_capacity`]): a
//! full queue rejects `POST /jobs` with `429` + `Retry-After` instead of
//! growing without bound. A job may carry a wall-clock deadline
//! ([`JobSpec::deadline_secs`]), enforced cooperatively at episode
//! boundaries: expiry lands the job in `failed` with a
//! `deadline_exceeded` error. A panicking job is caught once, journaled
//! as `job_panic` and failed with the panic's text; it is not retried,
//! since every evaluator is deterministic and a re-run would panic
//! again. The worker thread survives and takes the next job.
//!
//! # Determinism
//!
//! A served job's result is **byte-identical** to the same search run
//! offline (`lcda search --json`): the worker builds the exact pipeline
//! the CLI builds, caching never changes values (only cost), and the
//! stored result is the same `lcda_base::json::to_string_pretty` rendering
//! (plus the CLI's trailing newline). The shared store can only turn
//! misses into hits of *identical* values, because entries are keyed by
//! the evaluator-context fingerprint that already namespaces every
//! backend and seed-sensitive evaluator.
//!
//! # Journal isolation
//!
//! Every job writes its own journal file, `job-<n>.jsonl`, under the
//! configured journal directory. Concurrent jobs therefore cannot
//! interleave records — there is no shared sink to race on — and each
//! file carries the job's full lifecycle (`job_admitted` …
//! `job_ended`) plus the run's own events.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::backend::{check_backend, DEFAULT_BACKEND};
use crate::cache::{CacheStore, SessionStats, StoreStats};
use crate::checkpoint::CheckpointStore;
use crate::codesign::{CoDesign, CoDesignConfig, OptimizerSpec, Outcome};
use crate::hwconfig::HwHierarchy;
use crate::journal::{Journal, JournalEvent};
use crate::reward::Objective;
use crate::space::DesignSpace;
use crate::wal::{LedgerJob, Wal, WalEntry, WAL_FILE};
use crate::{lock, CoreError, Result};
use lcda_base::json::{FromJson, JsonOut, ToJson, Value};

/// How often a journal stream rechecks its file for new bytes, and how
/// long the acceptor backs off after a failed `accept`. Workers and
/// [`JobServer::wait`] never poll: they block on the [`JobQueue`].
const POLL: Duration = Duration::from_millis(25);

/// Socket read/write timeout for request handling and streaming: a
/// stalled client is disconnected rather than wedging its connection
/// thread.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest accepted HTTP request line, bytes.
const MAX_REQUEST_LINE: u64 = 8 * 1024;

/// Longest accepted header section, bytes (all headers combined).
const MAX_HEADER_BYTES: u64 = 16 * 1024;

/// Largest accepted request body, bytes. Larger bodies are `413`.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest journal chunk a stream reads and sends at once, bytes.
const STREAM_CHUNK: u64 = 64 * 1024;

/// Identifier of one submitted job, rendered as `job-<n>`.
///
/// The id doubles as the job's journal-file key (`job-<n>.jsonl`) and
/// its URL path segment (`/jobs/job-<n>`). Ids are allocated densely
/// from 1 in admission order and never reused within a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The numeric index behind the id (1-based admission order).
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl FromStr for JobId {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        let index = s
            .strip_prefix("job-")
            .and_then(|n| n.parse::<u64>().ok())
            .filter(|n| *n > 0)
            .ok_or_else(|| CoreError::InvalidConfig(format!("invalid job id `{s}`")))?;
        Ok(JobId(index))
    }
}

// A job id is written as its display form, `"job-<n>"`.
impl ToJson for JobId {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.string_display(self)
    }
}

impl FromJson for JobId {
    fn from_json(value: &Value) -> lcda_base::json::Result<Self> {
        String::from_json(value)?
            .parse()
            .map_err(lcda_base::json::Error::new)
    }
}

/// Lifecycle state of a served job.
///
/// The machine has exactly five states and four legal edges:
///
/// ```text
/// queued ──► running ──► done
///    │           ├─────► failed
///    └───────────┴─────► cancelled
/// ```
///
/// Terminal states (`done` / `failed` / `cancelled`) are absorbing; the
/// server enforces the edges via [`JobState::can_advance`], so a record
/// can never, say, resurrect from `cancelled` to `running`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and waiting for a free worker.
    Queued,
    /// A worker is executing the search.
    Running,
    /// The search finished; the result JSON is available.
    Done,
    /// The search errored; the error message is available.
    Failed,
    /// The job was cancelled (while queued, or cooperatively at an
    /// episode boundary while running).
    Cancelled,
}

lcda_base::impl_json!(
    #[snake_case]
    enum JobState {
        Queued,
        Running,
        Done,
        Failed,
        Cancelled,
    }
);

impl JobState {
    /// Stable lower-case name (`queued`, `running`, `done`, `failed`,
    /// `cancelled`) — the same token the JSON encoding uses.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True for absorbing states: `done`, `failed`, `cancelled`.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Whether the lifecycle permits a `self → next` transition.
    pub fn can_advance(self, next: JobState) -> bool {
        matches!(
            (self, next),
            (JobState::Queued, JobState::Running)
                | (JobState::Queued, JobState::Cancelled)
                | (JobState::Running, JobState::Done)
                | (JobState::Running, JobState::Failed)
                | (JobState::Running, JobState::Cancelled)
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn default_optimizer() -> String {
    "expert".to_string()
}

fn default_objective() -> String {
    "energy".to_string()
}

fn default_backend() -> String {
    DEFAULT_BACKEND.to_string()
}

fn default_episodes() -> u32 {
    20
}

fn default_threads() -> usize {
    1
}

fn default_cache() -> bool {
    true
}

/// A search request, as submitted to `POST /jobs`.
///
/// Every field has the same default the `lcda search` CLI uses, so the
/// empty spec `{}` is the CLI's default run. Unknown fields are
/// rejected at parse time (a `"epsodes"` typo must not silently run 20
/// episodes).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Optimizer name, as in `lcda search --optimizer` (default
    /// `expert`).
    pub optimizer: String,
    /// Objective name: `energy` or `latency` (default `energy`).
    pub objective: String,
    /// Hardware backend name (default `cim`, the only one). Any other
    /// name is refused at admission, before the job is queued; a
    /// hierarchy goes in [`JobSpec::hw`].
    pub backend: String,
    /// Episode budget (default 20).
    pub episodes: u32,
    /// Master seed (default 0).
    pub seed: u64,
    /// Evaluator worker threads; results are bit-identical for every
    /// value (default 1).
    pub threads: usize,
    /// Whether the job evaluates through the server's shared
    /// [`CacheStore`] (default true). Disabling it only costs time:
    /// cached and uncached runs produce identical results.
    pub cache: bool,
    /// Declarative hardware hierarchy for the backend to lower from
    /// (default: the backend's builtin). Validated at admission — a
    /// malformed hierarchy is a `400`, never a queued-then-failed job.
    pub hw: Option<HwHierarchy>,
    /// Wall-clock deadline for this job, seconds (default: none).
    /// Enforced cooperatively at episode boundaries; expiry fails the
    /// job with a typed `deadline_exceeded` error. `0` expires at the
    /// first boundary.
    pub deadline_secs: Option<u64>,
}

lcda_base::impl_json!(#[deny_unknown_fields] struct JobSpec {
    #[default = default_optimizer] optimizer,
    #[default = default_objective] objective,
    #[default = default_backend] backend,
    #[default = default_episodes] episodes,
    #[default] seed,
    #[default = default_threads] threads,
    #[default = default_cache] cache,
    #[skip_if = Option::is_none] hw,
    #[skip_if = Option::is_none] deadline_secs,
});

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            optimizer: default_optimizer(),
            objective: default_objective(),
            backend: default_backend(),
            episodes: default_episodes(),
            seed: 0,
            threads: default_threads(),
            cache: default_cache(),
            hw: None,
            deadline_secs: None,
        }
    }
}

impl JobSpec {
    /// Full admission validation: backend, hierarchy, optimizer,
    /// objective, and the numeric bounds the episode loop requires.
    ///
    /// # Errors
    ///
    /// The first [`CoreError::InvalidConfig`] found, so a rejected
    /// submission points at one concrete problem.
    pub fn validate(&self) -> Result<()> {
        self.validate_backend()?;
        if let Some(hw) = &self.hw {
            hw.validate()?;
        }
        OptimizerSpec::from_name(&self.optimizer)?;
        Objective::from_name(&self.objective)?;
        if self.episodes == 0 {
            return Err(CoreError::InvalidConfig(
                "episodes must be at least 1".into(),
            ));
        }
        if self.threads == 0 {
            return Err(CoreError::InvalidConfig(
                "threads must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Refuses any backend but `cim` by name; a `cim@<config>` spec is
    /// pointed at the `hw` object, the one way a job names a hierarchy.
    fn validate_backend(&self) -> Result<()> {
        if self.backend.contains('@') {
            return Err(CoreError::InvalidConfig(format!(
                "backend `{}` names a hardware config with `@`, which is not \
                 accepted; send the hierarchy as the job's `hw` object",
                self.backend
            )));
        }
        check_backend(&self.backend)
    }
}

/// Configuration for [`JobServer::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (default `127.0.0.1:0` — an ephemeral port; read
    /// the bound address back via [`JobServer::addr`]).
    pub addr: String,
    /// Worker threads executing jobs (default 2, clamped to ≥ 1). With
    /// one worker, jobs run strictly in admission order.
    pub workers: usize,
    /// Entry bound for the shared [`CacheStore`] (default unbounded).
    /// The bound's only source: a store loaded from `cache_path` is
    /// evicted down to it, oldest admission first.
    pub cache_capacity: Option<usize>,
    /// Persist the shared store here: loaded at bind when the file
    /// exists, saved when a job that admitted entries ends and at
    /// shutdown. Entries loaded from disk count as cross-run hits for
    /// every session.
    pub cache_path: Option<PathBuf>,
    /// Directory for per-job journals (`job-<n>.jsonl`) **and** the
    /// durability artifacts: the job-ledger WAL (`jobs.wal.jsonl`),
    /// per-job checkpoints (`job-<n>.ckpt.json`), result files
    /// (`job-<n>.result.json`), and the server journal (`server.jsonl`).
    /// `None` disables journaling, the `/journal` endpoint, and crash
    /// recovery.
    pub journal_dir: Option<PathBuf>,
    /// Bound on queued admissions (default 1024, clamped to ≥ 1). A
    /// full queue rejects `POST /jobs` with `429` + `Retry-After`.
    pub queue_capacity: usize,
    /// Per-job checkpoint cadence, episodes (default 1 — checkpoint
    /// every episode). Meaningful only with a journal directory.
    pub checkpoint_every: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: None,
            cache_path: None,
            journal_dir: None,
            queue_capacity: 1024,
            checkpoint_every: 1,
        }
    }
}

/// A point-in-time view of one job, as returned by `GET /jobs/{id}`.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's id.
    pub job: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// The spec as admitted.
    pub spec: JobSpec,
    /// Error message, for `failed` jobs.
    pub error: Option<String>,
    /// The job's session view of the shared cache, recorded when the
    /// job reached a terminal state (absent before that).
    pub cache: Option<SessionStats>,
    /// True when this job was re-admitted from the durable WAL after a
    /// server restart.
    pub recovered: bool,
}

lcda_base::impl_json!(struct JobStatus {
    job,
    state,
    spec,
    #[skip_if = Option::is_none] error,
    #[skip_if = Option::is_none] cache,
    #[skip_if = std::ops::Not::not] recovered,
});

/// Server-wide counters, as returned by `GET /stats`.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Jobs per lifecycle state name.
    pub jobs: BTreeMap<String, u64>,
    /// Shared-store counters across all sessions.
    pub store: StoreStats,
    /// Entries currently resident in the shared store.
    pub store_entries: u64,
    /// The store's capacity bound, if any.
    pub store_capacity: Option<usize>,
}

lcda_base::impl_json!(struct ServerStats { jobs, store, store_entries, store_capacity });

/// Liveness, as returned by `GET /healthz`.
struct Health {
    /// Always `"ok"`: the server answered.
    status: String,
    uptime_secs: u64,
    workers: usize,
    queue_depth: usize,
    jobs_running: usize,
}

lcda_base::impl_json!(struct Health { status, uptime_secs, workers, queue_depth, jobs_running });

/// Readiness, as returned by `GET /readyz`.
struct Readiness {
    /// Accepting admissions right now: not shutting down, queue not full.
    ready: bool,
    shutting_down: bool,
    queue_depth: usize,
    queue_capacity: usize,
    workers: usize,
    uptime_secs: u64,
}

lcda_base::impl_json!(struct Readiness {
    ready,
    shutting_down,
    queue_depth,
    queue_capacity,
    workers,
    uptime_secs,
});

/// The `202` body of an admitted `POST /jobs`.
struct Admitted {
    job: JobId,
    state: JobState,
}

lcda_base::impl_json!(struct Admitted { job, state });

/// The body of every error response.
struct ErrorBody {
    error: String,
}

lcda_base::impl_json!(struct ErrorBody { error });

/// One job's mutable record inside the server.
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
    /// The finished run's outcome: `lcda_base::json::to_string_pretty` plus
    /// a trailing newline — byte-identical to `lcda search --json`. Held
    /// only by a server without a journal directory; with one it stays
    /// `None` and the body lives in the job's result file.
    result: Option<String>,
    stats: Option<SessionStats>,
    cancel: Arc<AtomicBool>,
    journal: Journal,
    journal_path: Option<PathBuf>,
    recovered: bool,
}

/// The admission queue: ids of admitted jobs no worker has taken yet, in
/// admission order. Its bound is [`ServerState::submit`]'s, which checks
/// the depth under the jobs lock. Re-admission after a restart may go
/// past it; admissions are then refused until the backlog drains.
struct JobQueue {
    ids: Mutex<VecDeque<u64>>,
    /// Wakes one idle worker per pushed id, and every worker at shutdown.
    ready: Condvar,
    /// Wakes [`JobServer::wait`] at shutdown.
    stopped: Condvar,
}

/// State shared by the acceptor, the workers, and the [`JobServer`]
/// handle.
struct ServerState {
    store: CacheStore,
    jobs: Mutex<BTreeMap<u64, JobRecord>>,
    queue: JobQueue,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    journal_dir: Option<PathBuf>,
    /// The durable job ledger; `None` without a journal directory.
    wal: Option<Wal>,
    /// Server-level journal (`server.jsonl`): queue rejections, dropped
    /// streams — events that belong to no single job.
    server_journal: Journal,
    queue_capacity: usize,
    /// Where the shared store is saved, behind the lock that serializes
    /// saves: every save writes the same `<file>.tmp`.
    cache_path: Mutex<Option<PathBuf>>,
    checkpoint_every: u32,
    worker_count: usize,
    started: Instant,
}

impl ServerState {
    /// Validates and admits a job: checks the queue bound, appends the
    /// admission to the WAL, allocates the id, opens the per-job
    /// journal, records `job_admitted`, and queues it for a worker.
    fn submit(&self, spec: JobSpec) -> Result<JobId> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(CoreError::Cancelled("server is shutting down".into()));
        }
        spec.validate()?;
        // The jobs lock serializes every admission, so the is-full
        // check and the push cannot race another submitter past the
        // bound; workers only ever drain the queue.
        let mut jobs = lock(&self.jobs);
        let depth = self.queue_depth();
        if depth >= self.queue_capacity {
            self.server_journal.record(JournalEvent::QueueRejected {
                depth: depth as u64,
                capacity: self.queue_capacity as u64,
            });
            return Err(CoreError::Overloaded(format!(
                "job queue is full ({} queued)",
                self.queue_capacity
            )));
        }
        let id = JobId(self.next_id.fetch_add(1, Ordering::SeqCst) + 1);
        // Write-ahead: the ledger records the admission before any
        // in-memory effect, so an acknowledged job survives kill -9.
        if let Some(wal) = &self.wal {
            wal.append(WalEntry::Admitted {
                job: id.index(),
                spec: Box::new(spec.clone()),
            })?;
        }
        let journal_path = self
            .journal_dir
            .as_ref()
            .map(|dir| dir.join(format!("{id}.jsonl")));
        let journal = match &journal_path {
            Some(path) => Journal::to_file(path)?,
            None => Journal::disabled(),
        };
        journal.record(JournalEvent::JobAdmitted {
            job: id.to_string(),
            optimizer: spec.optimizer.clone(),
            backend: spec.backend.clone(),
            episodes: spec.episodes,
            seed: spec.seed,
        });
        let record = JobRecord {
            spec,
            state: JobState::Queued,
            error: None,
            result: None,
            stats: None,
            cancel: Arc::new(AtomicBool::new(false)),
            journal,
            journal_path,
            recovered: false,
        };
        jobs.insert(id.index(), record);
        self.enqueue(id.index());
        Ok(id)
    }

    /// Queues a job id and wakes one idle worker.
    fn enqueue(&self, index: u64) {
        lock(&self.queue.ids).push_back(index);
        self.queue.ready.notify_one();
    }

    /// Job ids queued and not yet taken by a worker.
    fn queue_depth(&self) -> usize {
        lock(&self.queue.ids).len()
    }

    /// The next queued job id, blocking while the queue is empty; `None`
    /// once shutdown is requested, even with ids still queued.
    fn next_job(&self) -> Option<u64> {
        let mut ids = lock(&self.queue.ids);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(index) = ids.pop_front() {
                return Some(index);
            }
            ids = self
                .queue
                .ready
                .wait(ids)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Sets the shutdown flag and wakes every idle worker and
    /// [`JobServer::wait`]. The flag is set before the queue lock is
    /// taken, so a waiter either sees it or is already blocked and gets
    /// the wake-up.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ids = lock(&self.queue.ids);
        self.queue.ready.notify_all();
        self.queue.stopped.notify_all();
    }

    fn status(&self, id: JobId) -> Option<JobStatus> {
        let jobs = lock(&self.jobs);
        jobs.get(&id.index()).map(|rec| JobStatus {
            job: id,
            state: rec.state,
            spec: rec.spec.clone(),
            error: rec.error.clone(),
            cache: rec.stats,
            recovered: rec.recovered,
        })
    }

    /// The finished result JSON, only for `done` jobs: from the record
    /// on a server without a journal directory, else from the job's
    /// result file.
    fn result(&self, id: JobId) -> Result<Option<String>> {
        match self.result_body(id)? {
            Some(ResultBody::File { mut file, path, .. }) => {
                let mut text = String::new();
                file.read_to_string(&mut text)
                    .map_err(|e| read_error(&path, &e))?;
                Ok(Some(text))
            }
            Some(ResultBody::Held(text)) => Ok(Some(text)),
            None => Ok(None),
        }
    }

    /// [`ServerState::result`] unread: the held text, or the open result
    /// file and its length, for a response to copy from.
    fn result_body(&self, id: JobId) -> Result<Option<ResultBody>> {
        let held = match lock(&self.jobs).get(&id.index()) {
            Some(rec) if rec.state == JobState::Done => rec.result.clone(),
            _ => return Ok(None),
        };
        match (held, &self.journal_dir) {
            (None, Some(dir)) => {
                let path = result_path(dir, id);
                let file = std::fs::File::open(&path).map_err(|e| read_error(&path, &e))?;
                let len = file.metadata().map_err(|e| read_error(&path, &e))?.len();
                Ok(Some(ResultBody::File { file, len, path }))
            }
            (held, _) => Ok(held.map(ResultBody::Held)),
        }
    }

    /// Cancels a job: a queued job goes terminal immediately; a running
    /// job gets its flag set and cancels cooperatively at the next
    /// episode boundary; terminal jobs are left untouched.
    fn cancel(&self, id: JobId) -> Option<JobStatus> {
        {
            let mut jobs = lock(&self.jobs);
            let rec = jobs.get_mut(&id.index())?;
            match rec.state {
                JobState::Queued => {
                    if let Some(wal) = &self.wal {
                        if let Err(e) = wal.append(WalEntry::Transition {
                            job: id.index(),
                            state: JobState::Cancelled,
                            error: None,
                        }) {
                            rec.error.get_or_insert(format!("wal: {e}"));
                        }
                    }
                    rec.state = JobState::Cancelled;
                    rec.journal.record(JournalEvent::JobEnded {
                        job: id.to_string(),
                        state: JobState::Cancelled.name().to_string(),
                    });
                    if let Err(e) = rec.journal.finish() {
                        rec.error.get_or_insert(format!("journal: {e}"));
                    }
                    // Dropping the handle closes the file and frees its
                    // buffer; `/journal` streams from `journal_path`.
                    rec.journal = Journal::disabled();
                }
                JobState::Running => rec.cancel.store(true, Ordering::SeqCst),
                _ => {}
            }
        }
        self.status(id)
    }

    /// Saves the shared store to the configured `cache_path`, if any.
    /// The path's lock serializes saves, so two workers ending jobs at
    /// once never interleave their bytes in the shared tmp file.
    fn save_store(&self) -> Result<()> {
        match &*lock(&self.cache_path) {
            Some(path) => self.store.save(path),
            None => Ok(()),
        }
    }

    fn stats(&self) -> ServerStats {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for rec in lock(&self.jobs).values() {
            *counts.entry(rec.state.name().to_string()).or_insert(0) += 1;
        }
        ServerStats {
            jobs: counts,
            store: self.store.stats(),
            store_entries: self.store.len() as u64,
            store_capacity: self.store.capacity(),
        }
    }

    /// Liveness payload for `GET /healthz`.
    fn health(&self) -> Health {
        let running = lock(&self.jobs)
            .values()
            .filter(|rec| rec.state == JobState::Running)
            .count();
        Health {
            status: "ok".into(),
            uptime_secs: self.started.elapsed().as_secs(),
            workers: self.worker_count,
            queue_depth: self.queue_depth(),
            jobs_running: running,
        }
    }

    /// Readiness for `GET /readyz`: accepting admissions right now.
    fn ready(&self) -> Readiness {
        let shutting_down = self.shutdown.load(Ordering::SeqCst);
        let depth = self.queue_depth();
        let full = depth >= self.queue_capacity;
        Readiness {
            ready: !shutting_down && !full,
            shutting_down,
            queue_depth: depth,
            queue_capacity: self.queue_capacity,
            workers: self.worker_count,
            uptime_secs: self.started.elapsed().as_secs(),
        }
    }

    /// Rebuilds the job table from a replayed WAL ledger. Terminal jobs
    /// are restored in place (a `done` job only if its result file
    /// exists; the body stays on disk); interrupted jobs (`queued` or
    /// `running` at the crash) are reset to `queued` — the one
    /// sanctioned transition outside [`JobState::can_advance`], since
    /// the claiming worker no longer exists — and returned in original
    /// admission order for re-admission. An interrupted job whose spec
    /// no longer decodes is failed instead, with the decode error.
    fn recover(&self, ledger: &BTreeMap<u64, LedgerJob>) -> Result<Vec<u64>> {
        let Some(dir) = self.journal_dir.clone() else {
            return Ok(Vec::new());
        };
        let mut requeue = Vec::new();
        let mut jobs = lock(&self.jobs);
        for (&index, entry) in ledger {
            let id = JobId(index);
            let journal_path = dir.join(format!("{id}.jsonl"));
            let mut state = entry.state;
            let mut error = entry.error.clone();
            // The `done` transition is journaled only after the result
            // file is durably in place, so a missing file means outside
            // tampering; re-running is deterministic and rebuilds it.
            if state == JobState::Done && !result_path(&dir, id).exists() {
                state = JobState::Queued;
            }
            // A spec this build cannot decode cannot run: fail the job,
            // saying why.
            if let Some(why) = entry.unreadable.as_ref().filter(|_| !state.is_terminal()) {
                state = JobState::Failed;
                error = Some(why.clone());
            }
            if state.is_terminal() {
                jobs.insert(
                    index,
                    JobRecord {
                        spec: entry.spec.clone(),
                        state,
                        error,
                        result: None,
                        stats: None,
                        cancel: Arc::new(AtomicBool::new(false)),
                        journal: Journal::disabled(),
                        journal_path: journal_path.exists().then_some(journal_path),
                        recovered: true,
                    },
                );
                continue;
            }
            // Interrupted: reopen the job's journal in append mode
            // (salvaging a torn tail), note the recovery, re-admit.
            let journal = if journal_path.exists() {
                Journal::resume_file(&journal_path)?
            } else {
                Journal::to_file(&journal_path)?
            };
            let episodes_done = CheckpointStore::new(checkpoint_path(&dir, id), CHECKPOINT_KEEP)?
                .load_latest()
                .ok()
                .flatten()
                .map_or(0, |(cp, _)| cp.episodes_done());
            journal.record(JournalEvent::JobRecovered {
                job: id.to_string(),
                state: entry.state.name().to_string(),
                episodes_done,
            });
            jobs.insert(
                index,
                JobRecord {
                    spec: entry.spec.clone(),
                    state: JobState::Queued,
                    error: None,
                    result: None,
                    stats: None,
                    cancel: Arc::new(AtomicBool::new(false)),
                    journal,
                    journal_path: Some(journal_path),
                    recovered: true,
                },
            );
            requeue.push(index);
        }
        Ok(requeue)
    }
}

/// A `done` job's result, as [`ServerState::result_body`] finds it.
enum ResultBody {
    /// Held by a server without a journal directory.
    Held(String),
    /// The job's result file, open, with its length.
    File {
        file: std::fs::File,
        len: u64,
        path: PathBuf,
    },
}

fn read_error(path: &std::path::Path, e: &std::io::Error) -> CoreError {
    CoreError::Journal(format!("read {}: {e}", path.display()))
}

/// Generations kept per job checkpoint (newest + one fallback).
const CHECKPOINT_KEEP: u32 = 2;

/// The job's durable result file (written before its `done` WAL line).
fn result_path(dir: &std::path::Path, id: JobId) -> PathBuf {
    dir.join(format!("{id}.result.json"))
}

/// The job's checkpoint-generation base path.
fn checkpoint_path(dir: &std::path::Path, id: JobId) -> PathBuf {
    dir.join(format!("{id}.ckpt.json"))
}

/// The threaded job server. See the [module docs](self) for the HTTP
/// surface; every endpoint is also available as a method for in-process
/// use ([`JobServer::submit`], [`JobServer::status`], …).
pub struct JobServer {
    state: Arc<ServerState>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for JobServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl JobServer {
    /// Binds the listener, opens (and replays) the durable job ledger,
    /// spawns the worker pool and the acceptor, re-admits interrupted
    /// jobs in original admission order, and returns a handle. With
    /// `addr` port 0, the OS picks an ephemeral port — read it back via
    /// [`JobServer::addr`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the address cannot be bound;
    /// checkpoint/journal errors when a persisted store or the WAL
    /// fails to load, or the journal directory cannot be created.
    pub fn bind(config: ServeConfig) -> Result<JobServer> {
        let store = match &config.cache_path {
            Some(path) if path.exists() => CacheStore::load(path, config.cache_capacity)?,
            _ => config
                .cache_capacity
                .map_or_else(CacheStore::new, CacheStore::with_capacity),
        };
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| CoreError::Journal(format!("create {}: {e}", dir.display())))?;
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| CoreError::InvalidConfig(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CoreError::InvalidConfig(format!("local addr: {e}")))?;
        let queue_capacity = config.queue_capacity.max(1);
        // Replay the durable ledger before anything can be admitted.
        let mut wal = None;
        let mut ledger = BTreeMap::new();
        if let Some(dir) = &config.journal_dir {
            let (handle, records) = Wal::open(&dir.join(WAL_FILE))?;
            ledger = crate::wal::replay_ledger(&records);
            wal = Some(handle);
        }
        let server_journal = match &config.journal_dir {
            Some(dir) => {
                let path = dir.join("server.jsonl");
                if path.exists() {
                    Journal::resume_file(&path)?
                } else {
                    Journal::to_file(&path)?
                }
            }
            None => Journal::disabled(),
        };
        let state = Arc::new(ServerState {
            store,
            jobs: Mutex::new(BTreeMap::new()),
            queue: JobQueue {
                ids: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                stopped: Condvar::new(),
            },
            // Ids continue past every job the ledger has ever seen.
            next_id: AtomicU64::new(ledger.keys().next_back().copied().unwrap_or(0)),
            shutdown: AtomicBool::new(false),
            journal_dir: config.journal_dir.clone(),
            wal,
            server_journal,
            queue_capacity,
            cache_path: Mutex::new(config.cache_path),
            checkpoint_every: config.checkpoint_every.max(1),
            worker_count: config.workers.max(1),
            started: Instant::now(),
        });
        // Re-admit interrupted jobs in original admission order.
        for index in state.recover(&ledger)? {
            state.enqueue(index);
        }
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let st = Arc::clone(&state);
                thread::spawn(move || worker_loop(&st))
            })
            .collect();
        let acceptor = {
            let st = Arc::clone(&state);
            thread::spawn(move || acceptor_loop(&st, &listener))
        };
        Ok(JobServer {
            state,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound listen address (with the real port when 0 was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared cross-run store every cached job evaluates through.
    pub fn store(&self) -> &CacheStore {
        &self.state.store
    }

    /// Submits a job in-process — the same admission path `POST /jobs`
    /// uses.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the spec fails validation;
    /// [`CoreError::Cancelled`] when the server is shutting down.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId> {
        self.state.submit(spec)
    }

    /// The job's current status, or `None` for unknown ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.state.status(id)
    }

    /// The finished result JSON (pretty-printed, trailing newline), or
    /// `None` while the job has not reached `done`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Journal`] naming the file when a `done` job's result
    /// file cannot be read.
    pub fn result(&self, id: JobId) -> Result<Option<String>> {
        self.state.result(id)
    }

    /// Cancels the job; returns its post-cancel status, or `None` for
    /// unknown ids.
    pub fn cancel(&self, id: JobId) -> Option<JobStatus> {
        self.state.cancel(id)
    }

    /// Server-wide job counts and shared-store counters.
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }

    /// Stops the server: no new admissions; each worker finishes the job
    /// it is running, claims no other and exits at once when idle; the
    /// acceptor closes; and — when configured — the shared store is
    /// persisted to `cache_path`. Jobs still queued stay `queued`: with a
    /// journal directory their WAL lines say only `admitted`, so the next
    /// [`JobServer::bind`] on the directory re-admits and runs them.
    ///
    /// # Errors
    ///
    /// Propagates a failed store save; the threads are joined either
    /// way.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop_threads();
        let _ = self.state.server_journal.finish();
        self.state.save_store()
    }

    /// Blocks until shutdown is requested (e.g. by `POST /shutdown`),
    /// then performs [`JobServer::shutdown`]. This is the `lcda serve`
    /// main loop.
    ///
    /// # Errors
    ///
    /// Propagates [`JobServer::shutdown`] failures.
    pub fn wait(self) -> Result<()> {
        {
            let mut ids = lock(&self.state.queue.ids);
            while !self.state.shutdown.load(Ordering::SeqCst) {
                ids = self
                    .state
                    .queue
                    .stopped
                    .wait(ids)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.shutdown()
    }

    /// Sets the shutdown flag, wakes the idle workers, wakes the acceptor
    /// out of its blocking `accept` with a loopback connection, and joins
    /// every thread.
    fn stop_threads(&mut self) {
        self.state.request_shutdown();
        if let Some(handle) = self.acceptor.take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, SOCKET_TIMEOUT);
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Worker: take job ids until shutdown, executing each to a terminal
/// state.
fn worker_loop(state: &Arc<ServerState>) {
    while let Some(index) = state.next_job() {
        run_job(state, JobId(index));
    }
}

/// Executes one job end to end: claim (queued → running, WAL'd),
/// search under one panic catch (the worker always survives), persist
/// the result durably, and land in a terminal state (WAL'd after the
/// result file is on disk; the shared store is saved before the record
/// shows it).
fn run_job(state: &Arc<ServerState>, id: JobId) {
    let (spec, cancel, journal) = {
        let mut jobs = lock(&state.jobs);
        let Some(rec) = jobs.get_mut(&id.index()) else {
            return;
        };
        // A queued job cancelled before any worker claimed it is
        // already terminal; respect the state machine and walk away. A
        // worker claims nothing once shutdown is requested: the job stays
        // `queued`, and the WAL re-admits it on the next bind.
        if !rec.state.can_advance(JobState::Running) || state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        rec.state = JobState::Running;
        (
            rec.spec.clone(),
            Arc::clone(&rec.cancel),
            rec.journal.clone(),
        )
    };
    if let Some(wal) = &state.wal {
        // A failed append degrades durability (the crash replay re-runs
        // the job from `queued`), never availability: the job proceeds.
        let _ = wal.append(WalEntry::Transition {
            job: id.index(),
            state: JobState::Running,
            error: None,
        });
    }
    journal.record(JournalEvent::JobStarted {
        job: id.to_string(),
    });
    let started = Instant::now();
    let ckpt_store = state
        .journal_dir
        .as_ref()
        .and_then(|dir| CheckpointStore::new(checkpoint_path(dir, id), CHECKPOINT_KEEP).ok());
    let mut stats: Option<SessionStats> = None;
    let outcome = catch_job_panic(&journal, id, || {
        let (result, run_stats) = execute(
            state,
            id,
            &spec,
            &cancel,
            &journal,
            started,
            ckpt_store.as_ref(),
        );
        stats = run_stats;
        result
    });
    let (next, result, error) = match outcome {
        // Durability order: the result file reaches disk before the WAL
        // records `done`, so a replayed `done` always finds it. The
        // trailing newline matches `lcda search --json`'s output,
        // keeping served results `cmp`-equal to the offline run.
        Ok(outcome) => match &state.journal_dir {
            Some(dir) => match crate::durable::atomic_write(&result_path(dir, id), |out| {
                lcda_base::json::to_writer_pretty(out, &outcome)?;
                out.write_all(b"\n")
            }) {
                Ok(()) => (JobState::Done, None, None),
                Err(e) => (JobState::Failed, None, Some(format!("persist result: {e}"))),
            },
            // Without a journal directory the record is the result's
            // only home.
            None => {
                let json = lcda_base::json::to_string_pretty(&outcome) + "\n";
                (JobState::Done, Some(json), None)
            }
        },
        Err(CoreError::Cancelled(_)) => (JobState::Cancelled, None, None),
        Err(e @ CoreError::DeadlineExceeded(_)) => {
            journal.record(JournalEvent::JobDeadline {
                job: id.to_string(),
                deadline_secs: spec.deadline_secs.unwrap_or(0),
            });
            (JobState::Failed, None, Some(e.to_string()))
        }
        Err(e) => (JobState::Failed, None, Some(e.to_string())),
    };
    if let Some(wal) = &state.wal {
        let _ = wal.append(WalEntry::Transition {
            job: id.index(),
            state: next,
            error: error.clone(),
        });
    }
    journal.record(JournalEvent::JobEnded {
        job: id.to_string(),
        state: next.name().to_string(),
    });
    let journal_error = journal.finish().err().map(|e| format!("journal: {e}"));
    // Persist what this job added to the shared store before its record
    // turns terminal, so a client that sees the job end can rely on the
    // store surviving `kill -9`. A failed save only costs a later run
    // those hits; the shutdown save reports its error.
    if stats.is_some_and(|s| s.inserts > 0) {
        let _ = state.save_store();
    }
    let mut jobs = lock(&state.jobs);
    if let Some(rec) = jobs.get_mut(&id.index()) {
        if rec.state.can_advance(next) {
            rec.state = next;
        }
        rec.result = result;
        rec.stats = stats;
        rec.error = error.or(journal_error);
        // The last other handle is this function's clone, dropped on
        // return, which closes the job's journal file.
        rec.journal = Journal::disabled();
    }
}

/// Runs one job's search under a single `catch_unwind`: a panic is
/// caught (the worker survives), journaled once as `job_panic` and
/// returned as [`CoreError::EvalPanic`] carrying the payload text.
/// Nothing is retried: every evaluator is a pure function of the design,
/// so a re-run of the same seeded search would reach the same panic.
fn catch_job_panic<T>(journal: &Journal, id: JobId, run: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = panic_text(payload.as_ref());
        journal.record(JournalEvent::JobPanic {
            job: id.to_string(),
            message: message.clone(),
        });
        Err(CoreError::EvalPanic(message))
    })
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs the search itself. Resumes from the job's newest checkpoint
/// generation when one exists (a job re-admitted after a crash
/// continues instead of starting over), checkpoints at the configured
/// episode cadence, and honours cancellation and the wall-clock
/// deadline at episode boundaries. Returns the outcome or the typed
/// error, plus the run's session stats when it got far enough to have
/// them.
fn execute(
    state: &Arc<ServerState>,
    id: JobId,
    spec: &JobSpec,
    cancel: &Arc<AtomicBool>,
    journal: &Journal,
    started: Instant,
    ckpt_store: Option<&CheckpointStore>,
) -> (Result<Outcome>, Option<SessionStats>) {
    let objective = match Objective::from_name(&spec.objective) {
        Ok(objective) => objective,
        Err(e) => return (Err(e), None),
    };
    let config = CoDesignConfig::builder(objective)
        .episodes(spec.episodes)
        .seed(spec.seed)
        .build();
    let built = (|| -> Result<CoDesign> {
        let optimizer = OptimizerSpec::from_name(&spec.optimizer)?;
        // A job queued by an older build may name a retired backend.
        spec.validate_backend()?;
        let mut builder = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
            .optimizer(optimizer)
            .threads(spec.threads)
            .caching(spec.cache)
            .cache_store(&state.store)
            .journal(journal.clone());
        if let Some(hw) = &spec.hw {
            builder = builder.hw_config(hw.clone());
        }
        builder.build()
    })();
    let mut run = match built {
        Ok(run) => run,
        Err(e) => return (Err(e), None),
    };
    // Resume from the newest valid generation. A corrupt, absent, or
    // foreign checkpoint (stale files from a deleted ledger) means a
    // fresh run — deterministic, so the result is unchanged either way.
    let resume = ckpt_store
        .and_then(|store| store.load_latest().ok().flatten())
        .map(|(cp, _)| cp)
        .filter(|cp| {
            cp.config.seed == config.seed
                && cp.config.objective == config.objective
                && cp.episodes_done() <= u64::from(spec.episodes)
        });
    let checkpoint_every = u64::from(state.checkpoint_every);
    let outcome = run.run_resumable(resume, |cp| {
        if cancel.load(Ordering::SeqCst) {
            return Err(CoreError::Cancelled(format!("{id} cancel requested")));
        }
        if let Some(limit) = spec.deadline_secs {
            if started.elapsed() >= Duration::from_secs(limit) {
                return Err(CoreError::DeadlineExceeded(format!(
                    "{id} exceeded its {limit}s deadline"
                )));
            }
        }
        if let Some(store) = ckpt_store {
            if cp.episodes_done() % checkpoint_every == 0 {
                store.save(cp)?;
            }
        }
        Ok(())
    });
    let stats = run.session_stats();
    let store_stats = state.store.stats();
    journal.record(JournalEvent::SharedCache {
        job: id.to_string(),
        hits: stats.hits,
        misses: stats.misses,
        inserts: stats.inserts,
        cross_run_hits: stats.cross_run_hits,
        store_entries: state.store.len() as u64,
        store_evictions: store_stats.evictions,
    });
    (outcome, Some(stats))
}

/// Acceptor: block in `accept`, spawning one short-lived thread per
/// connection, until shutdown. [`JobServer`] wakes it after setting the
/// flag by connecting once; that connection is dropped unanswered.
fn acceptor_loop(state: &Arc<ServerState>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let st = Arc::clone(state);
                thread::spawn(move || {
                    let _ = handle_connection(&st, stream);
                });
            }
            // Back off on errors such as fd exhaustion instead of
            // spinning on them.
            Err(_) => thread::sleep(POLL),
        }
    }
}

/// Reads one HTTP/1.1 request, routes it, writes one response, closes.
///
/// Every read is size-bounded and every socket op carries a timeout, so
/// a malformed or hostile peer costs one thread for at most
/// [`SOCKET_TIMEOUT`] and a bounded allocation — never a panic, an
/// unbounded buffer, or a wedged connection.
fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    let read = (&mut reader)
        .take(MAX_REQUEST_LINE)
        .read_line(&mut request_line);
    let rejected = match read {
        Ok(0) => Some("empty request"),
        Ok(_) if !request_line.ends_with('\n') && request_line.len() as u64 >= MAX_REQUEST_LINE => {
            Some("request line too long")
        }
        Ok(_) => None,
        Err(_) => Some("malformed request line"),
    };
    if let Some(message) = rejected {
        return reject(&mut stream, reader, 400, message);
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return reject(&mut stream, reader, 400, "malformed request");
    };
    let method = method.to_string();
    let path = target.split('?').next().unwrap_or("").to_string();
    let mut content_length: Option<usize> = None;
    let mut header_budget = MAX_HEADER_BYTES;
    loop {
        if header_budget == 0 {
            return reject(&mut stream, reader, 400, "headers too large");
        }
        let mut line = String::new();
        let read = (&mut reader).take(header_budget).read_line(&mut line);
        match read {
            Ok(0) => return reject(&mut stream, reader, 400, "truncated headers"),
            Ok(n) => {
                header_budget = header_budget.saturating_sub(n as u64);
                if !line.ends_with('\n') {
                    return reject(&mut stream, reader, 400, "headers too large");
                }
            }
            Err(_) => return reject(&mut stream, reader, 400, "malformed headers"),
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(n) => content_length = Some(n),
                    Err(_) => return reject(&mut stream, reader, 400, "invalid content-length"),
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return reject(&mut stream, reader, 413, "request body too large");
    }
    let mut body = vec![0u8; content_length];
    if !body.is_empty() && reader.read_exact(&mut body).is_err() {
        return reject(&mut stream, reader, 400, "truncated request body");
    }
    route(state, &mut stream, &method, &path, &body)
}

/// Answers a request rejected before it was read in full. Closing a
/// socket with unread input makes the kernel send a reset, which can
/// destroy the response before the client reads it; so after the
/// response, half-close the write side and drain the rest of the request
/// — at most [`MAX_BODY_BYTES`], for at most [`SOCKET_TIMEOUT`] — before
/// the stream drops.
fn reject(
    stream: &mut TcpStream,
    mut reader: BufReader<TcpStream>,
    status: u16,
    message: &str,
) -> std::io::Result<()> {
    let sent = respond_error(stream, status, message);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + SOCKET_TIMEOUT;
    let mut budget = MAX_BODY_BYTES;
    let mut chunk = [0u8; 4096];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        let want = budget.min(chunk.len());
        match reader.read(&mut chunk[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n,
        }
    }
    sent
}

/// Dispatches one parsed request to its endpoint.
fn route(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let trimmed = path.trim_matches('/');
    let segments: Vec<&str> = if trimmed.is_empty() {
        Vec::new()
    } else {
        trimmed.split('/').collect()
    };
    match (method, segments.as_slice()) {
        ("POST", ["jobs"]) => {
            if state.shutdown.load(Ordering::SeqCst) {
                return respond_error(stream, 503, "server is shutting down");
            }
            let spec: JobSpec = match lcda_base::json::from_slice(body) {
                Ok(spec) => spec,
                Err(e) => return respond_error(stream, 400, &format!("invalid job spec: {e}")),
            };
            match state.submit(spec) {
                Ok(id) => reply_value(
                    stream,
                    202,
                    &Admitted {
                        job: id,
                        state: JobState::Queued,
                    },
                ),
                Err(e @ CoreError::Overloaded(_)) => {
                    let payload = ErrorBody {
                        error: e.to_string(),
                    };
                    respond_with_headers(
                        stream,
                        429,
                        "application/json",
                        &[("Retry-After", "1")],
                        lcda_base::json::to_string(&payload).as_bytes(),
                    )
                }
                Err(e @ CoreError::Cancelled(_)) => respond_error(stream, 503, &e.to_string()),
                Err(e) => respond_error(stream, 400, &e.to_string()),
            }
        }
        ("GET", ["jobs", raw]) => match raw.parse::<JobId>() {
            Err(e) => respond_error(stream, 400, &e.to_string()),
            Ok(id) => match state.status(id) {
                Some(status) => reply_value(stream, 200, &status),
                None => not_found(stream),
            },
        },
        ("GET", ["jobs", raw, "result"]) => match raw.parse::<JobId>() {
            Err(e) => respond_error(stream, 400, &e.to_string()),
            Ok(id) => match (state.status(id), state.result_body(id)) {
                (Some(_), Ok(Some(ResultBody::Held(text)))) => {
                    respond(stream, 200, "application/json", text.as_bytes())
                }
                // The file goes to the socket as it is read, never held
                // whole.
                (Some(_), Ok(Some(ResultBody::File { file, len, .. }))) => {
                    write_head(stream, 200, "application/json", &[], len)?;
                    std::io::copy(&mut file.take(len), stream)?;
                    stream.flush()
                }
                (Some(status), Ok(None)) => respond_error(
                    stream,
                    409,
                    &format!("{id} is {}; no result available", status.state),
                ),
                (Some(_), Err(e)) => respond_error(stream, 500, &e.to_string()),
                (None, _) => not_found(stream),
            },
        },
        ("POST", ["jobs", raw, "cancel"]) => match raw.parse::<JobId>() {
            Err(e) => respond_error(stream, 400, &e.to_string()),
            Ok(id) => match state.cancel(id) {
                Some(status) => reply_value(stream, 200, &status),
                None => not_found(stream),
            },
        },
        ("GET", ["jobs", raw, "journal"]) => match raw.parse::<JobId>() {
            Err(e) => respond_error(stream, 400, &e.to_string()),
            Ok(id) => stream_journal(state, stream, id),
        },
        ("GET", ["stats"]) => reply_value(stream, 200, &state.stats()),
        ("GET", ["healthz"]) => reply_value(stream, 200, &state.health()),
        ("GET", ["readyz"]) => {
            let payload = state.ready();
            reply_value(stream, if payload.ready { 200 } else { 503 }, &payload)
        }
        ("POST", ["shutdown"]) => {
            // Reply first: `JobServer::wait` returns as soon as the flag
            // is set, and `lcda serve` may exit before a later reply.
            let replied = respond_json(stream, 200, r#"{"shutdown":true}"#);
            state.request_shutdown();
            replied
        }
        _ => not_found(stream),
    }
}

/// Live-streams the job's JSONL journal with chunked transfer encoding,
/// following the file until the job is terminal and fully flushed.
///
/// The socket carries a write timeout (set in [`handle_connection`]),
/// so a consumer that stops reading stalls the write, times it out, and
/// releases this thread instead of wedging it; the disconnect is
/// recorded in the server journal.
fn stream_journal(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    id: JobId,
) -> std::io::Result<()> {
    let path = {
        let jobs = lock(&state.jobs);
        match jobs.get(&id.index()) {
            Some(rec) => rec.journal_path.clone(),
            None => return not_found(stream),
        }
    };
    let Some(path) = path else {
        return respond_error(stream, 404, "journaling is disabled on this server");
    };
    let result = stream_journal_follow(state, stream, id, &path);
    if result.is_err() {
        state.server_journal.record(JournalEvent::StreamDropped {
            job: id.to_string(),
        });
    }
    result
}

/// The follow loop of [`stream_journal`], split out so a write failure
/// anywhere inside it can be journaled by the caller.
fn stream_journal_follow(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    id: JobId,
    path: &std::path::Path,
) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    // The file stays open, so each read starts where the last one
    // stopped: following a job costs its journal's length once, not once
    // per poll.
    let mut file = None;
    let mut chunk = Vec::new();
    loop {
        // Terminal state is read *before* the file: the journal is
        // finished before the state flips, so terminal + no new bytes
        // means the stream is complete.
        let terminal = {
            let jobs = lock(&state.jobs);
            jobs.get(&id.index())
                .map(|rec| rec.state.is_terminal())
                .unwrap_or(true)
        };
        if file.is_none() {
            file = std::fs::File::open(path).ok();
        }
        chunk.clear();
        if let Some(file) = &mut file {
            // A failed read keeps what it read; the next poll retries.
            let _ = file.take(STREAM_CHUNK).read_to_end(&mut chunk);
        }
        if !chunk.is_empty() {
            write!(stream, "{:x}\r\n", chunk.len())?;
            stream.write_all(&chunk)?;
            stream.write_all(b"\r\n")?;
            stream.flush()?;
            continue;
        }
        if terminal || state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        thread::sleep(POLL);
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Serializes `value` and writes it as a JSON response.
fn reply_value<T: ToJson>(stream: &mut TcpStream, status: u16, value: &T) -> std::io::Result<()> {
    respond_json(stream, status, &lcda_base::json::to_string(value))
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    let payload = ErrorBody {
        error: message.to_string(),
    };
    reply_value(stream, status, &payload)
}

fn not_found(stream: &mut TcpStream) -> std::io::Result<()> {
    respond_error(stream, 404, "not found")
}

fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    respond(stream, status, "application/json", body.as_bytes())
}

/// Writes one complete `Connection: close` HTTP/1.1 response.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    respond_with_headers(stream, status, content_type, &[], body)
}

/// [`respond`] plus extra response headers (e.g. `Retry-After` on 429).
fn respond_with_headers(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    write_head(stream, status, content_type, extra, body.len() as u64)?;
    stream.write_all(body)?;
    stream.flush()
}

/// The status line and headers of a `Connection: close` response whose
/// body is `len` bytes, up to the blank line before the body.
fn write_head(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    len: u64,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {len}\r\nConnection: close\r\n"
    )?;
    for (name, value) in extra {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_round_trips_display_parse_and_json() {
        let id = JobId(7);
        assert_eq!(id.to_string(), "job-7");
        assert_eq!("job-7".parse::<JobId>().unwrap(), id);
        assert!("job-0".parse::<JobId>().is_err());
        assert!("7".parse::<JobId>().is_err());
        assert!("job-x".parse::<JobId>().is_err());
        let json = lcda_base::json::to_string(&id);
        assert_eq!(json, "\"job-7\"");
        let back: JobId = lcda_base::json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn job_state_machine_permits_exactly_the_lifecycle_edges() {
        use JobState::*;
        let all = [Queued, Running, Done, Failed, Cancelled];
        let legal = [
            (Queued, Running),
            (Queued, Cancelled),
            (Running, Done),
            (Running, Failed),
            (Running, Cancelled),
        ];
        for from in all {
            for to in all {
                assert_eq!(
                    from.can_advance(to),
                    legal.contains(&(from, to)),
                    "{from} -> {to}"
                );
            }
        }
        for s in [Done, Failed, Cancelled] {
            assert!(s.is_terminal());
        }
        for s in [Queued, Running] {
            assert!(!s.is_terminal());
        }
    }

    #[test]
    fn empty_spec_is_the_cli_default_run() {
        let spec: JobSpec = lcda_base::json::from_str("{}").unwrap();
        assert_eq!(spec, JobSpec::default());
        assert_eq!(spec.optimizer, "expert");
        assert_eq!(spec.backend, DEFAULT_BACKEND);
        assert_eq!(spec.episodes, 20);
        assert!(spec.cache);
        spec.validate().unwrap();
    }

    #[test]
    fn admission_rejects_bad_specs_with_typed_errors() {
        let bad = JobSpec {
            backend: "cim+bogus".into(),
            ..JobSpec::default()
        };
        let err = bad.validate().unwrap_err().to_string();
        assert!(
            err.contains("unknown hardware backend `cim+bogus`"),
            "{err}"
        );

        // The retired `@config` suffix is named and pointed at `hw`.
        let bad = JobSpec {
            backend: "cim@configs/hw/isaac.json".into(),
            ..JobSpec::default()
        };
        let err = bad.validate().unwrap_err().to_string();
        assert!(err.contains("`cim@configs/hw/isaac.json`"), "{err}");
        assert!(err.contains("`hw` object"), "{err}");

        let bad = JobSpec {
            optimizer: "bayesian".into(),
            ..JobSpec::default()
        };
        assert!(bad.validate().is_err());

        let bad = JobSpec {
            objective: "power".into(),
            ..JobSpec::default()
        };
        assert!(bad.validate().is_err());

        let bad = JobSpec {
            episodes: 0,
            ..JobSpec::default()
        };
        assert!(bad.validate().is_err());

        // Unknown fields are a parse error, not a silent default.
        assert!(lcda_base::json::from_str::<JobSpec>(r#"{"epsodes": 3}"#).is_err());
    }

    #[test]
    fn in_process_lifecycle_runs_a_job_to_done() {
        let server = JobServer::bind(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let id = server
            .submit(JobSpec {
                episodes: 2,
                seed: 11,
                ..JobSpec::default()
            })
            .unwrap();
        assert_eq!(id.to_string(), "job-1");
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let status = server.status(id).unwrap();
            if status.state.is_terminal() {
                assert_eq!(status.state, JobState::Done, "{:?}", status.error);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never finished");
            thread::sleep(Duration::from_millis(20));
        }
        let result = server.result(id).unwrap().unwrap();
        assert!(result.ends_with('\n'));
        let outcome: lcda_base::json::Value = lcda_base::json::from_str(&result).unwrap();
        assert_eq!(outcome["history"].as_array().unwrap().len(), 2);
        let stats = server.status(id).unwrap().cache.unwrap();
        assert_eq!(stats.cross_run_hits, 0, "first tenant has nothing to reuse");
        server.shutdown().unwrap();
    }

    #[test]
    fn submitting_a_bad_spec_never_allocates_a_job() {
        let server = JobServer::bind(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let err = server
            .submit(JobSpec {
                backend: "fpga".into(),
                ..JobSpec::default()
            })
            .unwrap_err();
        assert!(err.to_string().contains("unknown hardware backend"));
        assert!(server.stats().jobs.is_empty());
        server.shutdown().unwrap();
    }

    #[test]
    fn cancelling_a_queued_job_is_immediate_and_terminal() {
        // Zero workers is clamped to one; instead, saturate the single
        // worker with a job too long to finish before it is cancelled
        // below, so the second stays queued.
        let server = JobServer::bind(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let long = server
            .submit(JobSpec {
                episodes: 100_000,
                ..JobSpec::default()
            })
            .unwrap();
        let queued = server
            .submit(JobSpec {
                episodes: 40,
                seed: 1,
                ..JobSpec::default()
            })
            .unwrap();
        let status = server.cancel(queued).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        // Cancel is idempotent on terminal jobs.
        assert_eq!(server.cancel(queued).unwrap().state, JobState::Cancelled);
        // Cancel the long job too so shutdown does not wait for it.
        let _ = server.cancel(long);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !server.status(long).unwrap().state.is_terminal() {
            assert!(std::time::Instant::now() < deadline, "cancel never landed");
            thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn a_panicking_job_runs_once_and_fails_with_its_payload() {
        let (journal, buf) = Journal::in_memory();
        let id = JobId(3);
        let calls = std::cell::Cell::new(0u32);
        let outcome = catch_job_panic(&journal, id, || -> Result<()> {
            calls.set(calls.get() + 1);
            panic!("mapper overflow at layer 4")
        });
        assert_eq!(calls.get(), 1, "a panicked job is never re-run");
        match outcome.unwrap_err() {
            CoreError::EvalPanic(msg) => assert_eq!(msg, "mapper overflow at layer 4"),
            other => panic!("expected EvalPanic, got {other}"),
        }
        // An error is the job's outcome as it stands: no panic record.
        let err = catch_job_panic(&journal, id, || -> Result<()> {
            Err(CoreError::DeadlineExceeded("late".into()))
        });
        assert!(matches!(err, Err(CoreError::DeadlineExceeded(_))));
        journal.finish().unwrap();
        let text = buf.contents();
        let panics: Vec<&str> = text
            .lines()
            .filter(|line| line.contains("\"event\":\"job_panic\""))
            .collect();
        assert_eq!(panics.len(), 1, "{text}");
        assert!(panics[0].contains("\"job\":\"job-3\""), "{}", panics[0]);
        assert!(!panics[0].contains("attempt"), "{}", panics[0]);
        assert_eq!(text.lines().count(), 1, "{text}");
    }

    #[test]
    fn panic_text_reads_str_and_string_payloads() {
        let str_payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_text(str_payload.as_ref()), "static str");
        let string_payload: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_text(string_payload.as_ref()), "owned");
        let odd_payload: Box<dyn std::any::Any + Send> = Box::new(7u8);
        assert_eq!(
            panic_text(odd_payload.as_ref()),
            "panic with non-string payload"
        );
    }

    #[test]
    fn zero_deadline_fails_the_job_with_a_typed_error() {
        let server = JobServer::bind(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let id = server
            .submit(JobSpec {
                episodes: 3,
                deadline_secs: Some(0),
                ..JobSpec::default()
            })
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let status = server.status(id).unwrap();
            if status.state.is_terminal() {
                assert_eq!(status.state, JobState::Failed);
                let err = status.error.unwrap();
                assert!(err.contains("deadline_exceeded"), "{err}");
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never finished");
            thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn full_queue_rejects_with_a_typed_overloaded_error() {
        // One worker, queue bound 1: the first job occupies the worker
        // shortly after admission, but the bound is on the *channel*, so
        // to make the test deterministic we saturate with enough jobs
        // that at least one admission must find the queue full.
        let server = JobServer::bind(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut admitted = Vec::new();
        let mut overloaded = 0u32;
        for seed in 0..8 {
            match server.submit(JobSpec {
                episodes: 30,
                seed,
                ..JobSpec::default()
            }) {
                Ok(id) => admitted.push(id),
                Err(CoreError::Overloaded(msg)) => {
                    assert!(msg.contains("full"), "{msg}");
                    overloaded += 1;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        assert!(overloaded > 0, "a 1-deep queue must reject some of 8 jobs");
        for id in &admitted {
            let _ = server.cancel(*id);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        for id in &admitted {
            while !server.status(*id).unwrap().state.is_terminal() {
                assert!(std::time::Instant::now() < deadline, "cancel never landed");
                thread::sleep(Duration::from_millis(20));
            }
        }
        server.shutdown().unwrap();
    }

    fn wait_terminal(server: &JobServer, id: JobId) -> JobStatus {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let status = server.status(id).unwrap();
            if status.state.is_terminal() {
                return status;
            }
            assert!(std::time::Instant::now() < deadline, "{id} never finished");
            thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn terminal_jobs_release_their_result_and_journal() {
        let dir = std::env::temp_dir().join(format!(
            "lcda-serve-release-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let server = JobServer::bind(ServeConfig {
            workers: 1,
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let done = server
            .submit(JobSpec {
                episodes: 20,
                seed: 11,
                ..JobSpec::default()
            })
            .unwrap();
        // The one worker is busy with `done`, so this job is still queued.
        let cancelled = server
            .submit(JobSpec {
                episodes: 2,
                seed: 12,
                ..JobSpec::default()
            })
            .unwrap();
        assert_eq!(server.cancel(cancelled).unwrap().state, JobState::Cancelled);
        let failed = server
            .submit(JobSpec {
                episodes: 3,
                deadline_secs: Some(0),
                ..JobSpec::default()
            })
            .unwrap();
        assert_eq!(wait_terminal(&server, done).state, JobState::Done);
        assert_eq!(wait_terminal(&server, failed).state, JobState::Failed);
        {
            let jobs = lock(&server.state.jobs);
            for id in [done, cancelled, failed] {
                let rec = &jobs[&id.index()];
                assert!(rec.state.is_terminal(), "{id}");
                assert_eq!(rec.result, None, "{id} holds its result in memory");
                assert!(!rec.journal.is_active(), "{id} holds its journal open");
            }
        }
        let on_disk = std::fs::read_to_string(result_path(&dir, done)).unwrap();
        assert_eq!(server.result(done).unwrap(), Some(on_disk));
        assert_eq!(server.result(failed).unwrap(), None);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // Without a journal directory the record is the only copy.
        let server = JobServer::bind(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let id = server
            .submit(JobSpec {
                episodes: 2,
                seed: 11,
                ..JobSpec::default()
            })
            .unwrap();
        assert_eq!(wait_terminal(&server, id).state, JobState::Done);
        let held = lock(&server.state.jobs)[&id.index()].result.clone();
        assert!(held.is_some());
        assert_eq!(server.result(id).unwrap(), held);
        server.shutdown().unwrap();
    }

    #[test]
    fn wal_backed_restart_recovers_terminal_and_interrupted_jobs() {
        let dir = std::env::temp_dir().join(format!(
            "lcda-serve-recover-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let config = || ServeConfig {
            workers: 1,
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        // First life: run one job to completion.
        let server = JobServer::bind(config()).unwrap();
        let id = server
            .submit(JobSpec {
                episodes: 2,
                seed: 33,
                ..JobSpec::default()
            })
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !server.status(id).unwrap().state.is_terminal() {
            assert!(std::time::Instant::now() < deadline, "job never finished");
            thread::sleep(Duration::from_millis(20));
        }
        let first_result = server.result(id).unwrap().unwrap();
        server.shutdown().unwrap();
        // Simulate an admission the crash interrupted: append a raw
        // `admitted` line to the ledger, as if the process died right
        // after acknowledging the job.
        let interrupted_spec = JobSpec {
            episodes: 2,
            seed: 34,
            ..JobSpec::default()
        };
        {
            use std::io::Write as _;
            let record = crate::wal::WalRecord {
                seq: 1000,
                entry: WalEntry::Admitted {
                    job: 2,
                    spec: Box::new(interrupted_spec.clone()),
                },
            };
            let line = crate::wal::encode_line(&record).unwrap();
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            writeln!(file, "{line}").unwrap();
        }
        // Second life: the done job is restored byte-identically without
        // re-running; the interrupted job is re-admitted and completes.
        let server = JobServer::bind(config()).unwrap();
        let restored = server.status(id).unwrap();
        assert_eq!(restored.state, JobState::Done);
        assert!(restored.recovered);
        assert_eq!(server.result(id).unwrap().unwrap(), first_result);
        let recovered_id = JobId(2);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let status = server.status(recovered_id).expect("re-admitted job");
            assert!(status.recovered);
            assert_eq!(status.spec, interrupted_spec);
            if status.state.is_terminal() {
                assert_eq!(status.state, JobState::Done, "{:?}", status.error);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never finished");
            thread::sleep(Duration::from_millis(20));
        }
        // New admissions continue past every id the ledger has seen.
        let fresh = server.submit(JobSpec::default()).unwrap();
        assert_eq!(fresh.index(), 3);
        let _ = server.cancel(fresh);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !server.status(fresh).unwrap().state.is_terminal() {
            assert!(std::time::Instant::now() < deadline, "cancel never landed");
            thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
