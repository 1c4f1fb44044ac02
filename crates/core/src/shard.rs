//! Sharded search: island-model episodes with per-barrier checkpoints,
//! manifest-driven resume, and a deterministic merge.
//!
//! A [`ShardPlan`] splits one search into N seed-per-island shards.
//! Each shard wraps its own freshly seeded optimizer in an
//! [`Island`](lcda_optim::island::Island) and judges episodes through
//! its own [`EvalPipeline`] — the exact [`judge_episode`] path the
//! serial loop uses, so a one-shard fleet reproduces `lcda search`
//! bit-for-bit. Shards synchronize at deterministic **generation
//! barriers** (every `barrier_interval` episodes): the [`Supervisor`]
//! computes each island's elite exports from its committed history and
//! injects them into every other island in fixed shard order, so
//! migration traffic — and therefore the whole fleet — is a pure
//! function of the seeds. Shards run one after another on the calling
//! thread, and every journal event is recorded in fixed shard order, so
//! journals stay byte-identical run-to-run.
//!
//! An error or panic inside any island aborts the fleet exactly as it
//! aborts the serial loop: a fleet cell is a pure function of its seed
//! and committed history, so running it again would fail the same way.
//! Evaluator panics are still isolated per design by [`EvalPipeline`].
//!
//! # Resume
//!
//! With persistence on, every barrier checkpoints each shard's
//! committed history and then writes the coordinator
//! [`ShardManifest`]: fleet identity (including the backend identity
//! and its hardware-hierarchy digest) plus the barrier frontier. A fleet
//! killed at any instant and resumed from the manifest converges to the
//! byte-identical front of an uninterrupted run. Shards whose
//! checkpoints cover a generation replay it through their optimizers
//! without touching the evaluators; only shards whose checkpoints lost
//! generations re-execute them. Barriers below the frontier are not
//! journaled or persisted again, except that a re-run shard re-saves its
//! own checkpoint.

use crate::backend::BackendRegistry;
use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::codesign::{judge_episode, CoDesignConfig, EpisodeRecord, OptimizerSpec};
use crate::durable::{
    from_checksummed_json, load_checksummed, to_checksummed_json, Generation, GenerationStore,
};
use crate::evaluate::{AccuracyEvaluator, HardwareCostEvaluator};
use crate::journal::{Journal, JournalEvent};
use crate::pareto::TradeoffPoint;
use crate::pipeline::EvalPipeline;
use crate::reward::{Objective, INVALID_REWARD};
use crate::space::DesignSpace;
use crate::surrogate::SurrogateEvaluator;
use crate::{CoreError, Result};
use lcda_optim::island::{Elite, Island};
use lcda_optim::Optimizer;
use std::path::{Path, PathBuf};

/// Format version stamped into every shard manifest file.
pub const SHARD_MANIFEST_VERSION: u32 = 1;

/// How a search is split into island shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of island shards (≥ 1).
    pub shards: u32,
    /// Episodes per generation; shards exchange elites and checkpoint at
    /// every generation barrier (≥ 1).
    pub barrier_interval: u32,
    /// Elite designs each island exports to every other island at a
    /// barrier.
    pub elite_k: usize,
}

impl ShardPlan {
    /// A plan over `shards` islands with the standard barrier
    /// parameters (barrier every 4 episodes, 2 elites).
    pub fn new(shards: u32) -> Self {
        ShardPlan {
            shards,
            barrier_interval: 4,
            elite_k: 2,
        }
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero shards or a zero
    /// barrier interval.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CoreError::InvalidConfig(
                "shard count must be at least 1".into(),
            ));
        }
        if self.barrier_interval == 0 {
            return Err(CoreError::InvalidConfig(
                "barrier interval must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The seed driving one shard's island: shard 0 inherits the master
/// seed (so a one-shard fleet reproduces the serial search), further
/// shards get splitmix64-derived seeds.
pub fn shard_seed(master: u64, shard: u32) -> u64 {
    if shard == 0 {
        return master;
    }
    let mut z = master ^ u64::from(shard).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The coordinator manifest path derived from a checkpoint base path
/// (`run.json` → `run.manifest.json`).
pub fn manifest_path(base: &Path) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("checkpoint");
    let ext = base.extension().and_then(|e| e.to_str()).unwrap_or("json");
    base.with_file_name(format!("{stem}.manifest.{ext}"))
}

/// A shard's checkpoint base path derived from the fleet base path
/// (`run.json` → `run.shard3.json`).
pub fn shard_checkpoint_path(base: &Path, shard: u32) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("checkpoint");
    let ext = base.extension().and_then(|e| e.to_str()).unwrap_or("json");
    base.with_file_name(format!("{stem}.shard{shard}.{ext}"))
}

/// Per-shard progress recorded in the coordinator manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifestEntry {
    /// Shard index (0-based).
    pub shard: u32,
    /// The shard's island seed.
    pub seed: u64,
    /// Episodes the shard has committed (always a barrier boundary).
    pub episodes_done: u32,
}

lcda_base::impl_json!(struct ShardManifestEntry { shard, seed, episodes_done });

/// The coordinator manifest: fleet identity plus per-shard checkpoint
/// generations and barrier progress, written durably (checksummed,
/// fsync'd, rotated) at every barrier so a killed fleet can resume by
/// re-running only the generations its shards lost.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Format version ([`SHARD_MANIFEST_VERSION`]).
    pub version: u32,
    /// Objective name (`accuracy-energy` / `accuracy-latency`).
    pub objective: String,
    /// Master seed of the fleet.
    pub seed: u64,
    /// Per-shard episode budget.
    pub episodes: u32,
    /// Number of shards in the plan.
    pub shards: u32,
    /// Episodes per generation barrier.
    pub barrier_interval: u32,
    /// Elites exported per island per barrier.
    pub elite_k: u64,
    /// Optimizer name driving every island.
    pub optimizer: String,
    /// Hardware backend identity: the spec without its `@config` source
    /// ([`crate::backend::BackendSpec::identity`]).
    pub backend: String,
    /// Digest of the hardware hierarchy the backend lowered from, when it
    /// has one. A manifest without it (written before it was recorded)
    /// is accepted on resume; a recorded one must match.
    pub hw_digest: Option<String>,
    /// Generation barriers the fleet has fully committed.
    pub completed_generations: u32,
    /// Per-shard progress, in shard order.
    pub entries: Vec<ShardManifestEntry>,
}

lcda_base::impl_json!(struct ShardManifest {
    version,
    objective,
    seed,
    episodes,
    shards,
    barrier_interval,
    elite_k,
    optimizer,
    backend,
    #[skip_if = Option::is_none] hw_digest,
    completed_generations,
    entries,
});

impl ShardManifest {
    /// Serializes to pretty JSON with an embedded content checksum.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when serialization fails.
    pub fn to_json(&self) -> Result<String> {
        to_checksummed_json(self)
    }

    /// Deserializes from JSON, verifying the content checksum and the
    /// format version.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] for malformed JSON or a
    /// checksum mismatch, [`CoreError::Shard`] for an unsupported
    /// version.
    pub fn from_json(json: &str) -> Result<Self> {
        from_checksummed_json(json).and_then(Self::supported)
    }

    /// Rejects a manifest of another format version.
    fn supported(self) -> Result<Self> {
        if self.version != SHARD_MANIFEST_VERSION {
            return Err(CoreError::Shard(format!(
                "unsupported manifest version {} (expected {SHARD_MANIFEST_VERSION})",
                self.version
            )));
        }
        Ok(self)
    }

    /// Reads a manifest from disk.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when the file cannot be read or
    /// parsed, [`CoreError::Shard`] for an unsupported version.
    pub fn load(path: &Path) -> Result<Self> {
        load_checksummed(path).and_then(Self::supported)
    }
}

impl Generation for ShardManifest {
    const KIND: &'static str = "manifest";

    fn load(path: &Path) -> Result<Self> {
        ShardManifest::load(path)
    }
}

/// Generation-rotating manifest persistence: generation 0 is the base
/// path, generation *k* is `<path>.k` (see [`GenerationStore`]).
pub type ShardManifestStore = GenerationStore<ShardManifest>;

/// One point of the merged fleet Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontPoint {
    /// Shard whose episode discovered the design.
    pub shard: u32,
    /// Episode index within that shard.
    pub episode: u32,
    /// The design itself.
    pub design: lcda_llm::design::CandidateDesign,
    /// Monte-Carlo/surrogate accuracy.
    pub accuracy: f64,
    /// Objective cost (energy in pJ or latency in ns).
    pub cost: f64,
}

lcda_base::impl_json!(struct FrontPoint { shard, episode, design, accuracy, cost });

/// Final state of one shard, for the fleet summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u32,
    /// The shard's island seed.
    pub seed: u64,
    /// Episodes the shard committed.
    pub episodes: u32,
    /// The shard's best committed reward.
    pub best_reward: Option<f64>,
}

lcda_base::impl_json!(struct ShardSummary {
    shard,
    seed,
    episodes,
    #[skip_if = Option::is_none] best_reward,
});

/// Result of a sharded search.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The merged fleet Pareto front, cost-ascending. Deterministic:
    /// records merge in fixed shard order, episode order.
    pub front: Vec<FrontPoint>,
    /// Per-shard summaries, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Every shard's committed episode history, in shard order.
    pub histories: Vec<Vec<EpisodeRecord>>,
}

lcda_base::impl_json!(struct ShardOutcome { front, shards, histories });

impl ShardOutcome {
    /// Serializes the outcome to pretty JSON (the `--json` face of a
    /// sharded run; byte-identical for byte-identical fleets).
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` matches the other artifacts' `to_json`.
    pub fn to_json(&self) -> Result<String> {
        Ok(lcda_base::json::to_string_pretty(self))
    }
}

/// One island shard's live machinery: the wrapped optimizer plus its
/// own evaluation pipeline.
struct ShardRunner {
    island: Island<Box<dyn Optimizer>>,
    pipeline: EvalPipeline,
}

/// What a fleet stamps into its manifest and shard checkpoints, so a
/// resume refuses files written by another optimizer, backend or chip.
struct FleetStamp {
    optimizer: String,
    backend: String,
    hw_digest: Option<String>,
}

/// The fleet: builds N island shards over one design space, drives them
/// through generation barriers, and merges their fronts
/// deterministically.
pub struct Supervisor {
    space: DesignSpace,
    config: CoDesignConfig,
    plan: ShardPlan,
    spec: OptimizerSpec,
    backend: String,
    registry: BackendRegistry,
    caching: bool,
    store: Option<crate::cache::CacheStore>,
    threads: usize,
    journal: Journal,
    persist: Option<(PathBuf, u32)>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("plan", &self.plan)
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// A supervisor over `plan.shards` islands, each searching `space`
    /// with the per-shard budget `config.episodes` (defaults: expert-LLM
    /// optimizer, the `cim` backend, caching on, no persistence).
    pub fn new(space: DesignSpace, config: CoDesignConfig, plan: ShardPlan) -> Self {
        Supervisor {
            space,
            config,
            plan,
            spec: OptimizerSpec::default(),
            backend: crate::backend::DEFAULT_BACKEND.to_string(),
            registry: BackendRegistry::standard(),
            caching: true,
            store: None,
            threads: 1,
            journal: Journal::disabled(),
            persist: None,
        }
    }

    /// Selects the optimizer every island runs (each island seeds it
    /// from its own shard seed).
    #[must_use]
    pub fn optimizer(mut self, spec: OptimizerSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Selects the hardware backend by registry spec (an `@config`
    /// hardware source included).
    #[must_use]
    pub fn backend(mut self, name: impl Into<String>) -> Self {
        self.backend = name.into();
        self
    }

    /// Replaces the backend registry.
    #[must_use]
    pub fn registry(mut self, registry: BackendRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Enables or disables per-shard evaluation memoization.
    #[must_use]
    pub fn caching(mut self, enabled: bool) -> Self {
        self.caching = enabled;
        self
    }

    /// Binds every shard's memo table to a shared, cross-run
    /// [`crate::cache::CacheStore`]: admissions are fleet-wide (a design
    /// one shard evaluated is a hit for every other shard — and for any
    /// other run sharing the store), while each shard keeps its own
    /// session counters. Sharing never changes fleet results: evaluators
    /// are pure and entries are namespaced by the evaluator-context
    /// fingerprint. Ignored when caching is disabled.
    #[must_use]
    pub fn cache_store(mut self, store: &crate::cache::CacheStore) -> Self {
        self.store = Some(store.clone());
        self
    }

    /// Worker threads for evaluators that fan out internally; shards
    /// multiplex onto the run loop deterministically and share this
    /// pool setting.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a run journal. All shard events are recorded by the
    /// supervisor in fixed shard order; journaling never changes fleet
    /// results.
    #[must_use]
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Enables durable persistence under `base`: per-shard checkpoints
    /// at `<stem>.shard<k>.<ext>` and the coordinator manifest at
    /// `<stem>.manifest.<ext>`, each rotating `keep` generations.
    #[must_use]
    pub fn checkpoints(mut self, base: impl Into<PathBuf>, keep: u32) -> Self {
        self.persist = Some((base.into(), keep));
        self
    }

    /// Runs the fleet from scratch.
    ///
    /// # Errors
    ///
    /// Returns configuration errors and evaluator or optimizer failures.
    pub fn run(&self) -> Result<ShardOutcome> {
        self.run_with(|_, _| Ok(()))
    }

    /// Runs the fleet from scratch, invoking `on_barrier` after every
    /// committed barrier (with the just-persisted manifest) — the hook
    /// chaos tests use to kill the fleet at exact barrier boundaries.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::run`]; an `on_barrier` error aborts the fleet
    /// and propagates.
    pub fn run_with(
        &self,
        on_barrier: impl FnMut(u32, &ShardManifest) -> Result<()>,
    ) -> Result<ShardOutcome> {
        self.config.validate()?;
        self.plan.validate()?;
        self.launch(None, on_barrier)
    }

    /// Resumes a killed fleet from its coordinator manifest, re-running
    /// only the generations the shards' checkpoints lost. Falls back to
    /// a fresh run when no manifest exists yet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] when the manifest or a shard
    /// checkpoint belongs to a different fleet configuration (another
    /// seed, optimizer, backend or hardware hierarchy), plus everything
    /// [`Supervisor::run`] can return.
    pub fn resume(&self) -> Result<ShardOutcome> {
        self.resume_with(|_, _| Ok(()))
    }

    /// [`Supervisor::resume`] with a barrier hook.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::resume`].
    pub fn resume_with(
        &self,
        on_barrier: impl FnMut(u32, &ShardManifest) -> Result<()>,
    ) -> Result<ShardOutcome> {
        self.config.validate()?;
        self.plan.validate()?;
        let Some((base, keep)) = &self.persist else {
            return Err(CoreError::Shard(
                "resume requires a checkpoint base path".into(),
            ));
        };
        let manifest = ShardManifestStore::new(manifest_path(base), *keep)?.load_latest()?;
        self.launch(manifest.map(|(m, _)| m), on_barrier)
    }

    /// Episodes committed once generation `g` is barriered.
    fn commit_len(&self, g: u32) -> usize {
        let hi = (u64::from(g) + 1) * u64::from(self.plan.barrier_interval);
        hi.min(u64::from(self.config.episodes)) as usize
    }

    /// First episode of generation `g`.
    fn gen_start(&self, g: u32) -> usize {
        if g == 0 {
            0
        } else {
            self.commit_len(g - 1)
        }
    }

    /// Total generation barriers in the run.
    fn total_generations(&self) -> u32 {
        self.config.episodes.div_ceil(self.plan.barrier_interval)
    }

    fn build_runner(&self, shard: u32) -> Result<ShardRunner> {
        let seed = shard_seed(self.config.seed, shard);
        let shard_config = CoDesignConfig {
            seed,
            ..self.config
        };
        let inner =
            self.spec
                .instantiate_observed(&self.space, &shard_config, &Journal::disabled())?;
        let island = Island::new(inner);
        // Evaluators are pure functions of the design, seeded from the
        // master seed exactly like the serial loop's — every shard (and
        // the serial run) judges a given design identically.
        let accuracy: Box<dyn AccuracyEvaluator> = Box::new(SurrogateEvaluator::new(
            self.space.clone(),
            self.config.seed,
        ));
        let hardware: Box<dyn HardwareCostEvaluator> =
            self.registry.create(&self.backend, &self.space)?;
        let mut pipeline = EvalPipeline::new(accuracy, hardware);
        pipeline.set_caching(self.caching);
        if let Some(store) = &self.store {
            pipeline.attach_store(store);
        }
        pipeline.set_threads(self.threads);
        Ok(ShardRunner { island, pipeline })
    }

    /// The fleet's identity stamp. Like the serial checkpoint, it records
    /// the config-less backend identity (`cim@a.json` and `cim@b.json`
    /// are one backend) plus the hierarchy digest that tells actual
    /// hardware apart.
    fn stamp(&self, optimizer: &str) -> Result<FleetStamp> {
        let spec = self.registry.parse(&self.backend)?;
        let backend = self.registry.create_spec(&spec, &self.space)?;
        Ok(FleetStamp {
            optimizer: optimizer.to_string(),
            backend: spec.identity().to_string(),
            hw_digest: backend.hierarchy().map(|hw| hw.digest()),
        })
    }

    /// The elites injected into `shard` at barrier `g`: every *other*
    /// island's top `elite_k` committed observations, donor-order,
    /// reward-descending with earlier-observed tie-break.
    fn migration_for(&self, shard: u32, g: u32, histories: &[Vec<EpisodeRecord>]) -> Vec<Elite> {
        let prefix = self.commit_len(g);
        let mut elites = Vec::new();
        for donor in 0..self.plan.shards {
            if donor == shard {
                continue;
            }
            let history = &histories[donor as usize];
            let upto = prefix.min(history.len());
            elites.extend(elites_from(&history[..upto], self.plan.elite_k));
        }
        elites
    }

    fn build_manifest(
        &self,
        completed: u32,
        stamp: &FleetStamp,
        histories: &[Vec<EpisodeRecord>],
    ) -> ShardManifest {
        let entries = (0..self.plan.shards as usize)
            .map(|s| ShardManifestEntry {
                shard: s as u32,
                seed: shard_seed(self.config.seed, s as u32),
                episodes_done: histories[s].len() as u32,
            })
            .collect();
        ShardManifest {
            version: SHARD_MANIFEST_VERSION,
            objective: self.config.objective.name().to_string(),
            seed: self.config.seed,
            episodes: self.config.episodes,
            shards: self.plan.shards,
            barrier_interval: self.plan.barrier_interval,
            elite_k: self.plan.elite_k as u64,
            optimizer: stamp.optimizer.clone(),
            backend: stamp.backend.clone(),
            hw_digest: stamp.hw_digest.clone(),
            completed_generations: completed,
            entries,
        }
    }

    fn verify_manifest(&self, manifest: &ShardManifest, stamp: &FleetStamp) -> Result<()> {
        let mut mismatches = Vec::new();
        if manifest.objective != self.config.objective.name() {
            mismatches.push("objective");
        }
        if manifest.seed != self.config.seed {
            mismatches.push("seed");
        }
        if manifest.episodes != self.config.episodes {
            mismatches.push("episodes");
        }
        if manifest.shards != self.plan.shards {
            mismatches.push("shards");
        }
        if manifest.barrier_interval != self.plan.barrier_interval {
            mismatches.push("barrier_interval");
        }
        if manifest.elite_k != self.plan.elite_k as u64 {
            mismatches.push("elite_k");
        }
        if manifest.optimizer != stamp.optimizer {
            mismatches.push("optimizer");
        }
        if manifest.backend != stamp.backend {
            mismatches.push("backend");
        }
        if !digest_matches(manifest.hw_digest.as_deref(), stamp) {
            mismatches.push("hw_digest");
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(CoreError::Shard(format!(
                "manifest belongs to a different fleet (mismatched: {})",
                mismatches.join(", ")
            )))
        }
    }

    /// Shard `s`'s committed history from its newest checkpoint, cut to
    /// a barrier boundary (empty when it has none).
    fn load_shard_history(
        &self,
        base: &Path,
        keep: u32,
        s: u32,
        stamp: &FleetStamp,
    ) -> Result<Vec<EpisodeRecord>> {
        let store = CheckpointStore::new(shard_checkpoint_path(base, s), keep)?;
        let Some((cp, _)) = store.load_latest()? else {
            return Ok(Vec::new());
        };
        if cp.config.seed != shard_seed(self.config.seed, s) || cp.backend != stamp.backend {
            return Err(CoreError::Shard(format!(
                "shard {s} checkpoint belongs to a different fleet (seed/backend mismatch)"
            )));
        }
        if !digest_matches(cp.hw_digest.as_deref(), stamp) {
            return Err(CoreError::Shard(format!(
                "shard {s} checkpoint was produced under hardware hierarchy digest `{}` \
                 but this fleet's backend lowered from `{}`",
                cp.hw_digest.as_deref().unwrap_or("-"),
                stamp.hw_digest.as_deref().unwrap_or("-")
            )));
        }
        let mut history = cp.history;
        // Defensive barrier alignment: a partial tail could only come
        // from a tampered file.
        let per = self.plan.barrier_interval as usize;
        if history.len() as u32 != self.config.episodes {
            history.truncate(history.len() - history.len() % per);
        }
        Ok(history)
    }

    fn save_shard_checkpoint(
        &self,
        base: &Path,
        keep: u32,
        shard: u32,
        stamp: &FleetStamp,
        history: &[EpisodeRecord],
    ) -> Result<()> {
        let store = CheckpointStore::new(shard_checkpoint_path(base, shard), keep)?;
        let shard_config = CoDesignConfig {
            seed: shard_seed(self.config.seed, shard),
            ..self.config
        };
        let cp = Checkpoint::new(shard_config, stamp.optimizer.clone(), history.to_vec())
            .with_backend(&stamp.backend)
            .with_hw_digest(stamp.hw_digest.clone());
        store.save(&cp)
    }

    /// The fleet loop shared by fresh runs (`manifest: None`) and
    /// resume. See the module docs for the recovery semantics below the
    /// manifest's barrier frontier.
    fn launch(
        &self,
        manifest: Option<ShardManifest>,
        mut on_barrier: impl FnMut(u32, &ShardManifest) -> Result<()>,
    ) -> Result<ShardOutcome> {
        let n = self.plan.shards as usize;
        let total = self.total_generations();

        let mut runners = (0..self.plan.shards)
            .map(|s| self.build_runner(s))
            .collect::<Result<Vec<_>>>()?;
        let stamp = self.stamp(runners[0].island.name())?;

        let mut histories: Vec<Vec<EpisodeRecord>> = vec![Vec::new(); n];
        // Barriers below the frontier were committed by a previous
        // process: they are neither journaled nor persisted again.
        let mut frontier = 0u32;
        // On-disk episode coverage at launch, per shard — barriers below
        // the frontier re-save a shard's checkpoint only when the shard
        // actually re-ran (so survivors' stores are never churned).
        let mut disk_coverage: Vec<usize> = vec![0; n];
        if let Some(m) = &manifest {
            self.verify_manifest(m, &stamp)?;
            frontier = m.completed_generations.min(total);
            if let Some((base, keep)) = &self.persist {
                for (s, history) in histories.iter_mut().enumerate() {
                    *history = self.load_shard_history(base, *keep, s as u32, &stamp)?;
                    disk_coverage[s] = history.len();
                }
            }
        }

        let resumed: u64 = histories.iter().map(|h| h.len() as u64).sum();
        self.journal.record(JournalEvent::RunStart {
            optimizer: stamp.optimizer.clone(),
            backend: self.backend.clone(),
            objective: self.config.objective.name().to_string(),
            episodes: self.config.episodes,
            seed: self.config.seed,
            resumed,
        });

        for g in 0..total {
            let lo = self.gen_start(g);
            let hi = self.commit_len(g);
            for (s, runner) in runners.iter_mut().enumerate() {
                if histories[s].len() >= hi {
                    // Committed by a previous process: replay through
                    // the optimizer without touching the evaluators.
                    for record in &histories[s][lo..hi] {
                        let proposed = runner.island.propose()?;
                        if proposed != record.design {
                            return Err(CoreError::Shard(format!(
                                "shard {s} replay diverged at episode {}: the optimizer \
                                 re-proposed a different design (checkpoint from another \
                                 seed?)",
                                record.episode
                            )));
                        }
                        runner.island.observe(&proposed, record.reward)?;
                    }
                    continue;
                }
                for episode in lo..hi {
                    let design = runner.island.propose()?;
                    let record = judge_episode(
                        &self.space,
                        &mut runner.pipeline,
                        self.config.objective,
                        &Journal::disabled(),
                        episode as u32,
                        design,
                    )?;
                    runner.island.observe(&record.design, record.reward)?;
                    histories[s].push(record);
                }
                if g >= frontier {
                    self.journal.record(JournalEvent::ShardHeartbeat {
                        shard: s as u32,
                        generation: g,
                        episodes: histories[s].len() as u32,
                    });
                }
            }

            // ---- barrier g ----
            let mut migrants = 0u64;
            if g + 1 < total {
                for (s, runner) in runners.iter_mut().enumerate() {
                    for elite in &self.migration_for(s as u32, g, &histories) {
                        runner.island.inject(elite)?;
                        migrants += 1;
                    }
                }
            }
            if g >= frontier {
                self.journal.record(JournalEvent::ShardBarrier {
                    generation: g,
                    migrants,
                });
            }
            if let Some((base, keep)) = &self.persist {
                for (s, history) in histories.iter().enumerate() {
                    // Below the frontier only re-run shards re-save
                    // (their stores lost generations); survivors' files
                    // already cover this barrier.
                    if g < frontier && disk_coverage[s] >= hi {
                        continue;
                    }
                    self.save_shard_checkpoint(base, *keep, s as u32, &stamp, history)?;
                }
            }
            if g >= frontier {
                let m = self.build_manifest(g + 1, &stamp, &histories);
                if let Some((base, keep)) = &self.persist {
                    ShardManifestStore::new(manifest_path(base), *keep)?.save(&m)?;
                }
                on_barrier(g, &m)?;
            }
        }

        // ---- merge ----
        let front = merged_front(&histories, self.config.objective);
        self.journal.record(JournalEvent::ShardMerge {
            shards: self.plan.shards,
            points: front.len() as u64,
        });
        let best = histories
            .iter()
            .flatten()
            .map(|r| r.reward)
            .fold(INVALID_REWARD, f64::max);
        self.journal.record(JournalEvent::RunEnd {
            episodes: histories.iter().map(|h| h.len() as u64).sum(),
            best_reward: best,
        });
        let shards = (0..n)
            .map(|s| ShardSummary {
                shard: s as u32,
                seed: shard_seed(self.config.seed, s as u32),
                episodes: histories[s].len() as u32,
                best_reward: histories[s].iter().map(|r| r.reward).reduce(f64::max),
            })
            .collect();
        Ok(ShardOutcome {
            front,
            shards,
            histories,
        })
    }
}

/// The serial resume rule for a recorded hierarchy digest: an absent one
/// (written before digests were recorded) is accepted, a recorded one
/// must match the fleet's.
fn digest_matches(recorded: Option<&str>, stamp: &FleetStamp) -> bool {
    recorded.is_none() || recorded == stamp.hw_digest.as_deref()
}

/// The `k` best records of a committed history, reward-descending with
/// earlier-observed tie-break — the export half of the migration
/// protocol, computed from histories so live runs and resumes share one
/// code path (it mirrors
/// [`Island::export_elites`](lcda_optim::island::Island::export_elites)
/// exactly).
fn elites_from(history: &[EpisodeRecord], k: usize) -> Vec<Elite> {
    let mut order: Vec<usize> = (0..history.len()).collect();
    order.sort_by(|&a, &b| {
        history[b]
            .reward
            .total_cmp(&history[a].reward)
            .then_with(|| a.cmp(&b))
    });
    order
        .into_iter()
        .take(k)
        .map(|i| Elite {
            design: history[i].design.clone(),
            reward: history[i].reward,
        })
        .collect()
}

/// Merges per-shard histories into the fleet Pareto front: valid
/// records only, fixed shard order then episode order, non-dominated
/// filter (first of equal points kept), sorted cost-ascending.
fn merged_front(histories: &[Vec<EpisodeRecord>], objective: Objective) -> Vec<FrontPoint> {
    let mut points: Vec<FrontPoint> = Vec::new();
    for (s, history) in histories.iter().enumerate() {
        for record in history {
            let Some(hw) = &record.hw else { continue };
            let cost = match objective {
                Objective::AccuracyEnergy => hw.energy_pj,
                Objective::AccuracyLatency => hw.latency_ns,
            };
            if !record.accuracy.is_finite() || !cost.is_finite() {
                continue;
            }
            points.push(FrontPoint {
                shard: s as u32,
                episode: record.episode,
                design: record.design.clone(),
                accuracy: record.accuracy,
                cost,
            });
        }
    }
    let mut front: Vec<FrontPoint> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let pi = TradeoffPoint::new(p.accuracy, p.cost);
        let dominated = points.iter().enumerate().any(|(j, q)| {
            let qj = TradeoffPoint::new(q.accuracy, q.cost);
            j != i && (qj.dominates(&pi) || (qj == pi && j < i))
        });
        if !dominated {
            front.push(p.clone());
        }
    }
    front.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then_with(|| a.accuracy.total_cmp(&b.accuracy))
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::{CoDesign, OptimizerSpec};
    use crate::reward::Objective;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("lcda-shard-{tag}-{}-{n}.json", std::process::id()))
    }

    fn cfg(episodes: u32, seed: u64) -> CoDesignConfig {
        CoDesignConfig::builder(Objective::AccuracyEnergy)
            .episodes(episodes)
            .seed(seed)
            .build()
    }

    fn plan(shards: u32) -> ShardPlan {
        ShardPlan {
            shards,
            barrier_interval: 2,
            elite_k: 2,
        }
    }

    fn manifest() -> ShardManifest {
        ShardManifest {
            version: SHARD_MANIFEST_VERSION,
            objective: "accuracy-energy".into(),
            seed: 9,
            episodes: 8,
            shards: 2,
            barrier_interval: 2,
            elite_k: 2,
            optimizer: "sim-llm".into(),
            backend: "cim".into(),
            hw_digest: Some("0123456789abcdef".into()),
            completed_generations: 1,
            entries: vec![ShardManifestEntry {
                shard: 0,
                seed: 9,
                episodes_done: 2,
            }],
        }
    }

    #[test]
    fn plan_validation_rejects_degenerate_fleets() {
        assert!(ShardPlan::new(1).validate().is_ok());
        let mut p = ShardPlan::new(0);
        assert!(matches!(p.validate(), Err(CoreError::InvalidConfig(_))));
        p.shards = 2;
        p.barrier_interval = 0;
        assert!(matches!(p.validate(), Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn shard_zero_inherits_the_master_seed() {
        assert_eq!(shard_seed(42, 0), 42);
        let derived: Vec<u64> = (1..5).map(|s| shard_seed(42, s)).collect();
        for (i, a) in derived.iter().enumerate() {
            assert_ne!(*a, 42, "derived seed {i} collided with the master");
            for b in &derived[i + 1..] {
                assert_ne!(a, b, "derived seeds collided");
            }
        }
        assert_eq!(shard_seed(42, 3), shard_seed(42, 3), "seeds are pure");
    }

    #[test]
    fn sibling_paths_derive_from_the_base() {
        let base = PathBuf::from("/tmp/run.json");
        assert_eq!(
            manifest_path(&base),
            PathBuf::from("/tmp/run.manifest.json")
        );
        assert_eq!(
            shard_checkpoint_path(&base, 3),
            PathBuf::from("/tmp/run.shard3.json")
        );
    }

    #[test]
    fn manifest_roundtrips_and_rejects_damage() {
        let m = manifest();
        let json = m.to_json().unwrap();
        assert_eq!(ShardManifest::from_json(&json).unwrap(), m);
        let tampered = json.replace(
            "\"completed_generations\": 1",
            "\"completed_generations\": 2",
        );
        assert_ne!(tampered, json, "tamper target must exist in the JSON");
        assert!(matches!(
            ShardManifest::from_json(&tampered),
            Err(CoreError::Checkpoint(_))
        ));
        let future = ShardManifest {
            version: SHARD_MANIFEST_VERSION + 1,
            ..manifest()
        };
        let err = ShardManifest::from_json(&future.to_json().unwrap()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn manifest_store_rotates_and_survives_a_torn_newest_generation() {
        let path = scratch("manifest");
        let store = ShardManifestStore::new(&path, 2).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let mut m = manifest();
        store.save(&m).unwrap();
        m.completed_generations = 2;
        store.save(&m).unwrap();
        let (latest, generation) = store.load_latest().unwrap().unwrap();
        assert_eq!((latest.completed_generations, generation), (2, 0));
        // Tear the newest file: the store must fall back to generation 1.
        std::fs::write(&path, "{ torn").unwrap();
        let (fallback, generation) = store.load_latest().unwrap().unwrap();
        assert_eq!((fallback.completed_generations, generation), (1, 1));
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_file_name(format!("{name}.1")));
    }

    #[test]
    fn single_shard_fleet_reproduces_the_serial_search() {
        let serial = CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(6, 42))
            .optimizer(OptimizerSpec::Random)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let fleet = Supervisor::new(DesignSpace::nacim_cifar10(), cfg(6, 42), plan(1))
            .optimizer(OptimizerSpec::Random)
            .run()
            .unwrap();
        assert_eq!(fleet.histories[0], serial.history);
        assert_eq!(fleet.shards[0].seed, 42);
    }

    #[test]
    fn fleets_are_bit_identical_run_to_run() {
        let run = || {
            Supervisor::new(DesignSpace::nacim_cifar10(), cfg(6, 7), plan(3))
                .optimizer(OptimizerSpec::Genetic)
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
        assert!(!a.front.is_empty(), "a healthy fleet must produce a front");
    }

    #[test]
    fn merged_front_is_nondominated_and_cost_sorted() {
        let outcome = Supervisor::new(DesignSpace::nacim_cifar10(), cfg(6, 3), plan(2))
            .optimizer(OptimizerSpec::Random)
            .run()
            .unwrap();
        for pair in outcome.front.windows(2) {
            assert!(pair[0].cost <= pair[1].cost, "front must be cost-ascending");
        }
        for a in &outcome.front {
            let pa = TradeoffPoint::new(a.accuracy, a.cost);
            for b in &outcome.front {
                let pb = TradeoffPoint::new(b.accuracy, b.cost);
                assert!(!pb.dominates(&pa), "front point dominated by another");
            }
        }
    }

    #[test]
    fn resume_without_a_persistence_base_is_a_typed_error() {
        let sup = Supervisor::new(DesignSpace::nacim_cifar10(), cfg(4, 1), plan(2));
        assert!(matches!(sup.resume(), Err(CoreError::Shard(_))));
    }
}
