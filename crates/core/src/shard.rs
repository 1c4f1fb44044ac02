//! Supervised sharded search: island-model episodes with heartbeat
//! supervision, per-shard checkpoints, and crash-equivalent
//! deterministic merge.
//!
//! A [`ShardPlan`] splits one search into N seed-per-island shards.
//! Each shard wraps its own freshly seeded optimizer in an
//! [`Island`](lcda_optim::island::Island) and judges episodes through
//! its own [`EvalPipeline`] — the exact [`judge_episode`] path the
//! serial loop uses, so a one-shard fleet reproduces `lcda search`
//! bit-for-bit. Shards synchronize at deterministic **generation
//! barriers** (every `barrier_interval` episodes): the supervisor
//! computes each live island's elite exports from its committed history
//! and injects them into every other live island in fixed shard order,
//! so migration traffic — and therefore the whole fleet — is a pure
//! function of the seeds.
//!
//! # Supervision
//!
//! The [`Supervisor`] owns the fleet. Shards emit simulated-clock
//! heartbeats into the journal (one per completed generation, recorded
//! by the supervisor in fixed shard order so journals stay
//! byte-identical run-to-run). A [`ShardFaultPlan`] can inject
//! shard-level faults keyed by fleet cell (`generation * shards +
//! shard`): a [`ShardFault::Crash`] panics the worker (caught with
//! `catch_unwind`, mirroring the PR 5 evaluator isolation); a
//! [`ShardFault::Stall`] longer than the plan's `stall_ticks` gets the
//! shard declared hung and killed. Either way the supervisor discards
//! the generation's work, charges a restart against the shard's bounded
//! budget (with exponential simulated backoff), rebuilds the shard from
//! its own checkpoint generation, and re-runs the lost generation
//! clean. A shard that exhausts its budget is **quarantined**: it runs
//! no further generations, its committed barriers still contribute to
//! the merge, and the fleet result is flagged partial.
//!
//! # Crash-equivalent determinism
//!
//! Injected faults fire only on the *first* live execution of a fleet
//! cell in a process run; restarts re-run the cell clean. Because
//! evaluators are pure and histories commit only at barrier boundaries,
//! a faulted fleet converges to the byte-identical merged front of its
//! fault-free twin, and a fleet killed at any instant and resumed from
//! the [`ShardManifest`] converges to the byte-identical front of an
//! uninterrupted run. On resume, cells below the manifest's barrier
//! frontier are recovery re-runs (no fault consultation, no journal
//! duplication); only the dead shards — those whose checkpoints lost
//! generations — re-execute evaluations, while survivors replay their
//! histories through their optimizers without touching the evaluators.

use crate::backend::BackendRegistry;
use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::codesign::{judge_episode, CoDesignConfig, EpisodeRecord, OptimizerSpec};
use crate::durable::{
    from_checksummed_json, load_checksummed, to_checksummed_json, Generation, GenerationStore,
};
use crate::evaluate::{AccuracyEvaluator, HardwareCostEvaluator};
use crate::fault::{ShardFault, ShardFaultPlan};
use crate::journal::{Journal, JournalEvent};
use crate::pareto::TradeoffPoint;
use crate::pipeline::EvalPipeline;
use crate::reward::{Objective, INVALID_REWARD};
use crate::space::DesignSpace;
use crate::surrogate::SurrogateEvaluator;
use crate::{CoreError, Result};
use lcda_llm::middleware::SimClock;
use lcda_optim::island::{Elite, Island};
use lcda_optim::Optimizer;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Format version stamped into every shard manifest file.
pub const SHARD_MANIFEST_VERSION: u32 = 1;

/// How a search is split into supervised island shards.
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
    /// Restarts a shard may consume across the whole run before it is
    /// quarantined (0 = first fault quarantines).
    pub restart_budget: u32,
    /// Heartbeat silence (simulated ms) beyond which a shard is declared
    /// hung and killed.
    pub stall_ticks: u64,
    /// Simulated backoff charged before restart attempt *n* is
    /// `restart_backoff_ms << (n − 1)`.
    pub restart_backoff_ms: u64,
}

impl ShardPlan {
    /// A plan over `shards` islands with the standard supervision
    /// parameters (barrier every 4 episodes, 2 elites, 3 restarts,
    /// 10 s stall threshold, 100 ms base backoff).
    pub fn new(shards: u32) -> Self {
        ShardPlan {
            shards,
            barrier_interval: 4,
            elite_k: 2,
            restart_budget: 3,
            stall_ticks: 10_000,
            restart_backoff_ms: 100,
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
    /// Restarts consumed so far.
    pub restarts_used: u32,
    /// The generation at which the shard was quarantined, if it was.
    pub quarantined_at: Option<u32>,
}

lcda_base::impl_json!(struct ShardManifestEntry {
    shard,
    seed,
    episodes_done,
    restarts_used,
    #[skip_if = Option::is_none] quarantined_at,
});

/// The coordinator manifest: fleet identity plus per-shard checkpoint
/// generations and barrier progress, written durably (checksummed,
/// fsync'd, rotated) at every barrier so a killed fleet can resume by
/// restarting only its dead shards.
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
    /// Restart budget per shard.
    pub restart_budget: u32,
    /// Stall threshold, simulated milliseconds.
    pub stall_ticks: u64,
    /// Optimizer name driving every island.
    pub optimizer: String,
    /// Hardware backend name.
    pub backend: String,
    /// Generation barriers the fleet has fully committed.
    pub completed_generations: u32,
    /// Per-shard progress, in shard order.
    pub entries: Vec<ShardManifestEntry>,
}

lcda_base::impl_json!(struct ShardManifest {
    version, objective, seed, episodes, shards, barrier_interval, elite_k, restart_budget,
    stall_ticks, optimizer, backend, completed_generations, entries,
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
    /// Restarts the shard consumed.
    pub restarts: u32,
    /// The generation at which the shard was quarantined, if it was.
    pub quarantined_at: Option<u32>,
    /// The shard's best committed reward.
    pub best_reward: Option<f64>,
}

lcda_base::impl_json!(struct ShardSummary {
    shard,
    seed,
    episodes,
    restarts,
    #[skip_if = Option::is_none] quarantined_at,
    #[skip_if = Option::is_none] best_reward,
});

/// Result of a supervised sharded search.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The merged fleet Pareto front, cost-ascending. Deterministic:
    /// records merge in fixed shard order, episode order.
    pub front: Vec<FrontPoint>,
    /// Per-shard summaries, in shard order.
    pub shards: Vec<ShardSummary>,
    /// True when at least one shard was quarantined — the front covers
    /// only the surviving fleet's work plus quarantined shards'
    /// committed barriers.
    pub partial_fleet: bool,
    /// Every shard's committed episode history, in shard order.
    pub histories: Vec<Vec<EpisodeRecord>>,
}

lcda_base::impl_json!(struct ShardOutcome { front, shards, partial_fleet, histories });

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
    seed: u64,
    island: Island<Box<dyn Optimizer>>,
    pipeline: EvalPipeline,
}

/// The supervised fleet: builds N island shards over one design space,
/// drives them through generation barriers, restarts crashed or stalled
/// shards under a bounded budget, and merges their fronts
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
    faults: ShardFaultPlan,
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
    /// optimizer, the `cim` backend, caching on, no fault injection, no
    /// persistence).
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
            faults: ShardFaultPlan::none(),
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

    /// Selects the hardware backend by registry name.
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

    /// Injects a shard-level fault plan (cells keyed `generation *
    /// shards + shard`).
    #[must_use]
    pub fn fault_plan(mut self, plan: ShardFaultPlan) -> Self {
        self.faults = plan;
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
    /// Returns configuration errors, structural evaluator failures, and
    /// [`CoreError::Shard`] when every shard quarantines.
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

    /// Resumes a killed fleet from its coordinator manifest, restarting
    /// only the shards whose checkpoints lost generations. Falls back
    /// to a fresh run when no manifest exists yet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] when the manifest belongs to a
    /// different fleet configuration, plus everything
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
        let store = ShardManifestStore::new(manifest_path(base), *keep)?;
        match store.load_latest()? {
            None => self.launch(None, on_barrier),
            Some((manifest, _)) => self.launch(Some(manifest), on_barrier),
        }
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

    fn build_runner(&self, shard: u32, clock: &SimClock) -> Result<ShardRunner> {
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
        pipeline.set_clock(clock.clone());
        Ok(ShardRunner {
            seed,
            island,
            pipeline,
        })
    }

    /// Rebuilds a shard from its committed history — consulting its own
    /// checkpoint generation first when persistence is on — replaying
    /// every committed generation through the fresh optimizer and
    /// re-injecting the migrations it received at each barrier.
    fn rebuild_runner(
        &self,
        shard: u32,
        histories: &[Vec<EpisodeRecord>],
        quarantined: &[Option<u32>],
        upto_gen: u32,
        clock: &SimClock,
    ) -> Result<ShardRunner> {
        let mut runner = self.build_runner(shard, clock)?;
        let committed = &histories[shard as usize];
        // Restart from the shard's own CheckpointStore generation when
        // one is configured and its coverage matches the committed
        // in-memory history (it always does — checkpoints land at every
        // barrier); fall back to the in-memory history otherwise.
        let source: Vec<EpisodeRecord> = match &self.persist {
            Some((base, keep)) => {
                let store = CheckpointStore::new(shard_checkpoint_path(base, shard), *keep)?;
                match store.load_latest() {
                    Ok(Some((cp, _))) if cp.history.len() == committed.len() => cp.history,
                    _ => committed.clone(),
                }
            }
            None => committed.clone(),
        };
        self.replay_into(
            &mut runner,
            shard,
            &source,
            histories,
            quarantined,
            upto_gen,
        )?;
        Ok(runner)
    }

    /// Replays `source` (a shard's committed, barrier-aligned history)
    /// into `runner`, interleaving the elite migrations the shard
    /// received at each barrier. Verifies every re-proposed design
    /// against the record, like serial checkpoint replay.
    fn replay_into(
        &self,
        runner: &mut ShardRunner,
        shard: u32,
        source: &[EpisodeRecord],
        histories: &[Vec<EpisodeRecord>],
        quarantined: &[Option<u32>],
        upto_gen: u32,
    ) -> Result<()> {
        let total = self.total_generations();
        for g in 0..upto_gen {
            let lo = self.gen_start(g);
            let hi = self.commit_len(g);
            for record in source.get(lo..hi).unwrap_or(&[]) {
                let proposed = runner.island.propose()?;
                if proposed != record.design {
                    return Err(CoreError::Shard(format!(
                        "shard {shard} replay diverged at episode {}: the optimizer \
                         re-proposed a different design (checkpoint from another seed?)",
                        record.episode
                    )));
                }
                runner.island.observe(&proposed, record.reward)?;
            }
            if g + 1 < total {
                for elite in self.migration_for(shard, g, histories, quarantined) {
                    runner.island.inject(&elite)?;
                }
            }
        }
        Ok(())
    }

    /// The elites injected into `shard` at barrier `g`: every *other*
    /// live island's top `elite_k` committed observations, donor-order,
    /// reward-descending with earlier-observed tie-break.
    fn migration_for(
        &self,
        shard: u32,
        g: u32,
        histories: &[Vec<EpisodeRecord>],
        quarantined: &[Option<u32>],
    ) -> Vec<Elite> {
        let prefix = self.commit_len(g);
        let mut elites = Vec::new();
        for donor in 0..self.plan.shards {
            if donor == shard || !alive_at(quarantined, donor as usize, g) {
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
        optimizer: &str,
        histories: &[Vec<EpisodeRecord>],
        restarts: &[u32],
        quarantined: &[Option<u32>],
    ) -> ShardManifest {
        let entries = (0..self.plan.shards as usize)
            .map(|s| ShardManifestEntry {
                shard: s as u32,
                seed: shard_seed(self.config.seed, s as u32),
                episodes_done: histories[s].len() as u32,
                restarts_used: restarts[s],
                quarantined_at: quarantined[s],
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
            restart_budget: self.plan.restart_budget,
            stall_ticks: self.plan.stall_ticks,
            optimizer: optimizer.to_string(),
            backend: self.backend.clone(),
            completed_generations: completed,
            entries,
        }
    }

    fn verify_manifest(&self, manifest: &ShardManifest, optimizer: &str) -> Result<()> {
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
        if manifest.restart_budget != self.plan.restart_budget {
            mismatches.push("restart_budget");
        }
        if manifest.optimizer != optimizer {
            mismatches.push("optimizer");
        }
        if manifest.backend != self.backend {
            mismatches.push("backend");
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

    fn save_shard_checkpoint(
        &self,
        base: &Path,
        keep: u32,
        shard: u32,
        runner: &ShardRunner,
        history: &[EpisodeRecord],
    ) -> Result<()> {
        let store = CheckpointStore::new(shard_checkpoint_path(base, shard), keep)?;
        let shard_config = CoDesignConfig {
            seed: runner.seed,
            ..self.config
        };
        let cp = Checkpoint::new(shard_config, runner.island.name(), history.to_vec())
            .with_backend(&self.backend);
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
        let clock = SimClock::new();
        self.journal.set_clock(clock.clone());

        let mut histories: Vec<Vec<EpisodeRecord>> = vec![Vec::new(); n];
        let mut restarts: Vec<u32> = vec![0; n];
        let mut quarantined: Vec<Option<u32>> = vec![None; n];
        // The journal/fault frontier: barriers below it were committed
        // by a previous process, so cells there are recovery re-runs.
        let mut frontier = 0u32;
        // On-disk episode coverage at launch, per shard — barriers below
        // the frontier re-save a shard's checkpoint only when the shard
        // actually re-ran (so survivors' stores are never churned).
        let mut disk_coverage: Vec<usize> = vec![0; n];

        // A probe island pins the optimizer name for manifest identity
        // checks before any shard work happens.
        let probe = self.build_runner(0, &clock)?;
        let optimizer_name = probe.island.name().to_string();
        drop(probe);

        if let Some(m) = &manifest {
            self.verify_manifest(m, &optimizer_name)?;
            frontier = m.completed_generations.min(total);
            for entry in &m.entries {
                let s = entry.shard as usize;
                if s >= n {
                    continue;
                }
                restarts[s] = entry.restarts_used;
                quarantined[s] = entry.quarantined_at;
            }
            if let Some((base, keep)) = &self.persist {
                for (s, history) in histories.iter_mut().enumerate() {
                    let store = CheckpointStore::new(shard_checkpoint_path(base, s as u32), *keep)?;
                    if let Some((cp, _)) = store.load_latest()? {
                        if cp.config.seed != shard_seed(self.config.seed, s as u32)
                            || cp.backend != self.backend
                        {
                            return Err(CoreError::Shard(format!(
                                "shard {s} checkpoint belongs to a different fleet \
                                 (seed/backend mismatch)"
                            )));
                        }
                        let mut h = cp.history;
                        // Defensive barrier alignment: a partial tail
                        // could only come from a tampered file.
                        let per = self.plan.barrier_interval as usize;
                        if h.len() as u32 != self.config.episodes {
                            h.truncate(h.len() - h.len() % per);
                        }
                        disk_coverage[s] = h.len();
                        *history = h;
                    }
                }
            }
        }

        let resumed: u64 = histories.iter().map(|h| h.len() as u64).sum();
        self.journal.record(JournalEvent::RunStart {
            optimizer: optimizer_name.clone(),
            backend: self.backend.clone(),
            objective: self.config.objective.name().to_string(),
            episodes: self.config.episodes,
            seed: self.config.seed,
            resumed,
        });

        // Build runners for every non-quarantined shard.
        let mut runners: Vec<Option<ShardRunner>> = Vec::with_capacity(n);
        for (s, dead) in quarantined.iter().enumerate() {
            if dead.is_some() {
                runners.push(None);
            } else {
                runners.push(Some(self.build_runner(s as u32, &clock)?));
            }
        }

        // Fleet cells whose first live execution already happened in
        // this process (restart attempts run clean).
        let mut attempted: HashSet<u64> = HashSet::new();

        for g in 0..total {
            for s in 0..n {
                if !alive_at(&quarantined, s, g) {
                    continue;
                }
                let hi = self.commit_len(g);
                if histories[s].len() >= hi {
                    // Committed by a previous process: replay through
                    // the optimizer without touching the evaluators.
                    let lo = self.gen_start(g);
                    let segment = histories[s][lo..hi].to_vec();
                    let runner = runners[s].as_mut().ok_or_else(|| {
                        CoreError::Shard(format!("shard {s} has history but no runner"))
                    })?;
                    for record in &segment {
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
                // Live execution, with bounded-restart supervision.
                self.run_cell(
                    g,
                    s,
                    frontier,
                    &clock,
                    &mut runners,
                    &mut histories,
                    &mut restarts,
                    &mut quarantined,
                    &mut attempted,
                )?;
            }

            // ---- barrier g ----
            let live: Vec<usize> = (0..n).filter(|&s| alive_at(&quarantined, s, g)).collect();
            if live.is_empty() {
                return Err(CoreError::Shard(format!(
                    "every shard quarantined by generation {g}; no survivors to merge"
                )));
            }
            let mut migrants = 0u64;
            if g + 1 < total {
                for &s in &live {
                    let migration = self.migration_for(s as u32, g, &histories, &quarantined);
                    let runner = runners[s].as_mut().ok_or_else(|| {
                        CoreError::Shard(format!("live shard {s} lost its runner"))
                    })?;
                    for elite in &migration {
                        runner.island.inject(elite)?;
                        migrants += 1;
                    }
                }
            }
            if g >= frontier {
                self.journal.record(JournalEvent::ShardBarrier {
                    generation: g,
                    live: live.len() as u32,
                    migrants,
                });
            }
            if let Some((base, keep)) = &self.persist {
                for &s in &live {
                    // Below the frontier only re-run shards re-save
                    // (their stores lost generations); survivors' files
                    // already cover this barrier.
                    if g < frontier && disk_coverage[s] >= self.commit_len(g) {
                        continue;
                    }
                    let runner = runners[s].as_ref().ok_or_else(|| {
                        CoreError::Shard(format!("live shard {s} lost its runner"))
                    })?;
                    self.save_shard_checkpoint(base, *keep, s as u32, runner, &histories[s])?;
                }
            }
            if g >= frontier {
                let m = self.build_manifest(
                    g + 1,
                    &optimizer_name,
                    &histories,
                    &restarts,
                    &quarantined,
                );
                if let Some((base, keep)) = &self.persist {
                    ShardManifestStore::new(manifest_path(base), *keep)?.save(&m)?;
                }
                on_barrier(g, &m)?;
            }
        }

        // ---- merge ----
        let front = merged_front(&histories, self.config.objective);
        let quarantine_count = quarantined.iter().filter(|q| q.is_some()).count() as u32;
        self.journal.record(JournalEvent::ShardMerge {
            shards: self.plan.shards,
            quarantined: quarantine_count,
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
                restarts: restarts[s],
                quarantined_at: quarantined[s],
                best_reward: histories[s].iter().map(|r| r.reward).reduce(f64::max),
            })
            .collect();
        Ok(ShardOutcome {
            front,
            shards,
            partial_fleet: quarantine_count > 0,
            histories,
        })
    }

    /// Executes one live fleet cell (shard `s`, generation `g`) under
    /// supervision: fault injection on the cell's first attempt, crash
    /// isolation, stall detection, bounded restart, quarantine.
    #[allow(clippy::too_many_arguments)]
    fn run_cell(
        &self,
        g: u32,
        s: usize,
        frontier: u32,
        clock: &SimClock,
        runners: &mut [Option<ShardRunner>],
        histories: &mut [Vec<EpisodeRecord>],
        restarts: &mut [u32],
        quarantined: &mut [Option<u32>],
        attempted: &mut HashSet<u64>,
    ) -> Result<()> {
        let cell = u64::from(g) * u64::from(self.plan.shards) + s as u64;
        let hi = self.commit_len(g) as u32;
        loop {
            // Faults fire only on the first live execution of a cell at
            // or above the frontier; recovery re-runs and restart
            // attempts are clean — this is what makes faulted, killed,
            // and resumed fleets converge to identical bytes.
            let fault = if g >= frontier && attempted.insert(cell) {
                self.faults.fault_at(cell)
            } else {
                None
            };
            let mut killed_by_stall = None;
            let mut crash = false;
            match fault {
                Some(ShardFault::Stall { ticks }) => {
                    if *ticks > self.plan.stall_ticks {
                        // Heartbeat silence past the threshold: the
                        // supervisor waited `stall_ticks`, declared the
                        // shard hung, and killed it.
                        clock.advance_ms(self.plan.stall_ticks);
                        killed_by_stall = Some(*ticks);
                    } else {
                        // A short stall self-heals: the generation
                        // completes, merely late on the simulated clock.
                        clock.advance_ms(*ticks);
                    }
                }
                Some(ShardFault::Crash) => crash = true,
                None => {}
            }
            if killed_by_stall.is_none() {
                let lo = histories[s].len() as u32;
                let runner = runners[s]
                    .as_mut()
                    .ok_or_else(|| CoreError::Shard(format!("live shard {s} lost its runner")))?;
                let space = &self.space;
                let objective = self.config.objective;
                let worker =
                    catch_unwind(AssertUnwindSafe(move || -> Result<Vec<EpisodeRecord>> {
                        if crash {
                            panic!("injected shard crash");
                        }
                        let mut fresh = Vec::with_capacity((hi - lo) as usize);
                        for episode in lo..hi {
                            let design = runner.island.propose()?;
                            let record = judge_episode(
                                space,
                                &mut runner.pipeline,
                                objective,
                                &Journal::disabled(),
                                episode,
                                design,
                            )?;
                            runner.island.observe(&record.design, record.reward)?;
                            fresh.push(record);
                        }
                        Ok(fresh)
                    }));
                match worker {
                    Ok(Ok(fresh)) => {
                        histories[s].extend(fresh);
                        if g >= frontier {
                            self.journal.record(JournalEvent::ShardHeartbeat {
                                shard: s as u32,
                                generation: g,
                                episodes: histories[s].len() as u32,
                            });
                        }
                        return Ok(());
                    }
                    // Structural evaluator/optimizer errors are not
                    // shard faults: they would recur on restart, so
                    // they abort the fleet like the serial loop.
                    Ok(Err(e)) => return Err(e),
                    Err(payload) => {
                        self.journal.record(JournalEvent::ShardCrashed {
                            shard: s as u32,
                            generation: g,
                            message: panic_message(&payload),
                        });
                    }
                }
            } else if let Some(ticks) = killed_by_stall {
                self.journal.record(JournalEvent::ShardStalled {
                    shard: s as u32,
                    generation: g,
                    ticks,
                });
            }
            // The shard is down (crashed or stall-killed). Restart it
            // under the budget, or quarantine it.
            if restarts[s] >= self.plan.restart_budget {
                quarantined[s] = Some(g);
                runners[s] = None;
                self.journal.record(JournalEvent::ShardQuarantined {
                    shard: s as u32,
                    generation: g,
                    restarts: restarts[s],
                });
                return Ok(());
            }
            restarts[s] += 1;
            let shift = (restarts[s] - 1).min(16);
            clock.advance_ms(self.plan.restart_backoff_ms << shift);
            self.journal.record(JournalEvent::ShardRestarted {
                shard: s as u32,
                generation: g,
                attempt: restarts[s],
            });
            runners[s] = Some(self.rebuild_runner(s as u32, histories, quarantined, g, clock)?);
        }
    }
}

/// True when `shard` was live at barrier `g` (not yet quarantined, or
/// quarantined at a later generation).
fn alive_at(quarantined: &[Option<u32>], shard: usize, g: u32) -> bool {
    quarantined[shard].is_none_or(|q| g < q)
}

/// The `k` best records of a committed history, reward-descending with
/// earlier-observed tie-break — the export half of the migration
/// protocol, computed from histories so live runs, restarts, and
/// resumes share one code path (it mirrors
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

/// First line of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    text.lines().next().unwrap_or("").to_string()
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
            restart_budget: 2,
            stall_ticks: 1_000,
            restart_backoff_ms: 10,
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
            restart_budget: 3,
            stall_ticks: 1_000,
            optimizer: "sim-llm".into(),
            backend: "cim".into(),
            completed_generations: 1,
            entries: vec![ShardManifestEntry {
                shard: 0,
                seed: 9,
                episodes_done: 2,
                restarts_used: 0,
                quarantined_at: None,
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
        assert!(!fleet.partial_fleet);
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
