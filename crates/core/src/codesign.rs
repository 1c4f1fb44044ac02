//! The LCDA episode loop (Algorithm 2).
//!
//! ```text
//! for i in 0..EP:
//!     prompt  = GPT-Prompts(l_des, l_perf, Model, Choices)   // optimizer
//!     des_i   = parse(LLM(prompt))                            // generator
//!     acc_i   = DNN-Performance-Evaluator(des_i)
//!     hw_i    = Hardware-Cost-Evaluator(des_i)
//!     perf_i  = f(acc_i, hw_i)                                // reward
//!     append (des_i, perf_i) to history
//! ```
//!
//! The same loop drives every optimizer (LLM, RL, GA, random), which is
//! what makes the episode-count comparison of Fig. 3 fair.

use crate::backend::{CimBackend, DEFAULT_BACKEND};
use crate::cache::AdmissionCursor;
use crate::checkpoint::Checkpoint;
use crate::evaluate::{AccuracyEvaluator, HardwareCostEvaluator, HwMetrics};
use crate::hwconfig::HwHierarchy;
use crate::journal::{Journal, JournalEvent};
use crate::pipeline::{CacheStats, EvalPipeline};
use crate::reward::{Objective, INVALID_REWARD};
use crate::space::DesignSpace;
use crate::surrogate::SurrogateEvaluator;
use crate::{CoreError, Result};
use lcda_llm::design::CandidateDesign;
use lcda_llm::persona::Persona;
use lcda_llm::sim::SimLlm;
use lcda_optim::genetic::{GaConfig, GeneticOptimizer};
use lcda_optim::llm_opt::LlmOptimizer;
use lcda_optim::random::RandomOptimizer;
use lcda_optim::rl::{RlConfig, RlOptimizer};
use lcda_optim::Optimizer;

/// Configuration of one co-design run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoDesignConfig {
    /// The reward trade-off (Eq. 1 or Eq. 2).
    pub objective: Objective,
    /// Number of episodes (`EP` in Algorithm 2). 20 for LCDA, 500 for
    /// NACIM in the paper.
    pub episodes: u32,
    /// Master seed for the optimizer and evaluators.
    pub seed: u64,
}

lcda_base::impl_json!(struct CoDesignConfig { objective, episodes, seed });

impl CoDesignConfig {
    /// Starts a builder for the given objective.
    pub fn builder(objective: Objective) -> CoDesignConfigBuilder {
        CoDesignConfigBuilder {
            config: CoDesignConfig {
                objective,
                episodes: 20,
                seed: 0,
            },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero episodes.
    pub fn validate(&self) -> Result<()> {
        if self.episodes == 0 {
            return Err(CoreError::InvalidConfig("episodes must be positive".into()));
        }
        Ok(())
    }
}

/// Builder for [`CoDesignConfig`].
#[derive(Debug, Clone)]
pub struct CoDesignConfigBuilder {
    config: CoDesignConfig,
}

impl CoDesignConfigBuilder {
    /// Sets the episode budget.
    pub fn episodes(mut self, episodes: u32) -> Self {
        self.config.episodes = episodes;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CoDesignConfig {
        self.config
    }
}

/// One evaluated episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRecord {
    /// Episode index (0-based).
    pub episode: u32,
    /// The design explored.
    pub design: CandidateDesign,
    /// Monte-Carlo accuracy (0 when the hardware was invalid).
    pub accuracy: f64,
    /// Hardware metrics; `None` when the design violated the platform
    /// constraint.
    pub hw: Option<HwMetrics>,
    /// The scalar reward fed back to the optimizer (−1 when invalid).
    pub reward: f64,
    /// True when the evaluators returned non-finite accuracy/energy/
    /// latency and the episode was quarantined: its metrics are replaced
    /// by the invalid sentinel so NaN can never poison `best_so_far` or
    /// the prompt history.
    pub quarantined: bool,
}

lcda_base::impl_json!(struct EpisodeRecord {
    episode,
    design,
    accuracy,
    hw,
    reward,
    #[default] quarantined,
});

impl EpisodeRecord {
    /// Whether the design's hardware was valid.
    pub fn is_valid(&self) -> bool {
        self.hw.is_some()
    }
}

/// Result of a full co-design run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every episode in order.
    pub history: Vec<EpisodeRecord>,
    /// The best-reward episode.
    pub best: EpisodeRecord,
    /// Optimizer name (for reports).
    pub optimizer: String,
}

lcda_base::impl_json!(struct Outcome { history, best, optimizer });

impl Outcome {
    /// The running best reward after each episode (the Fig. 3 series).
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.history.len());
        let mut best = f64::NEG_INFINITY;
        for r in &self.history {
            best = best.max(r.reward);
            out.push(best);
        }
        out
    }

    /// `(accuracy, energy_pj)` points of all valid designs (Fig. 2/5).
    pub fn accuracy_energy_points(&self) -> Vec<(f64, f64)> {
        self.history
            .iter()
            .filter_map(|r| r.hw.as_ref().map(|h| (r.accuracy, h.energy_pj)))
            .collect()
    }

    /// `(accuracy, latency_ns)` points of all valid designs (Fig. 4).
    pub fn accuracy_latency_points(&self) -> Vec<(f64, f64)> {
        self.history
            .iter()
            .filter_map(|r| r.hw.as_ref().map(|h| (r.accuracy, h.latency_ns)))
            .collect()
    }
}

/// Which design optimizer drives the episode loop.
///
/// This is the declarative face of the old `CoDesign::with_*` constructor
/// family: every paper configuration (Fig. 3/5, Table 2) is one variant,
/// consumed by [`CoDesign::builder`]. Each variant seeds its optimizer
/// from the run's master seed, so a spec + [`CoDesignConfig`] pins a run
/// bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum OptimizerSpec {
    /// LCDA with the pretrained (paper-observed GPT-4) persona — the
    /// headline configuration.
    #[default]
    ExpertLlm,
    /// LCDA with the fine-tuned persona (misconceptions corrected — the
    /// paper's future-work model).
    FinetunedLlm,
    /// LCDA-naive (Fig. 5): the prompt omits the co-design framing and
    /// the model has no domain knowledge.
    NaiveLlm,
    /// Pretrained knowledge as a prior plus an online ridge-regression
    /// correction fitted to the rewards in the prompt history — the
    /// repository's executable take on the paper's "fine-tuning is
    /// necessary" future-work conclusion.
    AdaptiveLlm,
    /// The NACIM baseline: REINFORCE controller.
    Rl,
    /// The genetic-algorithm baseline.
    Genetic,
    /// The random-search floor.
    Random,
}

impl OptimizerSpec {
    /// Every name `lcda search --optimizer` and serve job specs accept,
    /// with the spec it selects — the one name table both share.
    const BY_NAME: [(&'static str, OptimizerSpec); 7] = [
        ("expert", OptimizerSpec::ExpertLlm),
        ("finetuned", OptimizerSpec::FinetunedLlm),
        ("adaptive", OptimizerSpec::AdaptiveLlm),
        ("naive", OptimizerSpec::NaiveLlm),
        ("rl", OptimizerSpec::Rl),
        ("genetic", OptimizerSpec::Genetic),
        ("random", OptimizerSpec::Random),
    ];

    /// Resolves an optimizer name (`expert`, `rl`, …).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the unknown optimizer and the
    /// accepted names.
    pub fn from_name(name: &str) -> Result<Self> {
        Self::BY_NAME
            .iter()
            .find(|(known, _)| *known == name)
            .map(|(_, spec)| spec.clone())
            .ok_or_else(|| {
                let known: Vec<&str> = Self::BY_NAME.iter().map(|(known, _)| *known).collect();
                CoreError::InvalidConfig(format!(
                    "unknown optimizer `{name}` ({})",
                    known.join("|")
                ))
            })
    }

    /// Instantiates the optimizer for a design space and run config.
    ///
    /// # Errors
    ///
    /// Propagates optimizer construction errors (e.g. invalid RL/GA
    /// hyper-parameters).
    pub fn instantiate(
        &self,
        space: &DesignSpace,
        config: &CoDesignConfig,
    ) -> Result<Box<dyn Optimizer>> {
        self.instantiate_observed(space, config, &Journal::disabled())
    }

    /// Instantiates the optimizer with a run journal attached: LLM-backed
    /// variants stream their prompt and parse-failure events into
    /// `journal`. Observation never changes
    /// optimizer behaviour: a journaled run proposes the exact same
    /// designs as an unjournaled one.
    ///
    /// # Errors
    ///
    /// Propagates optimizer construction errors (e.g. invalid RL/GA
    /// hyper-parameters).
    pub fn instantiate_observed(
        &self,
        space: &DesignSpace,
        config: &CoDesignConfig,
        journal: &Journal,
    ) -> Result<Box<dyn Optimizer>> {
        Ok(match self {
            OptimizerSpec::ExpertLlm => {
                let llm = SimLlm::new(Persona::Pretrained, config.seed);
                Box::new(
                    LlmOptimizer::new(
                        llm,
                        space.choices.clone(),
                        config.objective.prompt_objective(),
                    )
                    .with_observer(journal.llm_observer()),
                )
            }
            OptimizerSpec::FinetunedLlm => {
                let llm = SimLlm::new(Persona::FineTuned, config.seed);
                Box::new(
                    LlmOptimizer::new(
                        llm,
                        space.choices.clone(),
                        config.objective.prompt_objective(),
                    )
                    .with_observer(journal.llm_observer()),
                )
            }
            OptimizerSpec::NaiveLlm => {
                let llm = SimLlm::new(Persona::Naive, config.seed);
                Box::new(
                    LlmOptimizer::new(
                        llm,
                        space.choices.clone(),
                        lcda_llm::prompt::PromptObjective::Naive,
                    )
                    .with_observer(journal.llm_observer()),
                )
            }
            OptimizerSpec::AdaptiveLlm => {
                let llm = lcda_llm::adaptive::AdaptiveLlm::new(config.seed);
                Box::new(
                    LlmOptimizer::new(
                        llm,
                        space.choices.clone(),
                        config.objective.prompt_objective(),
                    )
                    .with_observer(journal.llm_observer()),
                )
            }
            OptimizerSpec::Rl => Box::new(RlOptimizer::new(
                space.choices.clone(),
                RlConfig::standard(),
                config.seed,
            )?),
            OptimizerSpec::Genetic => Box::new(GeneticOptimizer::new(
                space.choices.clone(),
                GaConfig::standard(),
                config.seed,
            )?),
            OptimizerSpec::Random => {
                Box::new(RandomOptimizer::new(space.choices.clone(), config.seed))
            }
        })
    }
}

/// Builder for [`CoDesign`]: pick an [`OptimizerSpec`], optionally swap
/// evaluators, and tune the pipeline (threads, caching).
pub struct CoDesignBuilder {
    space: DesignSpace,
    config: CoDesignConfig,
    spec: OptimizerSpec,
    accuracy: Option<Box<dyn AccuracyEvaluator>>,
    hardware: Option<Box<dyn HardwareCostEvaluator>>,
    hw: Option<HwHierarchy>,
    threads: usize,
    caching: bool,
    store: Option<crate::cache::CacheStore>,
    journal: Journal,
}

impl std::fmt::Debug for CoDesignBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoDesignBuilder")
            .field("config", &self.config)
            .field("spec", &self.spec)
            .field("threads", &self.threads)
            .field("caching", &self.caching)
            .finish_non_exhaustive()
    }
}

impl CoDesignBuilder {
    /// Selects the design optimizer (default: [`OptimizerSpec::ExpertLlm`]).
    #[must_use]
    pub fn optimizer(mut self, spec: OptimizerSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the default surrogate accuracy evaluator (e.g. with the
    /// trained one).
    #[must_use]
    pub fn accuracy_evaluator(mut self, eval: Box<dyn AccuracyEvaluator>) -> Self {
        self.accuracy = Some(eval);
        self
    }

    /// Replaces the hardware cost evaluator with an arbitrary
    /// implementation — the way any cost model other than `cim` plugs
    /// in. The run's recorded backend name becomes the evaluator's
    /// [`HardwareCostEvaluator::name`].
    #[must_use]
    pub fn hardware_evaluator(mut self, eval: Box<dyn HardwareCostEvaluator>) -> Self {
        self.hardware = Some(eval);
        self
    }

    /// Supplies a declarative hardware hierarchy for [`CimBackend`] to
    /// lower from (default: [`HwHierarchy::isaac`]). Validated in
    /// [`CoDesignBuilder::build`]. Conflicts with an explicit
    /// [`CoDesignBuilder::hardware_evaluator`].
    #[must_use]
    pub fn hw_config(mut self, hw: HwHierarchy) -> Self {
        self.hw = Some(hw);
        self
    }

    /// Worker threads for evaluators that fan out internally (Monte-Carlo
    /// trials). Results are bit-identical for every value; default 1.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables evaluation memoization (default: enabled).
    /// Enabled, a run memoizes only where a lookup can pay: on a shared
    /// store, or when an evaluator [memoizes](AccuracyEvaluator::memoize)
    /// (the trained one does; the surrogate and `cim` do not).
    #[must_use]
    pub fn caching(mut self, enabled: bool) -> Self {
        self.caching = enabled;
        self
    }

    /// Disables evaluation memoization.
    #[must_use]
    pub fn no_cache(self) -> Self {
        self.caching(false)
    }

    /// Binds the run's memo table to a shared, cross-run
    /// [`crate::cache::CacheStore`] instead of a private per-run one:
    /// results this run admits become visible to every other run on the
    /// same store, and vice versa. Hit/miss counters stay per-run
    /// ([`CoDesign::session_stats`] reports the cross-run split). Sharing
    /// never changes results — every evaluator is a pure function of
    /// `(design, configuration)` and entries are namespaced by the
    /// evaluator-context fingerprint. A shared store memoizes even the
    /// analytic evaluators, since another run may have paid for an entry.
    /// Ignored when caching is disabled.
    #[must_use]
    pub fn cache_store(mut self, store: &crate::cache::CacheStore) -> Self {
        self.store = Some(store.clone());
        self
    }

    /// Attaches a run journal (default: disabled). Every phase of the
    /// wired run — episode loop, evaluation pipeline, cache, Monte-Carlo
    /// batches, backend cost calls, LLM prompts — streams its events
    /// into it. Journaling never changes run results.
    #[must_use]
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Wires the run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configs and
    /// propagates optimizer construction errors.
    pub fn build(self) -> Result<CoDesign> {
        self.config.validate()?;
        let optimizer = self
            .spec
            .instantiate_observed(&self.space, &self.config, &self.journal)?;
        let accuracy = self.accuracy.unwrap_or_else(|| {
            Box::new(SurrogateEvaluator::new(
                self.space.clone(),
                self.config.seed,
            ))
        });
        let (hardware, backend, hw_digest, hw_summary): (Box<dyn HardwareCostEvaluator>, _, _, _) =
            match self.hardware {
                Some(eval) => {
                    if self.hw.is_some() {
                        return Err(CoreError::InvalidConfig(
                            "an explicit hardware evaluator cannot be combined with a \
                             hardware hierarchy config (the evaluator bypasses lowering)"
                                .into(),
                        ));
                    }
                    let name = eval.name().to_string();
                    (eval, name, None, None)
                }
                None => {
                    let backend = match self.hw {
                        Some(hw) => CimBackend::from_hierarchy(self.space.clone(), hw)?,
                        None => CimBackend::new(self.space.clone()),
                    };
                    // Every hierarchy runs as `cim`; its digest is what
                    // tells one chip from another in checkpoints and the
                    // journal.
                    let (digest, summary) =
                        (backend.digest().to_string(), backend.summary().to_string());
                    let name = DEFAULT_BACKEND.to_string();
                    (Box::new(backend), name, Some(digest), Some(summary))
                }
            };
        let mut pipeline = EvalPipeline::new(accuracy, hardware);
        pipeline.set_caching(self.caching);
        if let Some(store) = &self.store {
            pipeline.attach_store(store);
        }
        pipeline.set_threads(self.threads);
        pipeline.set_journal(self.journal.clone());
        Ok(CoDesign {
            space: self.space,
            config: self.config,
            backend,
            hw_digest,
            hw_summary,
            optimizer,
            pipeline,
            journal: self.journal,
        })
    }
}

/// A fully wired co-design run: optimizer + generator + the evaluation
/// pipeline + reward (Algorithm 2).
pub struct CoDesign {
    space: DesignSpace,
    config: CoDesignConfig,
    backend: String,
    hw_digest: Option<String>,
    hw_summary: Option<String>,
    optimizer: Box<dyn Optimizer>,
    pipeline: EvalPipeline,
    journal: Journal,
}

impl std::fmt::Debug for CoDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoDesign")
            .field("config", &self.config)
            .field("backend", &self.backend)
            .field("optimizer", &self.optimizer.name())
            .field("pipeline", &self.pipeline)
            .finish_non_exhaustive()
    }
}

impl CoDesign {
    /// Starts a builder wiring a run over `space` (default: expert-LLM
    /// optimizer, surrogate accuracy, the `cim` hardware backend, caching
    /// on, 1 thread).
    pub fn builder(space: DesignSpace, config: CoDesignConfig) -> CoDesignBuilder {
        CoDesignBuilder {
            space,
            config,
            spec: OptimizerSpec::default(),
            accuracy: None,
            hardware: None,
            hw: None,
            threads: 1,
            caching: true,
            store: None,
            journal: Journal::disabled(),
        }
    }

    /// Wires a run with explicit components.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configs.
    pub fn new(
        space: DesignSpace,
        config: CoDesignConfig,
        optimizer: Box<dyn Optimizer>,
        accuracy: Box<dyn AccuracyEvaluator>,
        hardware: Box<dyn HardwareCostEvaluator>,
    ) -> Result<Self> {
        config.validate()?;
        let backend = hardware.name().to_string();
        Ok(CoDesign {
            space,
            config,
            backend,
            hw_digest: None,
            hw_summary: None,
            optimizer,
            pipeline: EvalPipeline::new(accuracy, hardware),
            journal: Journal::disabled(),
        })
    }

    /// The hardware backend name this run was wired with (`cim`, or a
    /// custom evaluator's name).
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Digest of the hardware hierarchy this run's backend lowered from
    /// (`None` when the run was wired with a custom evaluator that does
    /// not expose one). Stamped into checkpoints and the journal's
    /// `hw_config` event.
    pub fn hw_digest(&self) -> Option<&str> {
        self.hw_digest.as_deref()
    }

    /// The evaluation pipeline (cache inspection, thread control).
    pub fn pipeline(&self) -> &EvalPipeline {
        &self.pipeline
    }

    /// The evaluation cache's hit/miss/insert counters (zeroes when
    /// caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.pipeline.stats()
    }

    /// This run's cache-session counters including the cross-run split —
    /// hits served by entries another run admitted into a shared
    /// [`crate::cache::CacheStore`] (see [`CoDesignBuilder::cache_store`]).
    pub fn session_stats(&self) -> crate::cache::SessionStats {
        self.pipeline.session_stats()
    }

    /// Runs Algorithm 2 to completion.
    ///
    /// # Errors
    ///
    /// Propagates component failures. Out-of-space or infeasible proposals
    /// are *not* failures: they score −1 and the loop continues, as the
    /// paper's prompt specifies.
    pub fn run(&mut self) -> Result<Outcome> {
        self.run_resumable(None, |_| Ok(()))
    }

    /// Runs Algorithm 2 with checkpoint/resume support.
    ///
    /// `resume` restores a prior run: the recorded episodes are *replayed*
    /// through the freshly seeded optimizer (re-running `propose` and
    /// `observe` but skipping the evaluators), which restores optimizer
    /// state, RNG streams and transcript bit-exactly without serializing
    /// RNG internals. `on_checkpoint` is invoked after every completed
    /// episode with the run's checkpoint, the history so far plus the memo
    /// table — pass a closure that calls [`crate::CheckpointStore::save`]
    /// to persist, or a no-op to run unpersisted.
    ///
    /// The checkpoint is the loop's own state, updated in place: each
    /// episode pushes its record and merges only the memo entries the
    /// store admitted since the previous episode. At the end its history
    /// moves into the [`Outcome`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when the checkpoint does not
    /// belong to this run (different config, optimizer, or a replay that
    /// diverges), and propagates component and `on_checkpoint` failures.
    pub fn run_resumable(
        &mut self,
        resume: Option<Checkpoint>,
        mut on_checkpoint: impl FnMut(&Checkpoint) -> Result<()>,
    ) -> Result<Outcome> {
        let mut state = Checkpoint::new(self.config, self.optimizer.name(), Vec::new())
            .with_backend(&self.backend)
            .with_hw_digest(self.hw_digest.clone());
        if let Some(cp) = resume {
            self.replay(&cp)?;
            // Rehydrate the evaluation memo table so designs evaluated
            // before the kill stay cheap. A cache whose context
            // fingerprint does not match this run's evaluators is
            // silently dropped — replay above already vouched for the
            // run's identity, and a mismatched cache only costs misses.
            if let Some(cache) = cp.eval_cache {
                self.pipeline.restore_cache(cache);
            }
            state.history = cp.history;
        }
        // The history grows one record per episode: a budget-sized
        // reservation up front would abort the process on a huge
        // `episodes` before the first deadline or cancel check.
        let resumed = state.history.len();
        let mut cursor = AdmissionCursor::default();
        self.journal.record(JournalEvent::RunStart {
            optimizer: self.optimizer.name().to_string(),
            backend: self.backend.clone(),
            objective: self.config.objective.name().to_string(),
            episodes: self.config.episodes,
            seed: self.config.seed,
            resumed: resumed as u64,
        });
        if let (Some(digest), Some(summary)) = (&self.hw_digest, &self.hw_summary) {
            self.journal.record(JournalEvent::HwConfig {
                backend: self.backend.clone(),
                digest: digest.clone(),
                summary: summary.clone(),
            });
        }
        for episode in resumed as u32..self.config.episodes {
            let design = self.optimizer.propose()?;
            let record = self.evaluate_design(episode, design)?;
            self.optimizer.observe(&record.design, record.reward)?;
            self.journal.record(JournalEvent::Episode {
                episode,
                reward: record.reward,
                accuracy: record.accuracy,
                quarantined: record.quarantined,
            });
            state.history.push(record);
            self.pipeline
                .catch_up_cache(&mut state.eval_cache, &mut cursor);
            on_checkpoint(&state)?;
            self.journal.record(JournalEvent::CheckpointSaved {
                episodes_done: state.episodes_done(),
            });
        }
        let history = state.history;
        let best = history
            .iter()
            .max_by(|a, b| a.reward.total_cmp(&b.reward))
            .cloned()
            .ok_or_else(|| CoreError::InvalidConfig("no episodes run".into()))?;
        self.journal.record(JournalEvent::RunEnd {
            episodes: history.len() as u64,
            best_reward: best.reward,
        });
        Ok(Outcome {
            history,
            best,
            optimizer: self.optimizer.name().to_string(),
        })
    }

    /// Replays a checkpoint's episodes through the optimizer, verifying
    /// that each re-proposed design matches the recorded one.
    fn replay(&mut self, cp: &Checkpoint) -> Result<()> {
        // Objective and seed pin the run's identity; the episode budget
        // may legitimately differ (resuming a killed run, or extending a
        // finished one).
        if cp.config.objective != self.config.objective || cp.config.seed != self.config.seed {
            return Err(CoreError::Checkpoint(
                "checkpoint was produced by a different run configuration \
                 (objective/seed mismatch)"
                    .into(),
            ));
        }
        if cp.optimizer != self.optimizer.name() {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint optimizer `{}` does not match `{}`",
                cp.optimizer,
                self.optimizer.name()
            )));
        }
        if cp.backend != self.backend {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint was produced under hardware backend `{}` but \
                 this run uses `{}`",
                cp.backend, self.backend
            )));
        }
        // A checkpoint without a recorded digest (pre-hierarchy format, or
        // a custom evaluator) is accepted; a recorded digest must match —
        // same backend id lowered from different hardware is a different
        // run.
        if cp.hw_digest.is_some() && cp.hw_digest != self.hw_digest {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint was produced under hardware hierarchy digest `{}` \
                 but this run's backend lowered from `{}`",
                cp.hw_digest.as_deref().unwrap_or("-"),
                self.hw_digest.as_deref().unwrap_or("-")
            )));
        }
        if cp.history.len() as u32 > self.config.episodes {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint has {} episodes but the budget is {}",
                cp.history.len(),
                self.config.episodes
            )));
        }
        for rec in &cp.history {
            let proposed = self.optimizer.propose()?;
            if proposed != rec.design {
                return Err(CoreError::Checkpoint(format!(
                    "replay diverged at episode {}: the optimizer re-proposed a \
                     different design (checkpoint from another seed?)",
                    rec.episode
                )));
            }
            self.optimizer.observe(&proposed, rec.reward)?;
        }
        Ok(())
    }

    /// Evaluates one design exactly as an episode would (exposed so
    /// benches can score hand-picked designs).
    ///
    /// Evaluator panics do **not** error: the episode comes back
    /// quarantined (reward −1, no metrics) and the failure is journaled,
    /// so a panicking backend cannot take the search down.
    ///
    /// # Errors
    ///
    /// Propagates structural evaluator failures (bad configuration, a
    /// broken backend) only.
    pub fn evaluate_design(
        &mut self,
        episode: u32,
        design: CandidateDesign,
    ) -> Result<EpisodeRecord> {
        // A proposal whose architecture is structurally impossible (e.g.
        // kernel larger than the shrunken plane) scores −1 like an
        // area-infeasible one.
        if self.space.architecture(&design).is_err() {
            return Ok(EpisodeRecord {
                episode,
                design,
                accuracy: 0.0,
                hw: None,
                reward: INVALID_REWARD,
                quarantined: false,
            });
        }
        let (accuracy, hw) = match self.pipeline.evaluate(&design) {
            Ok(result) => result,
            // A panicking evaluator must not take the run down: the design
            // is quarantined (reward −1, no metrics) and the loop moves on.
            // Structural errors — bad config, a broken backend — still
            // propagate.
            Err(e @ CoreError::EvalPanic(_)) => {
                self.journal.record(JournalEvent::EvalQuarantined {
                    reason: e.to_string(),
                });
                return Ok(EpisodeRecord {
                    episode,
                    design,
                    accuracy: 0.0,
                    hw: None,
                    reward: INVALID_REWARD,
                    quarantined: true,
                });
            }
            Err(e) => return Err(e),
        };
        let reward = match &hw {
            Some(metrics) => self.config.objective.reward(accuracy, metrics),
            None => INVALID_REWARD,
        };
        // Quarantine: a NaN/inf from an evaluator must never reach the
        // optimizer history or `best_so_far` — replace the episode's
        // metrics with the invalid sentinel and flag it.
        let hw_finite = hw.as_ref().is_none_or(HwMetrics::is_finite);
        if !accuracy.is_finite() || !reward.is_finite() || !hw_finite {
            return Ok(EpisodeRecord {
                episode,
                design,
                accuracy: 0.0,
                hw: None,
                reward: INVALID_REWARD,
                quarantined: true,
            });
        }
        Ok(EpisodeRecord {
            episode,
            design,
            accuracy,
            hw,
            reward,
            quarantined: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn cfg(episodes: u32, seed: u64) -> CoDesignConfig {
        CoDesignConfig::builder(Objective::AccuracyEnergy)
            .episodes(episodes)
            .seed(seed)
            .build()
    }

    fn build(space: DesignSpace, config: CoDesignConfig, spec: OptimizerSpec) -> Result<CoDesign> {
        CoDesign::builder(space, config).optimizer(spec).build()
    }

    /// [`build`] on a fresh attached store: the analytic evaluators
    /// memoize only on one.
    fn build_memoized(
        space: DesignSpace,
        config: CoDesignConfig,
        spec: OptimizerSpec,
    ) -> Result<CoDesign> {
        CoDesign::builder(space, config)
            .optimizer(spec)
            .cache_store(&crate::cache::CacheStore::new())
            .build()
    }

    /// Logs every prompt it receives into a shared list, then answers
    /// through `inner`.
    struct Recorder {
        inner: SimLlm,
        sent: Rc<RefCell<Vec<String>>>,
    }

    impl lcda_llm::LanguageModel for Recorder {
        fn complete(&mut self, prompt: &str) -> lcda_llm::Result<String> {
            self.sent.borrow_mut().push(prompt.to_string());
            self.inner.complete(prompt)
        }

        fn model_name(&self) -> &str {
            self.inner.model_name()
        }
    }

    #[test]
    fn expert_llm_run_completes() {
        let mut run = build(
            DesignSpace::nacim_cifar10(),
            cfg(6, 1),
            OptimizerSpec::ExpertLlm,
        )
        .unwrap();
        let outcome = run.run().unwrap();
        assert_eq!(outcome.history.len(), 6);
        assert!(outcome.best.reward >= outcome.history[0].reward);
        assert_eq!(outcome.best_so_far().len(), 6);
        // best_so_far is monotone non-decreasing.
        let b = outcome.best_so_far();
        assert!(b.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn all_optimizers_complete() {
        let space = DesignSpace::nacim_cifar10();
        let specs = [
            OptimizerSpec::ExpertLlm,
            OptimizerSpec::FinetunedLlm,
            OptimizerSpec::NaiveLlm,
            OptimizerSpec::AdaptiveLlm,
            OptimizerSpec::Rl,
            OptimizerSpec::Genetic,
            OptimizerSpec::Random,
        ];
        for spec in specs {
            let mut run = build(space.clone(), cfg(3, 2), spec).unwrap();
            let name = format!("{run:?}");
            let outcome = run.run().unwrap();
            assert_eq!(outcome.history.len(), 3, "{name}");
            assert!(!outcome.optimizer.is_empty());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let space = DesignSpace::nacim_cifar10();
        let a = build(space.clone(), cfg(5, 7), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run()
            .unwrap();
        let b = build(space, cfg(5, 7), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cached_run_matches_uncached_run() {
        // Memoization must be observable only through the counters —
        // never through the Outcome.
        let space = DesignSpace::nacim_cifar10();
        let mut cached =
            build_memoized(space.clone(), cfg(8, 19), OptimizerSpec::ExpertLlm).unwrap();
        let mut plain = CoDesign::builder(space, cfg(8, 19))
            .optimizer(OptimizerSpec::ExpertLlm)
            .no_cache()
            .build()
            .unwrap();
        let a = cached.run().unwrap();
        let b = plain.run().unwrap();
        assert_eq!(a, b);
        assert!(cached.cache_stats().inserts > 0);
        assert_eq!(plain.cache_stats(), CacheStats::default());
    }

    #[test]
    fn zero_episodes_rejected() {
        assert!(build(
            DesignSpace::nacim_cifar10(),
            cfg(0, 0),
            OptimizerSpec::Random
        )
        .is_err());
    }

    #[test]
    fn invalid_hardware_scores_minus_one() {
        let mut space = DesignSpace::nacim_cifar10();
        space.area_budget_mm2 = 1e-6; // nothing fits
        let mut run = build(space, cfg(3, 3), OptimizerSpec::Random).unwrap();
        let outcome = run.run().unwrap();
        for r in &outcome.history {
            assert_eq!(r.reward, INVALID_REWARD);
            assert!(!r.is_valid());
            assert_eq!(r.accuracy, 0.0);
        }
        assert!(outcome.accuracy_energy_points().is_empty());
    }

    #[test]
    fn rewards_are_plausible() {
        let mut run = build(
            DesignSpace::nacim_cifar10(),
            cfg(10, 4),
            OptimizerSpec::ExpertLlm,
        )
        .unwrap();
        let outcome = run.run().unwrap();
        for r in &outcome.history {
            assert!(r.reward > -1.5 && r.reward < 1.0, "reward {}", r.reward);
            if let Some(hw) = &r.hw {
                assert!(hw.energy_pj > 0.0 && hw.latency_ns > 0.0);
                assert!(r.accuracy > 0.0);
            }
        }
        assert_eq!(
            outcome.accuracy_energy_points().len(),
            outcome.history.iter().filter(|r| r.is_valid()).count()
        );
    }

    #[test]
    fn outcome_serializes() {
        let mut run = build(
            DesignSpace::nacim_cifar10(),
            cfg(2, 5),
            OptimizerSpec::Random,
        )
        .unwrap();
        let outcome = run.run().unwrap();
        let json = lcda_base::json::to_string(&outcome);
        let back: Outcome = lcda_base::json::from_str(&json).unwrap();
        // Floats may round-trip with 1-ULP drift through JSON text; compare
        // structure and values with tolerance instead of bitwise equality.
        assert_eq!(outcome.history.len(), back.history.len());
        assert_eq!(outcome.optimizer, back.optimizer);
        for (a, b) in outcome.history.iter().zip(&back.history) {
            assert_eq!(a.design, b.design);
            assert!((a.reward - b.reward).abs() < 1e-9);
            assert_eq!(a.is_valid(), b.is_valid());
        }
    }

    #[test]
    fn structurally_impossible_design_scores_minus_one() {
        // kernel 7 on a plane pooled down to 2x2 would still build (padding
        // covers it) — craft an actually impossible case: 12-layer pooling
        // is prevented by the space, so use evaluate_design directly with a
        // kernel bigger than its padded plane cannot occur in-space. Guard
        // the -1 path with an out-of-space architecture instead.
        let space = DesignSpace::tiny_test();
        let mut run = build(space.clone(), cfg(1, 6), OptimizerSpec::Random).unwrap();
        let mut d = space
            .choices
            .decode(&vec![0; space.choices.slot_count()])
            .unwrap();
        // Force an architecture-invalid design: zero channels.
        d.conv[0].channels = 0;
        let rec = run.evaluate_design(0, d).unwrap();
        assert_eq!(rec.reward, INVALID_REWARD);
        assert!(!rec.quarantined);
    }

    #[test]
    fn resumed_run_matches_uninterrupted() {
        let space = DesignSpace::nacim_cifar10();
        let config = cfg(6, 11);

        // Uninterrupted run, capturing every post-episode snapshot.
        let mut snapshots: Vec<crate::Checkpoint> = Vec::new();
        let mut uninterrupted =
            build_memoized(space.clone(), config, OptimizerSpec::ExpertLlm).unwrap();
        let full = uninterrupted
            .run_resumable(None, |cp| {
                snapshots.push(cp.clone());
                Ok(())
            })
            .unwrap();
        assert_eq!(snapshots.len(), 6);
        assert_eq!(snapshots[2].episodes_done(), 3);
        assert!(
            snapshots[5].eval_cache.is_some(),
            "snapshots must carry the memo table"
        );

        // "Kill" after episode 3 and resume from that snapshot, with the
        // spec's optimizer rebuilt around a model that logs every prompt
        // it receives.
        let sent = Rc::new(RefCell::new(Vec::new()));
        let expert = |model| {
            LlmOptimizer::new(
                model,
                space.choices.clone(),
                config.objective.prompt_objective(),
            )
        };
        let mut resumer = build_memoized(space.clone(), config, OptimizerSpec::ExpertLlm).unwrap();
        resumer.optimizer = Box::new(expert(Recorder {
            inner: SimLlm::new(Persona::Pretrained, config.seed),
            sent: Rc::clone(&sent),
        }));
        let resumed = resumer
            .run_resumable(Some(snapshots[2].clone()), |_| Ok(()))
            .unwrap();
        assert_eq!(resumed, full);
        // Checkpoints carry no transcript: replay rebuilds the resumed
        // run's conversation exchange for exchange.
        let transcript = |run: &CoDesign| run.optimizer.transcript().cloned().unwrap();
        let (rebuilt, original) = (transcript(&resumer), transcript(&uninterrupted));
        assert_eq!(original.len(), 6);
        for (a, b) in rebuilt.exchanges().iter().zip(original.exchanges()) {
            assert_eq!(a, b, "exchange of episode {} differs", b.episode);
        }
        assert_eq!(rebuilt, original);
        // The rebuilt exchanges name how each prompt was built: an
        // optimizer holding the run's history renders every one exactly
        // as the resumed run's model received it, replayed ones included.
        let mut shadow = expert(Recorder {
            inner: SimLlm::new(Persona::Pretrained, config.seed),
            sent: Rc::default(),
        });
        for rec in &resumed.history {
            shadow.observe(&rec.design, rec.reward).unwrap();
        }
        let sent = sent.borrow();
        assert_eq!(sent.len(), rebuilt.len());
        for (ex, prompt) in rebuilt.exchanges().iter().zip(sent.iter()) {
            assert_eq!(
                shadow.prompt(ex),
                *prompt,
                "prompt of episode {}",
                ex.episode
            );
        }
        // The rehydrated cache serves the resumed episodes' lookups.
        let stats = resumer.cache_stats();
        assert!(stats.hits + stats.misses > 0);
    }

    /// Runs `run` from `resume` on the shared `store` and checks that at
    /// every episode the checkpoint the callback sees, kept in place by
    /// the loop, equals one built from scratch: the history copied, the
    /// memo table snapshotted from the store (as `pipeline.cache()`
    /// does). `between` runs after each check. Returns the outcome and
    /// the last checkpoint.
    fn run_checking_checkpoints(
        mut run: CoDesign,
        resume: Option<Checkpoint>,
        store: &crate::cache::CacheStore,
        mut between: impl FnMut(),
    ) -> (Outcome, Checkpoint) {
        let context = run.pipeline().cache().unwrap().context().to_string();
        let blank = Checkpoint::new(run.config, run.optimizer.name(), Vec::new())
            .with_backend(run.backend())
            .with_hw_digest(run.hw_digest().map(str::to_string));
        let mut seen = Vec::new();
        let outcome = run
            .run_resumable(resume, |cp| {
                let expected = blank.clone().with_eval_cache(store.snapshot(&context));
                seen.push((cp.clone(), expected));
                between();
                Ok(())
            })
            .unwrap();
        for (cp, expected) in &mut seen {
            expected.history = outcome.history[..cp.history.len()].to_vec();
            assert_eq!(cp, expected, "episode {}", cp.episodes_done());
        }
        let (last, _) = seen.pop().unwrap();
        (outcome, last)
    }

    fn build_on(
        store: &crate::cache::CacheStore,
        config: CoDesignConfig,
        spec: OptimizerSpec,
    ) -> CoDesign {
        CoDesign::builder(DesignSpace::nacim_cifar10(), config)
            .optimizer(spec)
            .cache_store(store)
            .build()
            .unwrap()
    }

    #[test]
    fn in_place_checkpoint_equals_a_fresh_snapshot_every_episode() {
        // A fresh run.
        let store = crate::cache::CacheStore::new();
        let run = build_on(&store, cfg(6, 5), OptimizerSpec::ExpertLlm);
        let (_, last) = run_checking_checkpoints(run, None, &store, || ());

        // Resumed with a larger budget, on a fresh store: the rehydrated
        // memo table is the starting snapshot.
        let store = crate::cache::CacheStore::new();
        let run = build_on(&store, cfg(10, 5), OptimizerSpec::ExpertLlm);
        let (longer, _) = run_checking_checkpoints(run, Some(last), &store, || ());
        assert_eq!(longer.history.len(), 10);
    }

    /// Two sessions on one shared store, taking strict turns episode by
    /// episode: each one's checkpoint must also hold the same-context
    /// entries the other admitted in between.
    #[test]
    fn in_place_checkpoint_follows_a_shared_store_across_interleaved_sessions() {
        use std::sync::{Condvar, Mutex};
        // (whose turn, which sessions are done)
        let turns = (Mutex::new((0usize, [false; 2])), Condvar::new());
        let wait = |me: usize| {
            let mut g = crate::lock(&turns.0);
            while g.0 != me && !g.1[1 - me] {
                g = turns.1.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        let pass = |me: usize, done: bool| {
            let mut g = crate::lock(&turns.0);
            g.0 = 1 - me;
            g.1[me] |= done;
            turns.1.notify_all();
        };
        // Marks a session done however it ends, so a failed assertion in
        // one fails the test instead of leaving the other waiting.
        struct Done<'a, F: Fn(usize, bool)>(&'a F, usize);
        impl<F: Fn(usize, bool)> Drop for Done<'_, F> {
            fn drop(&mut self) {
                (self.0)(self.1, true);
            }
        }
        let store = crate::cache::CacheStore::new();
        // One seed, so one evaluator context; different optimizers, so
        // different designs.
        let specs = [OptimizerSpec::ExpertLlm, OptimizerSpec::Random];
        let outcomes = std::thread::scope(|scope| {
            let sessions = specs.clone().map(|spec| {
                let (store, wait, pass) = (&store, &wait, &pass);
                let me = usize::from(spec == OptimizerSpec::Random);
                scope.spawn(move || {
                    let _done = Done(pass, me);
                    wait(me);
                    let run = build_on(store, cfg(5, 9), spec);
                    let (outcome, last) = run_checking_checkpoints(run, None, store, || {
                        pass(me, false);
                        wait(me);
                    });
                    // The other session's designs are in this one's table.
                    let own: std::collections::BTreeSet<String> = outcome
                        .history
                        .iter()
                        .map(|r| r.design.to_response_text())
                        .collect();
                    let cache = last.eval_cache.unwrap();
                    assert!(cache.hardware.keys().any(|key| !own.contains(&**key)));
                    outcome
                })
            });
            sessions.map(|session| session.join().unwrap())
        });
        for (outcome, spec) in outcomes.iter().zip(specs) {
            let alone = build(DesignSpace::nacim_cifar10(), cfg(5, 9), spec)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(*outcome, alone);
        }
    }

    #[test]
    fn replay_rejects_foreign_checkpoint() {
        let space = DesignSpace::nacim_cifar10();
        // Checkpoint from seed 21 into a seed-22 run: config mismatch.
        let mut cp_holder: Vec<crate::Checkpoint> = Vec::new();
        build(space.clone(), cfg(3, 21), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(None, |cp| {
                cp_holder.push(cp.clone());
                Ok(())
            })
            .unwrap();
        let cp = cp_holder.pop().unwrap();
        let err = build(space.clone(), cfg(3, 22), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(Some(cp.clone()), |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)));

        // Same config but tampered history: replay divergence.
        let mut tampered = cp.clone();
        tampered.config = cfg(3, 21);
        let c0 = tampered.history[0].design.conv[0].channels;
        tampered.history[0].design.conv[0].channels = if c0 == 128 { 64 } else { 128 };
        let err = build(space.clone(), cfg(3, 21), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(Some(tampered), |_| Ok(()))
            .unwrap_err();
        match err {
            CoreError::Checkpoint(msg) => assert!(msg.contains("diverged")),
            other => panic!("expected checkpoint error, got {other:?}"),
        }

        // Wrong optimizer name.
        let mut wrong_opt = cp;
        wrong_opt.config = cfg(3, 21);
        wrong_opt.optimizer = "random".into();
        let err = build(space, cfg(3, 21), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(Some(wrong_opt), |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)));
    }

    /// An accuracy evaluator that returns NaN: the episode must be
    /// quarantined, never poisoning `best_so_far` or the history.
    struct NanAccuracy;
    impl AccuracyEvaluator for NanAccuracy {
        fn accuracy(&mut self, _design: &CandidateDesign) -> crate::Result<f64> {
            Ok(f64::NAN)
        }
        fn name(&self) -> &'static str {
            "nan"
        }
    }

    #[test]
    fn non_finite_accuracy_is_quarantined() {
        let space = DesignSpace::nacim_cifar10();
        let mut run = CoDesign::builder(space.clone(), cfg(4, 8))
            .optimizer(OptimizerSpec::Random)
            .accuracy_evaluator(Box::new(NanAccuracy))
            .build()
            .unwrap();

        // The reference design is feasible, so its NaN accuracy must be
        // quarantined into the invalid sentinel.
        let rec = run.evaluate_design(0, space.reference_design()).unwrap();
        assert!(rec.quarantined);
        assert_eq!(rec.reward, INVALID_REWARD);
        assert!(rec.hw.is_none());
        assert_eq!(rec.accuracy, 0.0);

        // A whole run survives: every reward is the finite sentinel and
        // best_so_far never sees a NaN.
        let outcome = run.run().unwrap();
        assert_eq!(outcome.history.len(), 4);
        for r in &outcome.history {
            assert_eq!(r.reward, INVALID_REWARD);
            assert!(r.hw.is_none());
        }
        assert!(outcome.best_so_far().iter().all(|b| b.is_finite()));
        assert_eq!(outcome.best.reward, INVALID_REWARD);
    }

    #[test]
    fn optimizer_names_resolve_through_one_table() {
        for (name, spec) in [
            ("expert", OptimizerSpec::ExpertLlm),
            ("finetuned", OptimizerSpec::FinetunedLlm),
            ("adaptive", OptimizerSpec::AdaptiveLlm),
            ("naive", OptimizerSpec::NaiveLlm),
            ("rl", OptimizerSpec::Rl),
            ("genetic", OptimizerSpec::Genetic),
            ("random", OptimizerSpec::Random),
        ] {
            assert_eq!(OptimizerSpec::from_name(name).unwrap(), spec, "{name}");
        }
        let err = OptimizerSpec::from_name("resilient").unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("`resilient`"), "{err}");
        assert!(
            err.to_string()
                .contains("expert|finetuned|adaptive|naive|rl|genetic|random"),
            "{err}"
        );
    }

    #[test]
    fn the_largest_budget_reserves_nothing_up_front() {
        // A budget-sized history reservation would abort the process
        // (hundreds of GB for `u32::MAX` records) before episode 0.
        let mut run = build(
            DesignSpace::nacim_cifar10(),
            cfg(u32::MAX, 3),
            OptimizerSpec::Random,
        )
        .unwrap();
        let mut seen = 0;
        let err = run
            .run_resumable(None, |cp| {
                seen = cp.history.len();
                Err(CoreError::Cancelled("stop after one episode".into()))
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled(_)), "{err:?}");
        assert_eq!(seen, 1);
    }

    #[test]
    fn replay_rejects_cross_backend_checkpoint() {
        let space = DesignSpace::nacim_cifar10();
        let mut snaps: Vec<crate::Checkpoint> = Vec::new();
        build(space.clone(), cfg(3, 31), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(None, |cp| {
                snaps.push(cp.clone());
                Ok(())
            })
            .unwrap();
        let mut cp = snaps.pop().unwrap();
        assert_eq!(cp.backend, "cim");
        // The same history stamped with another backend is refused by name.
        cp.backend = "fpga".into();
        let err = build(space, cfg(3, 31), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(Some(cp), |_| Ok(()))
            .unwrap_err();
        match err {
            CoreError::Checkpoint(msg) => assert!(
                msg.contains("produced under hardware backend `fpga`"),
                "{msg}"
            ),
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn hw_config_is_stamped_into_checkpoints_and_the_journal() {
        let space = DesignSpace::nacim_cifar10();
        let mut hw = HwHierarchy::isaac();
        hw.chip.global_buffer_kb = 128;
        let digest = hw.digest();
        let (journal, buf) = Journal::in_memory();
        let mut snaps: Vec<crate::Checkpoint> = Vec::new();
        let mut run = CoDesign::builder(space, cfg(2, 9))
            .optimizer(OptimizerSpec::ExpertLlm)
            .hw_config(hw)
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(run.hw_digest(), Some(digest.as_str()));
        run.run_resumable(None, |cp| {
            snaps.push(cp.clone());
            Ok(())
        })
        .unwrap();
        let cp = snaps.pop().unwrap();
        assert_eq!(cp.backend, "cim");
        assert_eq!(cp.hw_digest.as_deref(), Some(digest.as_str()));
        let text = buf.contents();
        assert!(text.contains("\"event\":\"hw_config\""), "{text}");
        assert!(text.contains(&digest), "{text}");
        let report = crate::RunReport::from_jsonl(&text).unwrap();
        assert!(report.hw_config.unwrap().starts_with(&digest));
    }

    #[test]
    fn replay_rejects_cross_hierarchy_checkpoint() {
        let space = DesignSpace::nacim_cifar10();
        let mut snaps: Vec<crate::Checkpoint> = Vec::new();
        build(space.clone(), cfg(2, 31), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(None, |cp| {
                snaps.push(cp.clone());
                Ok(())
            })
            .unwrap();
        let cp = snaps.pop().unwrap();
        assert_eq!(
            cp.hw_digest.as_deref(),
            Some(HwHierarchy::isaac().digest().as_str()),
            "the default cim run must record the builtin hierarchy digest"
        );
        let mut hw = HwHierarchy::isaac();
        hw.crossbar.adc_share = 4;
        let err = CoDesign::builder(space.clone(), cfg(2, 31))
            .optimizer(OptimizerSpec::ExpertLlm)
            .hw_config(hw)
            .build()
            .unwrap()
            .run_resumable(Some(cp.clone()), |_| Ok(()))
            .unwrap_err();
        match err {
            CoreError::Checkpoint(msg) => assert!(msg.contains("hierarchy"), "{msg}"),
            other => panic!("expected checkpoint error, got {other:?}"),
        }
        // A legacy checkpoint without a digest still resumes.
        let mut legacy = cp;
        legacy.hw_digest = None;
        build(space, cfg(2, 31), OptimizerSpec::ExpertLlm)
            .unwrap()
            .run_resumable(Some(legacy), |_| Ok(()))
            .unwrap();
    }

    #[test]
    fn hw_config_conflicts_with_an_explicit_hardware_evaluator() {
        let space = DesignSpace::nacim_cifar10();
        let err = CoDesign::builder(space.clone(), cfg(2, 1))
            .hardware_evaluator(Box::new(crate::backend::CimBackend::new(space)))
            .hw_config(HwHierarchy::isaac())
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("hardware hierarchy config"),
            "{err}"
        );
    }

    #[test]
    fn panicking_backend_quarantines_the_episode_and_the_run_survives() {
        /// The CiM backend, except that its second cost call panics.
        struct PanicsOnSecondCall {
            inner: crate::backend::CimBackend,
            calls: u32,
        }
        impl HardwareCostEvaluator for PanicsOnSecondCall {
            fn cost(&mut self, design: &CandidateDesign) -> Result<Option<HwMetrics>> {
                self.calls += 1;
                if self.calls == 2 {
                    panic!("mapper overflow");
                }
                self.inner.cost(design)
            }
            fn name(&self) -> &'static str {
                "panics-on-second-call"
            }
        }
        let space = DesignSpace::nacim_cifar10();
        let (journal, buffer) = Journal::in_memory();
        let mut run = CoDesign::builder(space.clone(), cfg(4, 29))
            .optimizer(OptimizerSpec::Random)
            .hardware_evaluator(Box::new(PanicsOnSecondCall {
                inner: crate::backend::CimBackend::new(space),
                calls: 0,
            }))
            .no_cache()
            .journal(journal.clone())
            .build()
            .unwrap();
        let outcome = run.run().unwrap();
        assert_eq!(outcome.history.len(), 4);
        let poisoned: Vec<_> = outcome.history.iter().filter(|r| r.quarantined).collect();
        assert_eq!(poisoned.len(), 1, "exactly the panicked episode");
        assert_eq!(poisoned[0].reward, INVALID_REWARD);
        journal.finish().unwrap();
        let text = buffer.contents();
        assert!(text.contains("\"event\":\"eval_panic\""), "{text}");
        assert!(text.contains("\"event\":\"eval_quarantined\""), "{text}");
    }

    #[test]
    fn legacy_episode_records_deserialize_without_quarantined_field() {
        let json = lcda_base::json::to_string(&EpisodeRecord {
            episode: 0,
            design: DesignSpace::nacim_cifar10().reference_design(),
            accuracy: 0.5,
            hw: None,
            reward: -1.0,
            quarantined: false,
        })
        .replace(",\"quarantined\":false", "");
        let rec: EpisodeRecord = lcda_base::json::from_str(&json).unwrap();
        assert!(!rec.quarantined);
    }
}
