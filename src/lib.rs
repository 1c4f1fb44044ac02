//! # lcda
//!
//! Facade crate for the LCDA reproduction — *On the Viability of Using LLMs
//! for SW/HW Co-Design: An Example in Designing CiM DNN Accelerators*
//! (SOCC 2023).
//!
//! This crate re-exports the public API of every subsystem so downstream
//! users can depend on a single crate:
//!
//! - [`tensor`] — dense tensor engine with explicit backward passes,
//! - [`dnn`] — CNN layers, noise-injection training, Monte-Carlo accuracy,
//! - [`variation`] — NVM device variation models and Monte-Carlo engine,
//! - [`neurosim`] — NeuroSim-style CiM accelerator cost macro model,
//! - [`llm`] — prompt rendering, response parsing and the simulated LLM,
//! - [`optim`] — RL (NACIM), genetic, random and LLM design optimizers,
//! - [`core`] — the LCDA co-design loop, reward functions and analysis.
//!
//! # Quickstart
//!
//! ```
//! use lcda::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = DesignSpace::nacim_cifar10();
//! let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
//!     .episodes(5)
//!     .seed(42)
//!     .build();
//! let mut run = CoDesign::builder(space, config)
//!     .optimizer(OptimizerSpec::ExpertLlm)
//!     .build()?;
//! let outcome = run.run()?;
//! assert_eq!(outcome.history.len(), 5);
//! println!("best reward {:.3}", outcome.best.reward);
//! # Ok(())
//! # }
//! ```

pub use lcda_core as core;
pub use lcda_dnn as dnn;
pub use lcda_llm as llm;
pub use lcda_neurosim as neurosim;
pub use lcda_optim as optim;
pub use lcda_tensor as tensor;
pub use lcda_variation as variation;

pub mod prelude {
    //! One-stop imports for driving a co-design run.
    //!
    //! ```
    //! use lcda::prelude::*;
    //! ```
    pub use lcda_core::backend::{
        BackendRegistry, BackendSpec, BackendSpecError, CimBackend, HardwareBackend,
        DEFAULT_BACKEND,
    };
    pub use lcda_core::cache::{CacheSession, CacheStore, SessionStats, StoreStats};
    pub use lcda_core::checkpoint::{Checkpoint, CheckpointStore};
    pub use lcda_core::codesign::{
        CoDesign, CoDesignBuilder, CoDesignConfig, EpisodeRecord, OptimizerSpec, Outcome,
    };
    pub use lcda_core::evaluate::{AccuracyEvaluator, HardwareCostEvaluator, HwMetrics};
    pub use lcda_core::journal::{Journal, JournalEvent, JournalRecord, RunReport};
    pub use lcda_core::pipeline::{CacheStats, EvalCache, EvalPipeline};
    pub use lcda_core::reward::Objective;
    pub use lcda_core::serve::{JobId, JobServer, JobSpec, JobState, ServeConfig};
    pub use lcda_core::space::DesignSpace;
    pub use lcda_core::surrogate::SurrogateEvaluator;
    pub use lcda_core::trained::{TrainedEvalConfig, TrainedEvaluator};
    pub use lcda_dnn::mc_eval::{McEvalConfig, Precision};
    pub use lcda_llm::design::CandidateDesign;
}
