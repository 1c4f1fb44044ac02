//! # lcda-core
//!
//! The LCDA framework (Yan et al., SOCC 2023): LLM-driven software/
//! hardware co-design of compute-in-memory DNN accelerators.
//!
//! Like every co-design framework the paper surveys, LCDA has four
//! components (§III):
//!
//! 1. **design optimizer** — any [`lcda_optim::Optimizer`]; the paper's
//!    contribution plugs an LLM in via `lcda_optim::llm_opt::LlmOptimizer`,
//! 2. **design generator** — [`space::DesignSpace`], turning a parsed
//!    candidate into a trainable [`lcda_dnn::arch::Architecture`]; each
//!    hardware backend owns its own lowering from there,
//! 3. **DNN performance evaluator** — [`evaluate::AccuracyEvaluator`]
//!    implementations: the fast calibrated [`surrogate::SurrogateEvaluator`]
//!    and the real [`trained::TrainedEvaluator`] (noise-injection training
//!    plus Monte-Carlo evaluation, §III-C),
//! 4. **hardware cost evaluator** — the NeuroSim-style
//!    [`backend::CimBackend`] macro model of §III-D, on an optional
//!    [`hwconfig::HwHierarchy`] (any other
//!    [`evaluate::HardwareCostEvaluator`] plugs in through
//!    [`codesign::CoDesignBuilder::hardware_evaluator`]).
//!
//! [`codesign::CoDesign`] wires them into the Algorithm-2 episode loop;
//! [`reward`] provides Eq. 1 and Eq. 2; [`pareto`] and [`analysis`]
//! post-process the exploration history into the paper's figures and the
//! 25× speedup headline.
//!
//! # Example
//!
//! ```
//! use lcda_core::{CoDesign, CoDesignConfig, Objective};
//! use lcda_core::space::DesignSpace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use lcda_core::codesign::OptimizerSpec;
//!
//! let space = DesignSpace::nacim_cifar10();
//! let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
//!     .episodes(4)
//!     .seed(7)
//!     .build();
//! let mut run = CoDesign::builder(space, config)
//!     .optimizer(OptimizerSpec::ExpertLlm)
//!     .build()?;
//! let outcome = run.run()?;
//! assert_eq!(outcome.history.len(), 4);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
// A panic inside the episode loop is a crashed search, so fallible code
// must surface typed `CoreError`s instead of unwrapping. Tests are
// exempt (an unwrap there *is* the assertion); the single sanctioned
// production `expect` carries its own `#[allow]` with a justification.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod error;

pub mod analysis;
pub mod backend;
pub mod cache;
pub mod checkpoint;
pub mod codesign;
pub mod durable;
pub mod evaluate;
pub mod hwconfig;
mod identity;
pub mod journal;
pub mod mo;
pub mod pareto;
pub mod pipeline;
pub mod reward;
pub mod serve;
pub mod space;
pub mod surrogate;
pub mod trained;
pub mod wal;

pub use backend::{BackendRegistry, CimBackend, DEFAULT_BACKEND};
pub use cache::{CacheSession, CacheStore, SessionStats, StoreStats};
pub use checkpoint::{Checkpoint, CheckpointStore};
pub use codesign::{
    CoDesign, CoDesignBuilder, CoDesignConfig, CoDesignConfigBuilder, EpisodeRecord, OptimizerSpec,
    Outcome,
};
pub use error::CoreError;
pub use hwconfig::{ChipTier, CoreTier, CrossbarTier, DeviceTier, HwHierarchy, NocKind, NocSpec};
pub use journal::{Journal, JournalEvent, JournalRecord, RunReport};
pub use pipeline::{CacheStats, EvalPipeline};
pub use reward::Objective;
pub use serve::{JobId, JobServer, JobSpec, JobState, JobStatus, ServeConfig, ServerStats};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Locks `mutex`, recovering the guard when a panicking holder poisoned
/// it: a job or evaluator panic that serve or the pipeline caught must
/// not wedge the tables behind the lock.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let table = std::sync::Mutex::new(vec![1]);
        let caught = std::panic::catch_unwind(|| {
            let _guard = table.lock().unwrap();
            panic!("a job panics while holding the table");
        });
        assert!(caught.is_err());
        assert!(table.is_poisoned());
        super::lock(&table).push(2);
        assert_eq!(*super::lock(&table), [1, 2]);
    }
}
