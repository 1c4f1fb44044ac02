//! # lcda-optim
//!
//! Design optimizers for the LCDA co-design loop (§III-A):
//!
//! - [`llm_opt::LlmOptimizer`] — the paper's contribution: drive a
//!   [`lcda_llm::LanguageModel`] through the Algorithm-1 prompt → response
//!   → parse cycle,
//! - [`rl::RlOptimizer`] — the NACIM baseline: a REINFORCE controller
//!   with per-decision categorical policies, a moving-average baseline and
//!   an entropy floor. Cold-starts from a uniform policy — the very
//!   behaviour LCDA is designed to bypass,
//! - [`genetic::GeneticOptimizer`] — a tournament-selection genetic
//!   algorithm (the other optimizer family the paper cites),
//! - [`nsga::Nsga2Optimizer`] — full NSGA-II multi-objective search
//!   (non-dominated sorting + crowding distance, NSGA-Net style),
//! - [`random::RandomOptimizer`] — uniform random search, the floor any
//!   method must beat.
//!
//! All optimizers implement [`Optimizer`]: `propose` a design, `observe`
//! its scalar reward, repeat.
//!
//! # Example
//!
//! ```
//! use lcda_llm::design::DesignChoices;
//! use lcda_optim::{Optimizer, random::RandomOptimizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let choices = DesignChoices::nacim_default();
//! let mut opt = RandomOptimizer::new(choices, 1);
//! let design = opt.propose()?;
//! opt.observe(&design, 0.5)?;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
// Same contract as lcda-core: an optimizer panic kills the whole search,
// so production code surfaces typed `OptimError`s instead of
// unwrapping. Tests are exempt (an unwrap there *is* the assertion).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod error;

pub mod genetic;
pub mod llm_opt;
pub mod nsga;
pub mod random;
pub mod rl;

pub use error::OptimError;

use lcda_llm::design::CandidateDesign;
use lcda_llm::transcript::ChatTranscript;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, OptimError>;

/// A sequential design optimizer: propose → evaluate → observe.
pub trait Optimizer {
    /// Proposes the next design to evaluate.
    ///
    /// # Errors
    ///
    /// Returns an error when the optimizer cannot produce a design (e.g.
    /// an LLM response repeatedly fails to parse).
    fn propose(&mut self) -> Result<CandidateDesign>;

    /// Feeds back the scalar reward of an evaluated design (−1 for
    /// invalid hardware, per the paper's prompt contract).
    ///
    /// # Errors
    ///
    /// Returns an error when the design cannot be attributed (e.g. it is
    /// outside the optimizer's space).
    fn observe(&mut self, design: &CandidateDesign, reward: f64) -> Result<()>;

    /// A short, stable name for reports.
    fn name(&self) -> &str;

    /// The conversation transcript, for optimizers that talk to a model.
    ///
    /// Defaults to `None`; [`llm_opt::LlmOptimizer`] overrides it. Lets
    /// reports read the exchanges — how each prompt was built, the
    /// responses and error notes — through a `Box<dyn Optimizer>` without
    /// downcasting; [`llm_opt::LlmOptimizer::prompt`] renders a prompt's
    /// text. Checkpoints do not store it: replay rebuilds it.
    fn transcript(&self) -> Option<&ChatTranscript> {
        None
    }
}
