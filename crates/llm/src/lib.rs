//! # lcda-llm
//!
//! The LLM machinery of the LCDA reproduction: the Algorithm-1 prompt
//! template, the response parser the design generator uses, and — in place
//! of GPT-4, which is unavailable offline — a deterministic **simulated
//! LLM** ([`sim::SimLlm`]) whose knowledge base encodes exactly the
//! behaviours the paper attributes to the pretrained model:
//!
//! - sensible channel scaling: each layer's output channels ≥ its input
//!   channels, never growing by more than 4× (§IV-A),
//! - well-behaved kernels (no degenerate `(1,7)` shapes): every kernel
//!   choice is square, so this one holds by construction,
//! - **misconception 1**: "larger kernel sizes enhance accuracy" — true in
//!   general but wrong on CiM hardware where larger kernels amplify device
//!   variation (§IV-B),
//! - **misconception 2**: "smaller kernel sizes imply lower latency" —
//!   wrong on crossbars where a 5×5 kernel can under-utilize the array
//!   (§IV-B).
//!
//! The [`sim::SimLlm`] consumes the *rendered prompt text* and returns
//! *response text* that must survive the same parsing path a GPT-4 answer
//! would, so the whole prompt → LLM → parse loop of Algorithm 2 is
//! exercised end to end. A [`persona::Persona`] selects which knowledge
//! the model has: the pretrained corner (with both misconceptions), a
//! fine-tuned corner (the paper's future-work fix), and a naive corner
//! (the Fig.-5 ablation that strips the co-design framing).
//!
//! # Example
//!
//! ```
//! use lcda_llm::design::DesignChoices;
//! use lcda_llm::prompt::PromptBuilder;
//! use lcda_llm::sim::SimLlm;
//! use lcda_llm::persona::Persona;
//! use lcda_llm::parse::parse_design;
//! use lcda_llm::LanguageModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let choices = DesignChoices::nacim_default();
//! let prompt = PromptBuilder::new(&choices).render(&[]);
//! let mut llm = SimLlm::new(Persona::Pretrained, 42);
//! let response = llm.complete(&prompt)?;
//! let design = parse_design(&response, &choices)?;
//! assert_eq!(design.conv.len(), 6);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod adaptive;
pub mod design;
pub mod obs;
pub mod parse;
pub mod persona;
pub mod prompt;
pub mod sim;
pub mod transcript;

pub use error::LlmError;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LlmError>;

/// Anything that can answer a co-design prompt with text.
///
/// Implemented by [`sim::SimLlm`]; a networked GPT-4 client would
/// implement the same trait in a deployment with API access.
pub trait LanguageModel {
    /// Produces the model's textual response to a rendered prompt.
    ///
    /// # Errors
    ///
    /// Returns an error when the prompt is unintelligible to the model
    /// (e.g. no design-space section).
    fn complete(&mut self, prompt: &str) -> Result<String>;

    /// A short model identifier for transcripts.
    fn model_name(&self) -> &str;
}
