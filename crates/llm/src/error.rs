use std::fmt;

/// Error type for prompt rendering, parsing and the simulated LLM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlmError {
    /// A response could not be parsed into a design.
    ParseResponse {
        /// What went wrong.
        reason: String,
        /// A snippet of the offending text.
        snippet: String,
    },
    /// A design space description was empty or inconsistent.
    InvalidChoices(String),
    /// A parsed design referenced options outside the design space.
    OutOfSpace(String),
    /// The prompt handed to the model was missing required sections.
    UnintelligiblePrompt(String),
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::ParseResponse { reason, snippet } => {
                write!(f, "cannot parse llm response ({reason}) near `{snippet}`")
            }
            LlmError::InvalidChoices(msg) => write!(f, "invalid design choices: {msg}"),
            LlmError::OutOfSpace(msg) => write!(f, "design outside search space: {msg}"),
            LlmError::UnintelligiblePrompt(msg) => write!(f, "unintelligible prompt: {msg}"),
        }
    }
}

impl std::error::Error for LlmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = LlmError::ParseResponse {
            reason: "no brackets".into(),
            snippet: "hello".into(),
        };
        assert!(e.to_string().contains("cannot parse"));
        assert!(LlmError::OutOfSpace("k=9".into())
            .to_string()
            .contains("outside"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<LlmError>();
    }
}
