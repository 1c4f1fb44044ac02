use std::fmt;

/// Error type for the co-design framework, wrapping every substrate's
/// error.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// DNN substrate failure.
    Dnn(lcda_dnn::DnnError),
    /// Hardware model failure.
    Neurosim(lcda_neurosim::NeurosimError),
    /// LLM machinery failure.
    Llm(lcda_llm::LlmError),
    /// Optimizer failure.
    Optim(lcda_optim::OptimError),
    /// Variation model failure.
    Variation(lcda_variation::VariationError),
    /// A co-design configuration value was invalid.
    InvalidConfig(String),
    /// A checkpoint could not be written, read, or reconciled with the
    /// current run (e.g. it was produced by a different config/seed and
    /// replay diverged).
    Checkpoint(String),
    /// A run journal could not be written, read, or parsed.
    Journal(String),
    /// An evaluator panicked. The panic was caught at the pipeline
    /// boundary ([`std::panic::catch_unwind`]) and converted into this
    /// typed error so a single poisoned design quarantines instead of
    /// aborting the whole run.
    EvalPanic(String),
    /// The run was cancelled cooperatively (e.g. a served job's cancel
    /// request observed at an episode boundary). Not a fault: the
    /// partial work up to the cancellation point is valid.
    Cancelled(String),
    /// The server's admission queue is full. The caller should back off
    /// and retry; nothing was admitted or mutated.
    Overloaded(String),
    /// A job's wall-clock deadline expired. Enforced cooperatively at
    /// episode boundaries, so the partial work up to the boundary is
    /// valid but the job lands terminally `failed`. Never retried.
    DeadlineExceeded(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Dnn(e) => write!(f, "dnn: {e}"),
            CoreError::Neurosim(e) => write!(f, "hardware model: {e}"),
            CoreError::Llm(e) => write!(f, "llm: {e}"),
            CoreError::Optim(e) => write!(f, "optimizer: {e}"),
            CoreError::Variation(e) => write!(f, "variation: {e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid co-design config: {msg}"),
            CoreError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            CoreError::Journal(msg) => write!(f, "journal: {msg}"),
            CoreError::EvalPanic(msg) => write!(f, "evaluator panicked: {msg}"),
            CoreError::Cancelled(msg) => write!(f, "cancelled: {msg}"),
            CoreError::Overloaded(msg) => write!(f, "server overloaded: {msg}"),
            CoreError::DeadlineExceeded(msg) => write!(f, "deadline_exceeded: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Dnn(e) => Some(e),
            CoreError::Neurosim(e) => Some(e),
            CoreError::Llm(e) => Some(e),
            CoreError::Optim(e) => Some(e),
            CoreError::Variation(e) => Some(e),
            CoreError::InvalidConfig(_)
            | CoreError::Checkpoint(_)
            | CoreError::Journal(_)
            | CoreError::EvalPanic(_)
            | CoreError::Cancelled(_)
            | CoreError::Overloaded(_)
            | CoreError::DeadlineExceeded(_) => None,
        }
    }
}

impl From<lcda_dnn::DnnError> for CoreError {
    fn from(e: lcda_dnn::DnnError) -> Self {
        CoreError::Dnn(e)
    }
}

impl From<lcda_neurosim::NeurosimError> for CoreError {
    fn from(e: lcda_neurosim::NeurosimError) -> Self {
        CoreError::Neurosim(e)
    }
}

impl From<lcda_llm::LlmError> for CoreError {
    fn from(e: lcda_llm::LlmError) -> Self {
        CoreError::Llm(e)
    }
}

impl From<lcda_optim::OptimError> for CoreError {
    fn from(e: lcda_optim::OptimError) -> Self {
        CoreError::Optim(e)
    }
}

impl From<lcda_variation::VariationError> for CoreError {
    fn from(e: lcda_variation::VariationError) -> Self {
        CoreError::Variation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_every_substrate() {
        let errors: Vec<CoreError> = vec![
            lcda_dnn::DnnError::InvalidDataset("x".into()).into(),
            lcda_neurosim::NeurosimError::InvalidConfig("x".into()).into(),
            lcda_llm::LlmError::InvalidChoices("x".into()).into(),
            lcda_optim::OptimError::InvalidConfig("x".into()).into(),
            lcda_variation::VariationError::ZeroTrials.into(),
        ];
        for e in errors {
            assert!(e.source().is_some(), "{e}");
            assert!(!e.to_string().is_empty());
        }
        assert!(CoreError::InvalidConfig("x".into()).source().is_none());
        let e = CoreError::Checkpoint("stale".into());
        assert!(e.source().is_none());
        assert!(e.to_string().contains("checkpoint"));
    }

    #[test]
    fn messages_name_their_kind() {
        assert!(CoreError::EvalPanic("boom".into())
            .to_string()
            .contains("panicked"));
        let c = CoreError::Cancelled("job-3".into());
        assert!(c.source().is_none());
        assert!(c.to_string().contains("cancelled"));
        let o = CoreError::Overloaded("queue full".into());
        assert!(o.source().is_none());
        assert!(o.to_string().contains("overloaded"));
        let d = CoreError::DeadlineExceeded("job-3 after 5s".into());
        assert!(d.source().is_none());
        assert!(d.to_string().contains("deadline_exceeded"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
