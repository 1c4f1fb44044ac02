//! Conversation transcripts.
//!
//! Every LCDA episode exchanges one prompt and one response with the
//! model. Recording the exchange gives the paper's "explainable NAS"
//! property a concrete artifact: the transcript is human-readable and can
//! be serialized alongside the experiment results.
//!
//! An [`Exchange`] records how its prompt was built, not the prompt text.
//! The Algorithm-1 prompt re-lists every explored design, so keeping each
//! rendered prompt would make a search's memory grow with the square of
//! its episode count. The optimizer that sent the prompt renders it again
//! on demand (`LlmOptimizer::prompt` in `lcda-optim`) from the history
//! prefix and the corrective note the exchange names.

/// One prompt/response exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    /// Episode index this exchange belongs to.
    pub episode: u32,
    /// How many exploration-history entries the prompt was rendered
    /// from. The history is append-only, so this prefix pins the prompt.
    pub history_len: usize,
    /// The corrective `NOTE:` line a retry appended to the prompt, if any.
    pub note: Option<String>,
    /// Length of the rendered prompt in bytes.
    pub prompt_bytes: u64,
    /// The model's raw response text (empty when the call itself failed
    /// before producing any text).
    pub response: String,
    /// Optional model-provided rationale for the proposal.
    pub rationale: Option<String>,
    /// Why the exchange failed, when it did — a parse-error or
    /// model-error note. `None` marks a successful exchange. Failed
    /// exchanges stay in the transcript so audits can see every attempt,
    /// not just the ones that parsed.
    pub error: Option<String>,
}

// Transcripts written before exchanges recorded how their prompt was
// built carry a `prompt` text entry instead; it is ignored, and the
// recipe fields read as their defaults.
lcda_base::impl_json!(struct Exchange {
    episode,
    #[default] history_len,
    #[skip_if = Option::is_none] note,
    #[default] prompt_bytes,
    response,
    rationale,
    #[skip_if = Option::is_none] error,
});

/// An ordered record of every exchange with a model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChatTranscript {
    model: String,
    exchanges: Vec<Exchange>,
}

lcda_base::impl_json!(struct ChatTranscript { model, exchanges });

impl ChatTranscript {
    /// Creates an empty transcript for a named model.
    pub fn new(model: impl Into<String>) -> Self {
        ChatTranscript {
            model: model.into(),
            exchanges: Vec::new(),
        }
    }

    /// The model name this transcript records.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Appends an exchange, failed or not.
    pub fn push(&mut self, exchange: Exchange) {
        self.exchanges.push(exchange);
    }

    /// All exchanges in order.
    pub fn exchanges(&self) -> &[Exchange] {
        &self.exchanges
    }

    /// Only the failed exchanges, in order.
    pub fn failures(&self) -> impl Iterator<Item = &Exchange> {
        self.exchanges.iter().filter(|e| e.error.is_some())
    }

    /// Number of exchanges (== episodes spoken to the model).
    pub fn len(&self) -> usize {
        self.exchanges.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.exchanges.is_empty()
    }

    /// Approximate prompt-token count across the whole transcript,
    /// using the standard ~4 characters/token heuristic. Useful for
    /// reporting search cost in LLM-API terms.
    pub fn approx_prompt_tokens(&self) -> u64 {
        self.exchanges.iter().map(|e| e.prompt_bytes / 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A successful exchange whose `prompt_bytes`-long prompt was
    /// rendered from `episode` history entries.
    fn exchange(episode: u32, prompt_bytes: u64, response: &str) -> Exchange {
        Exchange {
            episode,
            history_len: episode as usize,
            note: None,
            prompt_bytes,
            response: response.to_string(),
            rationale: None,
            error: None,
        }
    }

    fn failed(episode: u32, response: &str, error: &str) -> Exchange {
        Exchange {
            note: Some("NOTE: retry".into()),
            error: Some(error.into()),
            ..exchange(episode, 8, response)
        }
    }

    #[test]
    fn record_and_read_back() {
        let mut t = ChatTranscript::new("sim-llm/pretrained");
        assert!(t.is_empty());
        t.push(exchange(0, 2, "r0"));
        t.push(Exchange {
            rationale: Some("because".into()),
            ..exchange(1, 2, "r1")
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.exchanges()[1].rationale.as_deref(), Some("because"));
        assert_eq!(t.exchanges()[1].history_len, 1);
        assert_eq!(t.model(), "sim-llm/pretrained");
    }

    #[test]
    fn token_estimate() {
        let mut t = ChatTranscript::new("m");
        t.push(exchange(0, 400, "y"));
        t.push(exchange(1, 7, "y"));
        assert_eq!(t.approx_prompt_tokens(), 101);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = ChatTranscript::new("m");
        t.push(Exchange {
            rationale: Some("why".into()),
            ..exchange(0, 1, "r")
        });
        t.push(failed(1, "garbage", "cannot parse llm response"));
        let json = lcda_base::json::to_string(&t);
        let back: ChatTranscript = lcda_base::json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn failed_exchanges_are_kept_and_filterable() {
        let mut t = ChatTranscript::new("m");
        t.push(failed(0, "???", "no brackets"));
        t.push(exchange(0, 1, "[[32,3]]"));
        assert_eq!(t.len(), 2);
        let fails: Vec<_> = t.failures().collect();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].error.as_deref(), Some("no brackets"));
        assert!(t.exchanges()[1].error.is_none());
    }

    #[test]
    fn legacy_transcripts_deserialize_without_error_field() {
        let json = r#"{"model":"m","exchanges":[{"episode":0,"prompt":"p","response":"r","rationale":null}]}"#;
        let t: ChatTranscript = lcda_base::json::from_str(json).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.exchanges()[0].error.is_none());
    }

    #[test]
    fn legacy_prompt_text_is_ignored_and_the_recipe_defaults() {
        let json = r#"{"model":"m","exchanges":[{"episode":3,"prompt":"p","response":"r","rationale":null}]}"#;
        let t: ChatTranscript = lcda_base::json::from_str(json).unwrap();
        assert_eq!(
            t.exchanges()[0],
            Exchange {
                history_len: 0,
                ..exchange(3, 0, "r")
            }
        );
    }
}
