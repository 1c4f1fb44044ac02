//! The LLM-driven design optimizer — LCDA's contribution.
//!
//! Wraps any [`LanguageModel`] in the [`Optimizer`] interface by running
//! the Algorithm-1/Algorithm-2 loop: render the prompt from the
//! exploration history, send it to the model, parse the response into a
//! design, retrying on unparseable responses. Every attempt — including
//! failed ones, with their error note — is recorded in a
//! [`ChatTranscript`] so runs are auditable (the paper's "explainable
//! NAS" direction). On a retry the parse error is fed back to the model
//! as a corrective note instead of resending the prompt verbatim.
//!
//! The transcript holds how each prompt was built — the history prefix
//! it was rendered from and the note a retry appended — rather than its
//! text, because a prompt re-lists the whole history and keeping every
//! one would grow a run's memory with the square of its episodes.
//! [`LlmOptimizer::prompt`] renders an exchange's prompt again, byte for
//! byte: the history is append-only, the prompt builder is fixed at
//! construction, and the history selection is a pure function of the
//! prefix.

use crate::{OptimError, Optimizer, Result};
use lcda_llm::design::{CandidateDesign, DesignChoices};
use lcda_llm::obs::{LlmEvent, ObserverHandle};
use lcda_llm::parse::parse_design;
use lcda_llm::prompt::{HistoryEntry, PromptBuilder, PromptObjective};
use lcda_llm::transcript::{ChatTranscript, Exchange};
use lcda_llm::LanguageModel;
use std::borrow::Cow;
use std::fmt;

/// Drives a language model through the co-design loop.
pub struct LlmOptimizer<M> {
    model: M,
    builder: PromptBuilder,
    choices: DesignChoices,
    history: Vec<HistoryEntry>,
    transcript: ChatTranscript,
    max_retries: u32,
    /// When set, the prompt carries at most this many history entries:
    /// the top half by performance plus the most recent ones.
    max_history: Option<usize>,
    episode: u32,
    name: String,
    observer: ObserverHandle,
}

impl<M: fmt::Debug> fmt::Debug for LlmOptimizer<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LlmOptimizer")
            .field("model", &self.model)
            .field("episode", &self.episode)
            .field("history_len", &self.history.len())
            .field("max_retries", &self.max_retries)
            .finish_non_exhaustive()
    }
}

/// Turns a parse error into a single-line corrective note appended
/// to the retried prompt.
///
/// The note must stay a single line and avoid the wire-format prefixes
/// the simulated LLM parses (`design `, `channels:`, …) so feedback
/// never perturbs how a model re-reads the prompt.
fn corrective_note(error: &str) -> String {
    let clean: String = error
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!(
        "NOTE: your previous response could not be used ({clean}). Respond with \
         ONLY the rollout list in the exact format requested above."
    )
}

/// The history entries rendered into a prompt: all of them, or — under
/// a `cap` the history exceeds — the top half of the cap by performance
/// plus the most recent ones, in history order.
fn prompt_history(history: &[HistoryEntry], cap: Option<usize>) -> Cow<'_, [HistoryEntry]> {
    let Some(cap) = cap.filter(|&cap| history.len() > cap) else {
        return Cow::Borrowed(history);
    };
    let keep_best = cap / 2;
    let keep_recent = cap - keep_best;
    // Indices of the top performers…
    let mut by_perf: Vec<usize> = (0..history.len()).collect();
    by_perf.sort_by(|&a, &b| history[b].performance.total_cmp(&history[a].performance));
    let mut keep: Vec<usize> = by_perf.into_iter().take(keep_best).collect();
    // …plus the most recent entries.
    keep.extend(history.len() - keep_recent..history.len());
    keep.sort_unstable();
    keep.dedup();
    Cow::Owned(keep.into_iter().map(|i| history[i].clone()).collect())
}

/// A rendered prompt with a retry's corrective note appended.
fn with_note(prompt: &str, note: &str) -> String {
    format!("{prompt}\n\n{note}")
}

impl<M: LanguageModel> LlmOptimizer<M> {
    /// Creates the optimizer with the default retry budget (3 attempts
    /// per episode, matching how loosely real LLM output follows format
    /// instructions).
    pub fn new(model: M, choices: DesignChoices, objective: PromptObjective) -> Self {
        let name = format!("lcda/{}", model.model_name());
        let transcript = ChatTranscript::new(model.model_name());
        LlmOptimizer {
            builder: PromptBuilder::new(&choices).objective(objective),
            model,
            choices,
            history: Vec::new(),
            transcript,
            max_retries: 3,
            max_history: None,
            episode: 0,
            name,
            observer: ObserverHandle::none(),
        }
    }

    /// Installs an observer notified of every prompt and parse failure.
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Overrides the per-episode parse retry budget.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries.max(1);
        self
    }

    /// Caps the history entries rendered into each prompt — real LLM
    /// context windows are finite, and GENIUS-style loops keep the prompt
    /// bounded by showing the best results plus the freshest ones. The cap
    /// keeps half the budget for the top performers and half for recency.
    pub fn max_history(mut self, entries: usize) -> Self {
        self.max_history = Some(entries.max(2));
        self
    }

    /// Renders the prompt over the first `history_len` history entries.
    fn render(&self, history_len: usize) -> String {
        self.builder.render(&prompt_history(
            &self.history[..history_len],
            self.max_history,
        ))
    }

    /// The recorded conversation. Its exchanges name how each prompt was
    /// built; [`LlmOptimizer::prompt`] renders the text.
    pub fn transcript(&self) -> &ChatTranscript {
        &self.transcript
    }

    /// The exact prompt this optimizer sent in `exchange`, rendered again
    /// from the history prefix it names plus its corrective note.
    ///
    /// # Panics
    ///
    /// Panics when `exchange` names more history than this optimizer
    /// holds, i.e. it was not recorded by this optimizer.
    pub fn prompt(&self, exchange: &Exchange) -> String {
        let prompt = self.render(exchange.history_len);
        match &exchange.note {
            Some(note) => with_note(&prompt, note),
            None => prompt,
        }
    }

    /// The exploration history (`l_des` / `l_perf`).
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// Access to the underlying model (e.g. to read rationales).
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: LanguageModel> Optimizer for LlmOptimizer<M> {
    fn propose(&mut self) -> Result<CandidateDesign> {
        let history_len = self.history.len();
        let base_prompt = self.render(history_len);
        let mut feedback: Option<String> = None;
        let mut last_error = String::new();
        for attempt in 0..self.max_retries {
            // Retries carry the previous failure back to the model as a
            // corrective note instead of resending the prompt verbatim.
            let prompt = match &feedback {
                Some(note) => Cow::Owned(with_note(&base_prompt, note)),
                None => Cow::Borrowed(base_prompt.as_str()),
            };
            self.observer.emit(LlmEvent::Prompt {
                episode: self.episode,
                attempt,
                chars: prompt.len() as u64,
            });
            let sent = Exchange {
                episode: self.episode,
                history_len,
                note: feedback.clone(),
                prompt_bytes: prompt.len() as u64,
                response: String::new(),
                rationale: None,
                error: None,
            };
            match self.model.complete(&prompt) {
                Ok(response) => match parse_design(&response, &self.choices) {
                    Ok(design) => {
                        self.transcript.push(Exchange { response, ..sent });
                        self.episode += 1;
                        return Ok(design);
                    }
                    Err(e) => {
                        last_error = e.to_string();
                        self.observer.emit(LlmEvent::ParseFailure {
                            episode: self.episode,
                            error: last_error.clone(),
                        });
                        self.transcript.push(Exchange {
                            response,
                            error: Some(last_error.clone()),
                            ..sent
                        });
                        feedback = Some(corrective_note(&last_error));
                    }
                },
                // A model error is a hard error: propagate immediately.
                Err(e) => {
                    self.transcript.push(Exchange {
                        error: Some(e.to_string()),
                        ..sent
                    });
                    return Err(OptimError::Llm(e));
                }
            }
        }
        Err(OptimError::LlmRetriesExhausted {
            attempts: self.max_retries,
            last_error,
        })
    }

    fn observe(&mut self, design: &CandidateDesign, reward: f64) -> Result<()> {
        if !reward.is_finite() {
            return Err(OptimError::NonFiniteReward {
                value: format!("{reward}"),
            });
        }
        self.choices.contains(design)?;
        self.history.push(HistoryEntry {
            design: design.clone(),
            performance: reward,
        });
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn transcript(&self) -> Option<&ChatTranscript> {
        Some(&self.transcript)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcda_llm::persona::Persona;
    use lcda_llm::sim::SimLlm;
    use lcda_llm::LlmError;

    fn make() -> LlmOptimizer<SimLlm> {
        LlmOptimizer::new(
            SimLlm::new(Persona::Pretrained, 1),
            DesignChoices::nacim_default(),
            PromptObjective::AccuracyEnergy,
        )
    }

    #[test]
    fn propose_observe_loop() {
        let mut opt = make();
        for ep in 0..8 {
            let d = opt.propose().unwrap();
            opt.observe(&d, ep as f64 * 0.1).unwrap();
        }
        assert_eq!(opt.history().len(), 8);
        assert_eq!(opt.transcript().len(), 8);
        // History should appear in the next prompt.
        let prompt = opt.builder.render(opt.history());
        assert!(prompt.contains("perf: 0.700000"));
    }

    #[test]
    fn transcript_records_prompts_and_responses() {
        let mut opt = make();
        let d = opt.propose().unwrap();
        opt.observe(&d, 0.3).unwrap();
        let ex = &opt.transcript().exchanges()[0];
        assert!(opt.prompt(ex).contains("objective: accuracy-energy"));
        assert!(ex.response.contains("[["));
    }

    #[test]
    fn observe_rejects_out_of_space_design() {
        let mut opt = make();
        let mut d = opt.propose().unwrap();
        d.hw.xbar_size = 4096;
        assert!(opt.observe(&d, 0.0).is_err());
    }

    /// A model that always answers garbage: the retry budget must be
    /// exhausted and surfaced as an error, not a panic or a loop.
    struct BrokenModel;
    impl LanguageModel for BrokenModel {
        fn complete(&mut self, _prompt: &str) -> lcda_llm::Result<String> {
            Ok("I am sorry, I cannot help with that.".to_string())
        }
        fn model_name(&self) -> &str {
            "broken"
        }
    }

    #[test]
    fn unparseable_responses_exhaust_retries() {
        let mut opt = LlmOptimizer::new(
            BrokenModel,
            DesignChoices::nacim_default(),
            PromptObjective::AccuracyEnergy,
        );
        match opt.propose() {
            Err(OptimError::LlmRetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected retries exhausted, got {other:?}"),
        }
    }

    /// A model that errors outright (e.g. API failure): propagate.
    struct FailingModel;
    impl LanguageModel for FailingModel {
        fn complete(&mut self, _prompt: &str) -> lcda_llm::Result<String> {
            Err(LlmError::UnintelligiblePrompt("offline".into()))
        }
        fn model_name(&self) -> &str {
            "failing"
        }
    }

    #[test]
    fn model_errors_propagate() {
        let mut opt = LlmOptimizer::new(
            FailingModel,
            DesignChoices::nacim_default(),
            PromptObjective::AccuracyEnergy,
        );
        assert!(matches!(opt.propose(), Err(OptimError::Llm(_))));
    }

    #[test]
    fn name_includes_model() {
        let opt = make();
        assert_eq!(opt.name(), "lcda/sim-llm/pretrained");
    }

    #[test]
    fn history_cap_keeps_best_and_recent() {
        let mut opt = make().max_history(6);
        for ep in 0..16u32 {
            let d = opt.propose().unwrap();
            // Episode 3 gets a standout reward; later ones mediocre.
            let reward = if ep == 3 { 5.0 } else { f64::from(ep) * 0.01 };
            opt.observe(&d, reward).unwrap();
        }
        let rendered = prompt_history(opt.history(), opt.max_history);
        assert!(rendered.len() <= 6);
        // The standout entry survives truncation…
        assert!(rendered.iter().any(|h| (h.performance - 5.0).abs() < 1e-9));
        // …and so does the most recent one.
        assert!(rendered.iter().any(|h| (h.performance - 0.15).abs() < 1e-9));
        // Full history is still tracked internally.
        assert_eq!(opt.history().len(), 16);
    }

    #[test]
    fn history_cap_is_noop_below_capacity() {
        let mut opt = make().max_history(10);
        for _ in 0..4 {
            let d = opt.propose().unwrap();
            opt.observe(&d, 0.1).unwrap();
        }
        let rendered = prompt_history(opt.history(), opt.max_history);
        assert!(matches!(rendered, Cow::Borrowed(_)));
        assert_eq!(rendered.len(), 4);
    }

    /// Answers garbage on the scripted call indices and delegates every
    /// other call to `inner`.
    struct Scripted<M> {
        inner: M,
        garbage_at: &'static [u64],
        calls: u64,
    }
    impl<M> Scripted<M> {
        fn new(inner: M, garbage_at: &'static [u64]) -> Self {
            Scripted {
                inner,
                garbage_at,
                calls: 0,
            }
        }
    }
    impl<M: LanguageModel> LanguageModel for Scripted<M> {
        fn complete(&mut self, prompt: &str) -> lcda_llm::Result<String> {
            let call = self.calls;
            self.calls += 1;
            if self.garbage_at.contains(&call) {
                return Ok("I am sorry, I cannot help with that.".to_string());
            }
            self.inner.complete(prompt)
        }
        fn model_name(&self) -> &str {
            "scripted"
        }
    }

    #[test]
    fn failed_attempts_are_recorded_with_error_notes() {
        let mut opt = LlmOptimizer::new(
            Scripted::new(SimLlm::new(Persona::Pretrained, 1), &[0]),
            DesignChoices::nacim_default(),
            PromptObjective::AccuracyEnergy,
        );
        let d = opt.propose().unwrap();
        assert_eq!(d.conv.len(), 6);
        // Both the failed and the successful attempt are in the transcript.
        assert_eq!(opt.transcript().len(), 2);
        let fails: Vec<_> = opt.transcript().failures().collect();
        assert_eq!(fails.len(), 1);
        assert!(fails[0].error.as_deref().unwrap().contains("cannot parse"));
        assert!(fails[0].response.contains("sorry"));
        // Both attempts carry the same episode tag.
        assert_eq!(opt.transcript().exchanges()[0].episode, 0);
        assert_eq!(opt.transcript().exchanges()[1].episode, 0);
    }

    #[test]
    fn retry_prompt_carries_corrective_feedback() {
        let mut opt = LlmOptimizer::new(
            Scripted::new(SimLlm::new(Persona::Pretrained, 1), &[0]),
            DesignChoices::nacim_default(),
            PromptObjective::AccuracyEnergy,
        );
        opt.propose().unwrap();
        let exchanges = opt.transcript().exchanges();
        let (first, retry) = (opt.prompt(&exchanges[0]), opt.prompt(&exchanges[1]));
        assert!(!first.contains("NOTE:"));
        assert!(retry.contains("NOTE:"));
        assert!(retry.contains("could not be used"));
        // The note stays on one line so it cannot collide with the
        // prompt wire format.
        let note_lines = retry.lines().filter(|l| l.starts_with("NOTE:")).count();
        assert_eq!(note_lines, 1);
    }

    /// Keeps every prompt it receives, then answers through `inner`.
    struct Recorder<M> {
        inner: M,
        sent: Vec<String>,
    }
    impl<M: LanguageModel> LanguageModel for Recorder<M> {
        fn complete(&mut self, prompt: &str) -> lcda_llm::Result<String> {
            self.sent.push(prompt.to_string());
            self.inner.complete(prompt)
        }
        fn model_name(&self) -> &str {
            self.inner.model_name()
        }
    }

    #[test]
    fn rendered_prompts_equal_the_sent_prompts_byte_for_byte() {
        // Call 0 fails to parse once; calls 4–5 fail twice in a row, so
        // the second retry is sent with the first retry's note pending.
        let model = Recorder {
            inner: Scripted::new(SimLlm::new(Persona::Pretrained, 3), &[0, 4, 5]),
            sent: Vec::new(),
        };
        let mut opt = LlmOptimizer::new(
            model,
            DesignChoices::nacim_default(),
            PromptObjective::AccuracyEnergy,
        )
        .max_history(4);
        for ep in 0..12u32 {
            let d = opt.propose().unwrap();
            // Non-monotone rewards so the capped selection keeps old
            // top performers next to the recent entries.
            opt.observe(&d, f64::from((ep * 7) % 5) * 0.1).unwrap();
        }

        let sent = &opt.model().sent;
        let exchanges = opt.transcript().exchanges();
        assert_eq!(exchanges.len(), sent.len());
        for (i, (ex, prompt)) in exchanges.iter().zip(sent).enumerate() {
            assert_eq!(
                opt.prompt(ex),
                *prompt,
                "exchange {i} re-renders differently"
            );
            assert_eq!(ex.prompt_bytes, prompt.len() as u64);
        }
        let total_tokens: u64 = sent.iter().map(|p| p.len() as u64 / 4).sum();
        assert_eq!(opt.transcript().approx_prompt_tokens(), total_tokens);
        // The run covered every way a prompt is built: first attempts,
        // retries whose own answer failed again, and a capped history.
        let failures: Vec<_> = opt.transcript().failures().collect();
        assert_eq!(failures.len(), 3);
        assert!(failures
            .iter()
            .all(|e| e.error.as_deref().unwrap().contains("cannot parse")));
        assert!(exchanges
            .iter()
            .any(|e| e.note.is_some() && e.error.is_some()));
        assert!(exchanges.iter().any(|e| e.history_len > 4));
    }

    #[test]
    fn corrective_note_is_single_line() {
        let note = corrective_note("bad\r\nmultiline\nerror");
        assert!(!note.contains('\n'));
        assert!(!note.contains('\r'));
        assert!(note.starts_with("NOTE:"));
    }

    #[test]
    fn observe_rejects_non_finite_rewards() {
        let mut opt = make();
        let d = opt.propose().unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match opt.observe(&d, bad) {
                Err(OptimError::NonFiniteReward { .. }) => {}
                other => panic!("expected NonFiniteReward, got {other:?}"),
            }
        }
        assert!(opt.history().is_empty());
        opt.observe(&d, 0.25).unwrap();
        assert_eq!(opt.history().len(), 1);
    }

    #[test]
    fn trait_transcript_accessor_works_through_dyn() {
        let opt = make();
        let boxed: Box<dyn Optimizer> = Box::new(opt);
        assert!(boxed.transcript().is_some());
        use crate::random::RandomOptimizer;
        let rand: Box<dyn Optimizer> =
            Box::new(RandomOptimizer::new(DesignChoices::nacim_default(), 1));
        assert!(rand.transcript().is_none());
    }
}
