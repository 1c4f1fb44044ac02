//! The deterministic simulated LLM standing in for GPT-4.
//!
//! `SimLlm` is text-in, text-out: it receives the rendered Algorithm-1
//! prompt, *parses* the design space, objective marker and exploration
//! history back out of the text (exactly the information a real LLM would
//! read), applies its persona's knowledge base to generate a next design,
//! and returns response text in the format the prompt requested —
//! sometimes wrapped in a little prose, because real models rarely obey
//! "do not include anything else" perfectly and the parser must cope.
//!
//! The proposal policy is the paper's description of GPT-4's observed
//! behaviour made explicit: start from a heuristically sensible prior,
//! then hill-climb around the best explored design through
//! knowledge-filtered local mutations, ranked by the persona's *believed*
//! score (including its misconceptions).

use crate::design::{CandidateDesign, DesignChoices};
use crate::parse::parse_history;
use crate::persona::{KnowledgeBase, Persona};
use crate::prompt::PromptObjective;
use crate::{LanguageModel, LlmError, Result};
use lcda_base::rng::Rng;
use std::collections::HashSet;

/// The simulated language model.
#[derive(Debug)]
pub struct SimLlm {
    knowledge: KnowledgeBase,
    rng: Rng,
    name: String,
    last_rationale: Option<String>,
    /// Input channels of the backbone (3 for CIFAR) used by the
    /// feasibility rules.
    in_channels: u32,
}

impl SimLlm {
    /// Creates a simulated LLM with the given persona and seed.
    pub fn new(persona: Persona, seed: u64) -> Self {
        SimLlm {
            knowledge: persona.knowledge(),
            rng: Rng::new(seed),
            name: format!("sim-llm/{}", persona.name()),
            last_rationale: None,
            in_channels: 3,
        }
    }

    /// The persona in use.
    pub fn persona(&self) -> Persona {
        self.knowledge.persona()
    }

    /// The explanation of the most recent proposal — the paper's
    /// "explainable NAS" future-work feature: design changes between
    /// episodes are human-readable and the model can justify them.
    pub fn last_rationale(&self) -> Option<&str> {
        self.last_rationale.as_deref()
    }

    /// Detects the objective marker in a prompt.
    fn detect_objective(prompt: &str) -> Result<PromptObjective> {
        if prompt.contains("objective: accuracy-energy") {
            Ok(PromptObjective::AccuracyEnergy)
        } else if prompt.contains("objective: accuracy-latency") {
            Ok(PromptObjective::AccuracyLatency)
        } else if prompt.contains("objective: generic") {
            Ok(PromptObjective::Naive)
        } else {
            Err(LlmError::UnintelligiblePrompt(
                "no objective marker found".to_string(),
            ))
        }
    }

    fn mutations(&self, base: &CandidateDesign, choices: &DesignChoices) -> Vec<CandidateDesign> {
        neighborhood(base, choices)
    }

    /// Uniformly random design (the naive persona's exploration move).
    fn random_design(&mut self, choices: &DesignChoices) -> CandidateDesign {
        let idx: Vec<usize> = (0..choices.slot_count())
            .map(|s| self.rng.index(choices.slot_options(s)))
            .collect();
        choices
            .decode(&idx)
            .expect("indices in range by construction")
    }

    /// The core proposal routine.
    fn propose(
        &mut self,
        choices: &DesignChoices,
        history: &[(CandidateDesign, f64)],
        objective: PromptObjective,
    ) -> CandidateDesign {
        let explored: HashSet<&CandidateDesign> = history.iter().map(|(d, _)| d).collect();

        // Cold-start: the expert personas open with their textbook prior;
        // the naive persona guesses.
        if history.is_empty() {
            let d = if self.persona() == Persona::Naive {
                self.random_design(choices)
            } else {
                self.knowledge.prior_design(choices)
            };
            self.last_rationale = Some(format!(
                "opening proposal from prior knowledge: monotone channel ramp with \
                 preferred kernels ({} persona)",
                self.persona().name()
            ));
            return d;
        }

        // Anchor on the best explored design.
        let best = history
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(d, _)| d.clone())
            .expect("history non-empty");

        // Candidate pool: local mutations of the best design (plus, for the
        // naive persona, pure random jumps).
        let mut pool = self.mutations(&best, choices);
        if self.persona() == Persona::Naive {
            for _ in 0..8 {
                let d = self.random_design(choices);
                pool.push(d);
            }
        }
        pool.retain(|d| !explored.contains(d));
        pool.retain(|d| self.knowledge.acceptable(d, self.in_channels));

        if pool.is_empty() {
            // Deterministic fallback: random unexplored feasible design.
            for _ in 0..256 {
                let d = self.random_design(choices);
                if !explored.contains(&d) && self.knowledge.acceptable(&d, self.in_channels) {
                    self.last_rationale = Some(
                        "local neighbourhood exhausted; jumping to a fresh feasible design"
                            .to_string(),
                    );
                    return d;
                }
            }
            self.last_rationale = Some("space exhausted; repeating best design".to_string());
            return best;
        }

        // Rank by believed score with a pinch of tie-breaking noise.
        let mut scored: Vec<(f64, CandidateDesign)> = pool
            .into_iter()
            .map(|d| {
                let s = self.knowledge.believed_score(&d, objective)
                    + self.rng.uniform_f64(-0.01, 0.01);
                (s, d)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let chosen = scored[0].1.clone();
        self.last_rationale = Some(self.rationale(&best, &chosen, objective));
        chosen
    }

    /// Human-readable justification of a move from `from` to `to`.
    fn rationale(
        &self,
        from: &CandidateDesign,
        to: &CandidateDesign,
        objective: PromptObjective,
    ) -> String {
        let mut parts = Vec::new();
        for (i, (a, b)) in from.conv.iter().zip(&to.conv).enumerate() {
            if a.channels != b.channels {
                parts.push(format!(
                    "layer {i}: channels {} -> {} ({})",
                    a.channels,
                    b.channels,
                    if b.channels > a.channels {
                        "wider layers generally achieve higher accuracy"
                    } else {
                        "narrowing to cut hardware cost"
                    }
                ));
            }
            if a.kernel != b.kernel {
                let why = match (self.persona(), objective) {
                    (Persona::Pretrained, _) if b.kernel > a.kernel => {
                        "larger kernel sizes enhance accuracy"
                    }
                    (Persona::Pretrained, PromptObjective::AccuracyLatency) => {
                        "smaller kernel sizes imply lower latency"
                    }
                    (Persona::FineTuned, _) => {
                        "keeping kernels in high-utilization, low-variation shapes"
                    }
                    _ => "exploring kernel size",
                };
                parts.push(format!(
                    "layer {i}: kernel {} -> {} ({why})",
                    a.kernel, b.kernel
                ));
            }
        }
        if from.hw != to.hw {
            parts.push(format!(
                "hardware: xbar {} -> {}, adc {} -> {}, cell {} -> {}, tech {} -> {}",
                from.hw.xbar_size,
                to.hw.xbar_size,
                from.hw.adc_bits,
                to.hw.adc_bits,
                from.hw.cell_bits,
                to.hw.cell_bits,
                from.hw.tech,
                to.hw.tech
            ));
        }
        if parts.is_empty() {
            "proposing the anchor design again".to_string()
        } else {
            parts.join("; ")
        }
    }
}

impl LanguageModel for SimLlm {
    fn complete(&mut self, prompt: &str) -> Result<String> {
        let objective = Self::detect_objective(prompt)?;
        let choices = parse_choices(prompt)?;
        let history = parse_history(prompt, &choices);
        let design = self.propose(&choices, &history, objective);
        // Real models sometimes ignore "respond with the list only"; vary
        // the dressing deterministically so the tolerant parser is
        // exercised end to end.
        let dressing = self.rng.below(3);
        Ok(match dressing {
            0 => design.to_response_text(),
            1 => format!("Based on the results so far, I suggest: {design}"),
            _ => format!("{design}\n\nThis should improve the performance further."),
        })
    }

    fn model_name(&self) -> &str {
        &self.name
    }
}

/// Parses the design-space section out of a rendered prompt (the simulated
/// LLM's "reading comprehension").
///
/// # Errors
///
/// Returns [`LlmError::UnintelligiblePrompt`] when a required line is
/// missing or malformed.
pub fn parse_choices(prompt: &str) -> Result<DesignChoices> {
    fn find_list(prompt: &str, key: &str) -> Result<Vec<String>> {
        for line in prompt.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix(key) {
                let rest = rest.trim();
                let open = rest.find('[').ok_or_else(|| {
                    LlmError::UnintelligiblePrompt(format!("{key} line has no list"))
                })?;
                let close = rest.rfind(']').ok_or_else(|| {
                    LlmError::UnintelligiblePrompt(format!("{key} line unterminated"))
                })?;
                return Ok(rest[open + 1..close]
                    .split(',')
                    .map(|s| s.trim().trim_matches('"').to_string())
                    .filter(|s| !s.is_empty())
                    .collect());
            }
        }
        Err(LlmError::UnintelligiblePrompt(format!(
            "missing `{key}` section"
        )))
    }
    fn nums<T: std::str::FromStr>(items: Vec<String>, key: &str) -> Result<Vec<T>> {
        items
            .into_iter()
            .map(|s| {
                s.parse::<T>().map_err(|_| {
                    LlmError::UnintelligiblePrompt(format!("bad number `{s}` in {key}"))
                })
            })
            .collect()
    }

    let layers_line = prompt
        .lines()
        .map(str::trim)
        .find_map(|l| l.strip_prefix("layers:"))
        .ok_or_else(|| LlmError::UnintelligiblePrompt("missing `layers:` line".into()))?;
    let num_conv_layers: usize = layers_line.trim().parse().map_err(|_| {
        LlmError::UnintelligiblePrompt(format!("bad layer count `{}`", layers_line.trim()))
    })?;

    let choices = DesignChoices {
        channel_options: nums(find_list(prompt, "channels:")?, "channels")?,
        kernel_options: nums(find_list(prompt, "kernels:")?, "kernels")?,
        num_conv_layers,
        xbar_options: nums(find_list(prompt, "xbar:")?, "xbar")?,
        adc_options: nums(find_list(prompt, "adc_bits:")?, "adc_bits")?,
        cell_options: nums(find_list(prompt, "cell_bits:")?, "cell_bits")?,
        tech_options: find_list(prompt, "tech:")?,
    };
    choices.validate()?;
    Ok(choices)
}

/// The mutation neighbourhood of a design: single-slot steps, double
/// steps, and the *global rewrites* an LLM naturally produces when it
/// re-emits a whole rollout — scaling every layer's channels or every
/// kernel together, or re-scaling just the front or back half of the
/// network. The composite moves are what let knowledge-guided optimizers
/// traverse the space in ~20 episodes instead of hundreds.
pub fn neighborhood(base: &CandidateDesign, choices: &DesignChoices) -> Vec<CandidateDesign> {
    let mut out = Vec::new();
    let Ok(base_idx) = choices.encode(base) else {
        return out;
    };
    let n_layers = choices.num_conv_layers;
    let mut push = |idx: &[usize]| {
        if let Ok(d) = choices.decode(idx) {
            out.push(d);
        }
    };
    let step = |idx: &mut [usize], slot: usize, delta: isize| -> bool {
        let n = choices.slot_options(slot) as isize;
        let next = idx[slot] as isize + delta;
        if next < 0 || next >= n {
            return false;
        }
        idx[slot] = next as usize;
        true
    };

    // Single- and double-step moves on every slot.
    for slot in 0..choices.slot_count() {
        for delta in [-1isize, 1, -2, 2] {
            let mut idx = base_idx.clone();
            if step(&mut idx, slot, delta) {
                push(&idx);
            }
        }
    }
    // Global channel rescale: every layer one option up/down.
    for delta in [-1isize, 1] {
        let mut idx = base_idx.clone();
        let mut moved = false;
        for l in 0..n_layers {
            moved |= step(&mut idx, 2 * l, delta);
        }
        if moved {
            push(&idx);
        }
    }
    // Front-half / back-half channel rescale.
    for delta in [-1isize, 1] {
        for (lo, hi) in [(0, n_layers / 2), (n_layers / 2, n_layers)] {
            let mut idx = base_idx.clone();
            let mut moved = false;
            for l in lo..hi {
                moved |= step(&mut idx, 2 * l, delta);
            }
            if moved {
                push(&idx);
            }
        }
    }
    // Global kernel shift: every layer's kernel one option up/down.
    for delta in [-1isize, 1] {
        let mut idx = base_idx.clone();
        let mut moved = false;
        for l in 0..n_layers {
            moved |= step(&mut idx, 2 * l + 1, delta);
        }
        if moved {
            push(&idx);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_design;
    use crate::prompt::{HistoryEntry, PromptBuilder};

    fn run_episode(
        llm: &mut SimLlm,
        choices: &DesignChoices,
        history: &[HistoryEntry],
        objective: PromptObjective,
    ) -> CandidateDesign {
        let prompt = PromptBuilder::new(choices)
            .objective(objective)
            .render(history);
        let response = llm.complete(&prompt).unwrap();
        parse_design(&response, choices).unwrap()
    }

    #[test]
    fn choices_roundtrip_through_prompt() {
        let choices = DesignChoices::nacim_default();
        let prompt = PromptBuilder::new(&choices).render(&[]);
        let parsed = parse_choices(&prompt).unwrap();
        assert_eq!(parsed, choices);
    }

    #[test]
    fn first_proposal_is_feasible_and_monotone() {
        let choices = DesignChoices::nacim_default();
        let mut llm = SimLlm::new(Persona::Pretrained, 1);
        let d = run_episode(&mut llm, &choices, &[], PromptObjective::AccuracyEnergy);
        assert!(Persona::Pretrained.knowledge().acceptable(&d, 3));
        assert!(llm.last_rationale().is_some());
    }

    #[test]
    fn proposals_avoid_repeats() {
        let choices = DesignChoices::nacim_default();
        let mut llm = SimLlm::new(Persona::Pretrained, 2);
        let mut history = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for ep in 0..10 {
            let d = run_episode(
                &mut llm,
                &choices,
                &history,
                PromptObjective::AccuracyEnergy,
            );
            assert!(seen.insert(d.clone()), "episode {ep} repeated {d}");
            // Feed back a fake reward that mildly prefers wide nets.
            let perf = d.conv.iter().map(|c| c.channels as f64).sum::<f64>() / 1000.0;
            history.push(HistoryEntry {
                design: d,
                performance: perf,
            });
        }
    }

    #[test]
    fn pretrained_respects_constraints_always() {
        let choices = DesignChoices::nacim_default();
        let kb = Persona::Pretrained.knowledge();
        let mut llm = SimLlm::new(Persona::Pretrained, 3);
        let mut history = Vec::new();
        for _ in 0..15 {
            let d = run_episode(
                &mut llm,
                &choices,
                &history,
                PromptObjective::AccuracyEnergy,
            );
            assert!(kb.acceptable(&d, 3), "infeasible proposal {d}");
            history.push(HistoryEntry {
                design: d,
                performance: 0.1,
            });
        }
    }

    #[test]
    fn naive_persona_wanders_outside_constraints() {
        // The naive persona filters nothing. It opens with a uniformly
        // random design, and the pretrained rules (non-decreasing
        // channels, growth <= 4x) accept only 889 of the 7^6 = 117649
        // channel sequences, so the opening almost surely violates them.
        let choices = DesignChoices::nacim_default();
        let kb = Persona::Pretrained.knowledge();
        let (options, layers) = (choices.channel_options.len(), choices.num_conv_layers);
        let sequences = options.pow(layers as u32);
        let accepted = (0..sequences)
            .filter(|&code| {
                // Slot 2·l holds layer l's channel index.
                let mut idx = vec![0; choices.slot_count()];
                for layer in 0..layers {
                    idx[2 * layer] = code / options.pow(layer as u32) % options;
                }
                kb.acceptable(&choices.decode(&idx).unwrap(), 3)
            })
            .count();
        assert_eq!((accepted, sequences), (889, 117_649));

        // With every reward 0 it anchors on its latest design and climbs
        // its objective-blind capacity prior Σ c·k. The maximum — every
        // layer at the widest channels and the largest kernel — is a
        // constant channel sequence the rules accept. The next-best
        // capacity sits ln(5376 / 5152) ≈ 0.043 lower, more than the
        // ±0.01 ranking noise, so while unexplored hardware variants of
        // the maximum are in reach the climber stays there. Violations
        // therefore happen only on the climb, before the first
        // maximum-capacity proposal.
        let capacity =
            |d: &CandidateDesign| -> u32 { d.conv.iter().map(|c| c.channels * c.kernel).sum() };
        let widest = choices.channel_options.iter().max().unwrap();
        let largest = choices.kernel_options.iter().max().unwrap();
        let max_capacity = layers as u32 * widest * largest;
        let mut llm = SimLlm::new(Persona::Naive, 4);
        let mut history = Vec::new();
        let mut violations = Vec::new();
        let mut summit = None;
        for episode in 0..25 {
            let d = run_episode(&mut llm, &choices, &history, PromptObjective::Naive);
            if !kb.acceptable(&d, 3) {
                violations.push(episode);
            }
            if summit.is_none() && capacity(&d) == max_capacity {
                summit = Some(episode);
            }
            history.push(HistoryEntry {
                design: d,
                performance: 0.0,
            });
        }
        assert_eq!(violations.first(), Some(&0), "the random opening violates");
        let summit = summit.expect("the climb reaches maximum capacity within 25 episodes");
        assert!(
            violations.iter().all(|&e| e < summit),
            "violations {violations:?} after the summit at episode {summit}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let choices = DesignChoices::nacim_default();
        let prompt = PromptBuilder::new(&choices).render(&[]);
        let a = SimLlm::new(Persona::Pretrained, 7)
            .complete(&prompt)
            .unwrap();
        let b = SimLlm::new(Persona::Pretrained, 7)
            .complete(&prompt)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unintelligible_prompt_rejected() {
        let mut llm = SimLlm::new(Persona::Pretrained, 5);
        assert!(llm.complete("hello, who are you?").is_err());
        // Marker but no design space:
        assert!(llm.complete("objective: accuracy-energy").is_err());
    }

    #[test]
    fn pretrained_explores_larger_kernels_under_latency_objective() {
        // The Fig. 4 mechanism: with both misconceptions active, the
        // pretrained persona drifts away from all-3x3 kernels.
        let choices = DesignChoices::nacim_default();
        let mut llm = SimLlm::new(Persona::Pretrained, 6);
        let mut history = Vec::new();
        let mut saw_nonstandard_kernel = false;
        for _ in 0..20 {
            let d = run_episode(
                &mut llm,
                &choices,
                &history,
                PromptObjective::AccuracyLatency,
            );
            if d.conv.iter().any(|c| c.kernel != 3) {
                saw_nonstandard_kernel = true;
            }
            history.push(HistoryEntry {
                design: d,
                performance: 0.2,
            });
        }
        assert!(saw_nonstandard_kernel);
    }

    #[test]
    fn finetuned_sticks_to_efficient_kernels_under_latency() {
        let choices = DesignChoices::nacim_default();
        let mut llm = SimLlm::new(Persona::FineTuned, 6);
        let mut history = Vec::new();
        let mut k5_count = 0;
        for _ in 0..20 {
            let d = run_episode(
                &mut llm,
                &choices,
                &history,
                PromptObjective::AccuracyLatency,
            );
            k5_count += d.conv.iter().filter(|c| c.kernel == 5).count();
            history.push(HistoryEntry {
                design: d,
                performance: 0.2,
            });
        }
        assert!(
            k5_count <= 2,
            "fine-tuned persona should avoid the 5x5 utilization hole, saw {k5_count}"
        );
    }

    #[test]
    fn model_name_reflects_persona() {
        assert_eq!(SimLlm::new(Persona::Naive, 0).model_name(), "sim-llm/naive");
    }
}
