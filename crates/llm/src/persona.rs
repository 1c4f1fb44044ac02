//! Personas and the explicit knowledge base of the simulated LLM.
//!
//! The paper characterizes GPT-4's co-design behaviour precisely enough to
//! encode it as rules (§IV-A, §IV-B). Each [`Heuristic`] carries a prose
//! statement (what the model "believes"), whether the belief is actually
//! correct on CiM hardware, and the scoring/constraint behaviour it
//! induces. Three personas select rule sets:
//!
//! - [`Persona::Pretrained`] — GPT-4 as observed in the paper: sound
//!   channel heuristics plus **both kernel-size misconceptions**. Strong
//!   on the accuracy-energy objective (Fig. 2), fails on accuracy-latency
//!   (Fig. 4).
//! - [`Persona::FineTuned`] — the paper's future-work model with the
//!   misconceptions corrected (kernel variation penalty, crossbar
//!   utilization awareness).
//! - [`Persona::Naive`] — the Fig. 5 ablation: no co-design knowledge at
//!   all, generic black-box hill climbing.

use crate::design::{CandidateDesign, DesignChoices};
use crate::prompt::PromptObjective;

/// Which knowledge corner the simulated LLM embodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Persona {
    /// GPT-4 as the paper observed it (with misconceptions).
    #[default]
    Pretrained,
    /// Misconceptions corrected by task-specific fine-tuning (future
    /// work in the paper).
    FineTuned,
    /// No co-design knowledge (Fig. 5 ablation, "LCDA-naive").
    Naive,
}

lcda_base::impl_json!(
    enum Persona {
        Pretrained,
        FineTuned,
        Naive,
    }
);

impl Persona {
    /// The rules this persona reasons with. Every rule gates the code its
    /// statement describes. Two of GPT-4's documented beliefs need no rule:
    /// "wider is more accurate" is the width term of the scaling-law prior
    /// every persona shares in [`KnowledgeBase::believed_accuracy`], and
    /// "avoid degenerate kernels such as (1,7)" cannot be broken, because
    /// every kernel choice is square.
    pub fn knowledge(self) -> KnowledgeBase {
        let mut rules = Vec::new();
        if self != Persona::Naive {
            rules.push(Heuristic {
                name: "monotone-channels",
                statement: "each layer's output channel count should be greater than or \
                            equal to its input channel count",
                correct: true,
            });
            rules.push(Heuristic {
                name: "growth-cap",
                statement: "never increase the number of output channels by more than 4x \
                            in one layer",
                correct: true,
            });
        }
        match self {
            Persona::Pretrained => {
                rules.push(Heuristic {
                    name: "larger-kernels-boost-accuracy",
                    statement: "larger kernel sizes enhance accuracy",
                    // True in general, false on CiM: larger kernels amplify
                    // the impact of device variations (§IV-B).
                    correct: false,
                });
                rules.push(Heuristic {
                    name: "smaller-kernels-cut-latency",
                    statement: "smaller kernel sizes imply lower latency",
                    // False on crossbars: 5x5 can under-utilize the array
                    // and increase latency (§IV-B).
                    correct: false,
                });
            }
            Persona::FineTuned => {
                rules.push(Heuristic {
                    name: "kernel-variation-penalty",
                    statement: "on CiM accelerators larger kernels increase the impact of \
                                device variations, so prefer 3x3 unless capacity demands \
                                otherwise",
                    correct: true,
                });
                rules.push(Heuristic {
                    name: "kernel-utilization",
                    statement: "3x3 and 7x7 kernels utilize the crossbar well; 5x5 can \
                                leave arrays badly under-utilized and slower",
                    correct: true,
                });
            }
            Persona::Naive => {}
        }
        KnowledgeBase {
            persona: self,
            rules,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Persona::Pretrained => "pretrained",
            Persona::FineTuned => "fine-tuned",
            Persona::Naive => "naive",
        }
    }
}

/// One belief of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heuristic {
    /// Stable identifier.
    pub name: &'static str,
    /// The belief as prose.
    pub statement: &'static str,
    /// Whether the belief actually holds on CiM hardware.
    pub correct: bool,
}

/// The rule set a persona reasons with, plus the scoring model it induces.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    persona: Persona,
    rules: Vec<Heuristic>,
}

impl KnowledgeBase {
    /// The persona this knowledge belongs to.
    pub fn persona(&self) -> Persona {
        self.persona
    }

    /// The rules (for explanation generation and inspection).
    pub fn rules(&self) -> &[Heuristic] {
        &self.rules
    }

    fn has_rule(&self, name: &str) -> bool {
        self.rules.iter().any(|r| r.name == name)
    }

    /// Hard feasibility filter: does the design respect the persona's
    /// structural rules? (The naive persona accepts everything.)
    pub fn acceptable(&self, design: &CandidateDesign, in_channels: u32) -> bool {
        if self.persona == Persona::Naive {
            return true;
        }
        // The structural rules govern stage-to-stage transitions; the jump
        // from the 3-channel image input to the first stage is exempt (the
        // reference design itself goes 3 -> 32).
        let _ = in_channels;
        let mut prev: Option<u32> = None;
        for c in &design.conv {
            if let Some(p) = prev {
                if self.has_rule("monotone-channels") && c.channels < p {
                    return false;
                }
                if self.has_rule("growth-cap") && c.channels > p.saturating_mul(4) {
                    return false;
                }
            }
            prev = Some(c.channels);
        }
        true
    }

    /// Per-stage spatial sizes the model assumes from the prompt's
    /// backbone description: CIFAR input (32×32) with 2×2 pooling after
    /// every second convolution.
    fn assumed_sizes(n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        let mut size = 32.0f64;
        for i in 0..n {
            out.push(size);
            if (i + 1) % 2 == 0 {
                size = (size / 2.0).max(1.0);
            }
        }
        out
    }

    /// Believed parameter count (the quantity scaling-law intuition runs
    /// on): conv weights plus the FC stack with hidden 1024 / 10 classes.
    fn believed_params(design: &CandidateDesign) -> f64 {
        let mut c_in = 3.0f64;
        let mut p = 0.0f64;
        for c in &design.conv {
            p += c_in * f64::from(c.kernel * c.kernel) * f64::from(c.channels);
            c_in = f64::from(c.channels);
        }
        let n = design.conv.len();
        let final_size = Self::assumed_sizes(n)
            .last()
            .map(|&s| if n.is_multiple_of(2) { s / 2.0 } else { s })
            .unwrap_or(4.0)
            .max(1.0);
        p += c_in * final_size * final_size * 1024.0 + 1024.0 * 10.0;
        p
    }

    /// Believed MAC count, the model's (roughly correct) proxy for
    /// inference energy.
    fn believed_macs(design: &CandidateDesign) -> f64 {
        let sizes = Self::assumed_sizes(design.conv.len());
        let mut c_in = 3.0f64;
        let mut macs = 0.0f64;
        for (c, &s) in design.conv.iter().zip(&sizes) {
            macs += c_in * f64::from(c.kernel * c.kernel) * f64::from(c.channels) * s * s;
            c_in = f64::from(c.channels);
        }
        macs + Self::believed_params(design)
    }

    /// MACs of the paper's reference rollout, the normalization anchor
    /// the prompt describes ("normalized to the original ISAAC design").
    fn reference_macs() -> f64 {
        Self::believed_macs(&CandidateDesign::reference())
    }

    /// The model's believed accuracy of a design — a scaling-law prior
    /// plus whatever kernel beliefs the persona holds (including the
    /// documented misconceptions).
    pub fn believed_accuracy(&self, design: &CandidateDesign) -> f64 {
        let p = Self::believed_params(design);
        let mut acc = 0.93 * p / (p + 5.0e5);
        let n = design.conv.len().max(1) as f64;
        let mean_k: f64 = design.conv.iter().map(|c| f64::from(c.kernel)).sum::<f64>() / n;
        if self.has_rule("larger-kernels-boost-accuracy") {
            // Misconception 1: "larger kernel sizes enhance accuracy" —
            // held unconditionally, blind to device variation.
            acc += 0.06 * (mean_k - 3.0);
        }
        if self.has_rule("kernel-variation-penalty") {
            // Corrected belief: large kernels amplify variation impact.
            acc -= 0.045 * (mean_k - 3.0).max(0.0);
        }
        // Shared, correct quantization intuition.
        acc -= 0.012 * f64::from(8u8.saturating_sub(design.hw.adc_bits));
        acc
    }

    /// Believed inference energy normalized to the ISAAC reference.
    ///
    /// The model holds two *correct* textbook beliefs here: energy is
    /// roughly MAC-proportional, and the ADCs dominate CiM energy (their
    /// per-conversion cost is exponential in resolution, and the number of
    /// conversions scales with the column count, i.e. inversely with the
    /// cell precision). Note the asymmetry with
    /// [`KnowledgeBase::believed_latency_norm`]: the same ADC facts on the
    /// *latency* side (mux serialization) are CiM-architecture lore the
    /// pretrained model lacks.
    pub fn believed_energy_norm(&self, design: &CandidateDesign) -> f64 {
        let ratio = Self::believed_macs(design) / Self::reference_macs();
        // ADC resolution: exponential conversion cost over a fixed floor.
        let adc_factor = 0.25 + 0.75 * f64::from(1u32 << design.hw.adc_bits) / 256.0;
        // Cell precision: fewer bit-slice columns → fewer conversions.
        let cell_factor = (2.0 / f64::from(design.hw.cell_bits)).sqrt();
        (0.08 + 0.92 * ratio) * adc_factor * cell_factor
    }

    /// Believed inference latency normalized to the ISAAC reference.
    ///
    /// This is where misconception 2 lives: the pretrained persona
    /// believes latency tracks kernel size only weakly and channels
    /// moderately — utterly blind to crossbar utilization — so enlarging
    /// kernels looks nearly free under the latency objective.
    pub fn believed_latency_norm(&self, design: &CandidateDesign) -> f64 {
        let n = design.conv.len().max(1) as f64;
        let mut lat = if self.has_rule("smaller-kernels-cut-latency") {
            // Misconception 2 in its general-hardware form: latency tracks
            // FLOPs, so kernel size enters quadratically ("smaller kernel
            // sizes typically imply lower latency"). On a weight-resident
            // crossbar this is simply wrong — latency is set by output
            // pixels, ADC sweeps and utilization, not by MACs.
            0.15 + 0.85 * Self::believed_macs(design) / Self::reference_macs()
        } else {
            // Corrected (fine-tuned) belief: latency follows activation
            // traffic / ADC sweeps, i.e. channels — kernels matter only
            // through crossbar utilization.
            let sizes = Self::assumed_sizes(design.conv.len());
            let ref_act = 32.0 * 1024.0 * 2.0 + 64.0 * 256.0 * 2.0 + 128.0 * 64.0 * 2.0;
            let act: f64 = design
                .conv
                .iter()
                .zip(&sizes)
                .map(|(c, &s)| f64::from(c.channels) * s * s)
                .sum();
            0.25 + 0.75 * act / ref_act
        };
        if self.has_rule("kernel-utilization") {
            // Corrected belief: 5×5 sits in the crossbar utilization hole.
            let k5 = design.conv.iter().filter(|c| c.kernel == 5).count() as f64;
            lat *= 1.0 + 0.25 * k5 / n;
        }
        // Bigger crossbars genuinely help throughput (shared, correct).
        lat / (f64::from(design.hw.xbar_size) / 128.0).sqrt()
    }

    /// The persona's *believed* desirability of a design under an
    /// objective — its internal estimate of the reward the prompt
    /// describes. A prior, not ground truth: the misconceptions make the
    /// pretrained persona chase larger kernels under the latency
    /// objective (the paper's Fig. 4 failure mode).
    pub fn believed_score(&self, design: &CandidateDesign, objective: PromptObjective) -> f64 {
        if self.persona == Persona::Naive {
            // Generic "bigger model scores better" prior, objective-blind.
            let capacity: f64 = design
                .conv
                .iter()
                .map(|c| f64::from(c.channels) * f64::from(c.kernel))
                .sum();
            return capacity.ln();
        }
        let acc = self.believed_accuracy(design);
        match objective {
            PromptObjective::AccuracyEnergy => {
                acc - self.believed_energy_norm(design).max(0.0).sqrt()
            }
            PromptObjective::AccuracyLatency => {
                acc + 1.0 / self.believed_latency_norm(design).max(1e-3)
            }
            PromptObjective::Naive => acc - 0.2 * self.believed_energy_norm(design),
        }
    }

    /// The persona's preferred starting design before any feedback: a
    /// textbook monotone ramp with 3×3 kernels on mid-range hardware.
    ///
    /// # Panics
    ///
    /// Panics when `choices` fails validation (callers validate first).
    pub fn prior_design(&self, choices: &DesignChoices) -> CandidateDesign {
        choices.validate().expect("choices validated by caller");
        let n = choices.num_conv_layers;
        let opts = &choices.channel_options;
        // Ramp through the channel options: low → high across stages.
        let conv = (0..n)
            .map(|l| {
                let pos = ((l + 1) * (opts.len() - 1)) / n.max(1);
                let kernel = preferred_kernel(&choices.kernel_options);
                crate::design::ConvChoice {
                    channels: opts[pos.min(opts.len() - 1)],
                    kernel,
                }
            })
            .collect();
        CandidateDesign {
            conv,
            hw: crate::design::HwChoice {
                xbar_size: choices.xbar_options[choices.xbar_options.len() / 2],
                adc_bits: *choices.adc_options.last().expect("validated non-empty"),
                cell_bits: choices.cell_options[choices.cell_options.len() / 2],
                tech: choices.tech_options[0].clone(),
            },
        }
    }
}

/// The kernel the expert personas reach for by default: 3 when available.
fn preferred_kernel(options: &[u32]) -> u32 {
    if options.contains(&3) {
        3
    } else {
        options[options.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{ConvChoice, HwChoice};

    fn design(pairs: &[(u32, u32)]) -> CandidateDesign {
        CandidateDesign {
            conv: pairs
                .iter()
                .map(|&(c, k)| ConvChoice {
                    channels: c,
                    kernel: k,
                })
                .collect(),
            hw: HwChoice {
                xbar_size: 128,
                adc_bits: 8,
                cell_bits: 2,
                tech: "rram".into(),
            },
        }
    }

    #[test]
    fn personas_have_expected_rules() {
        let pre = Persona::Pretrained.knowledge();
        assert_eq!(pre.rules().len(), 4);
        assert!(pre.rules().iter().any(|r| !r.correct));
        assert!(pre
            .rules()
            .iter()
            .any(|r| r.name == "larger-kernels-boost-accuracy"));

        let ft = Persona::FineTuned.knowledge();
        assert_eq!(ft.rules().len(), 4);
        assert!(ft.rules().iter().all(|r| r.correct));
        assert!(ft.rules().iter().any(|r| r.name == "kernel-utilization"));

        let naive = Persona::Naive.knowledge();
        assert!(naive.rules().is_empty());
    }

    #[test]
    fn monotone_channel_constraint() {
        let kb = Persona::Pretrained.knowledge();
        assert!(kb.acceptable(&design(&[(16, 3), (32, 3), (64, 3)]), 3));
        // Shrinking channels violates monotonicity.
        assert!(!kb.acceptable(&design(&[(64, 3), (32, 3), (64, 3)]), 3));
        // Naive accepts anything.
        assert!(Persona::Naive
            .knowledge()
            .acceptable(&design(&[(64, 3), (16, 3)]), 3));
    }

    #[test]
    fn growth_cap_constraint() {
        let kb = Persona::Pretrained.knowledge();
        // 16 → 96 is a 6x jump.
        assert!(!kb.acceptable(&design(&[(16, 3), (96, 3)]), 3));
        // 16 → 64 is exactly 4x.
        assert!(kb.acceptable(&design(&[(16, 3), (64, 3)]), 3));
    }

    #[test]
    fn misconception_one_inflates_kernel_accuracy_belief() {
        // "Larger kernel sizes enhance accuracy" — the pretrained persona
        // credits big kernels beyond their parameter contribution; the
        // fine-tuned persona penalizes them (variation awareness).
        let pre = Persona::Pretrained.knowledge();
        let ft = Persona::FineTuned.knowledge();
        let k3 = design(&[(32, 3); 6]);
        let k7 = design(&[(32, 7); 6]);
        let pre_gap = pre.believed_accuracy(&k7) - pre.believed_accuracy(&k3);
        let ft_gap = ft.believed_accuracy(&k7) - ft.believed_accuracy(&k3);
        assert!(pre_gap > ft_gap, "pre {pre_gap} vs ft {ft_gap}");
        assert!(pre_gap > 0.1, "misconception should inflate k7: {pre_gap}");
    }

    #[test]
    fn misconception_two_drives_kernels_down_under_latency() {
        // "Smaller kernel sizes imply lower latency" (FLOPs intuition):
        // the pretrained persona believes k=1 beats k=3 on the latency
        // objective; the fine-tuned persona knows crossbar latency does
        // not track kernel size and prefers k=3 for its accuracy.
        let pre = Persona::Pretrained.knowledge();
        let ft = Persona::FineTuned.knowledge();
        let k1 = design(&[(32, 1); 6]);
        let k3 = design(&[(32, 3); 6]);
        assert!(
            pre.believed_score(&k1, PromptObjective::AccuracyLatency)
                > pre.believed_score(&k3, PromptObjective::AccuracyLatency)
        );
        assert!(
            ft.believed_score(&k3, PromptObjective::AccuracyLatency)
                > ft.believed_score(&k1, PromptObjective::AccuracyLatency)
        );
    }

    #[test]
    fn finetuned_prefers_k3_on_latency() {
        let ft = Persona::FineTuned.knowledge();
        let k3 = ft.believed_score(&design(&[(32, 3); 6]), PromptObjective::AccuracyLatency);
        let k5 = ft.believed_score(&design(&[(32, 5); 6]), PromptObjective::AccuracyLatency);
        let k7 = ft.believed_score(&design(&[(32, 7); 6]), PromptObjective::AccuracyLatency);
        assert!(k3 > k5);
        assert!(
            k7 > k5,
            "7x7 utilizes better than 5x5 in the corrected belief"
        );
    }

    #[test]
    fn wider_layers_believed_more_accurate() {
        let kb = Persona::Pretrained.knowledge();
        let narrow = design(&[(16, 3); 6]);
        let wide = design(&[(64, 3); 6]);
        assert!(kb.believed_accuracy(&wide) > kb.believed_accuracy(&narrow));
    }

    #[test]
    fn believed_energy_tracks_macs() {
        let kb = Persona::Pretrained.knowledge();
        let small = design(&[(16, 3); 6]);
        let big = design(&[(128, 3); 6]);
        assert!(kb.believed_energy_norm(&big) > kb.believed_energy_norm(&small));
        // The reference rollout should be believed near its normalization
        // anchor (1.0) — GPT-4's energy intuition is roughly right.
        let reference = CandidateDesign::reference();
        let e = kb.believed_energy_norm(&reference);
        assert!((0.7..=1.3).contains(&e), "reference believed energy {e}");
    }

    #[test]
    fn prior_design_is_monotone_k3() {
        let choices = DesignChoices::nacim_default();
        let kb = Persona::Pretrained.knowledge();
        let d = kb.prior_design(&choices);
        assert!(kb.acceptable(&d, 3));
        assert!(d.conv.iter().all(|c| c.kernel == 3));
        assert!(choices.contains(&d).is_ok());
        let mut prev = 0;
        for c in &d.conv {
            assert!(c.channels >= prev);
            prev = c.channels;
        }
    }

    #[test]
    fn persona_names() {
        assert_eq!(Persona::Pretrained.name(), "pretrained");
        assert_eq!(Persona::FineTuned.name(), "fine-tuned");
        assert_eq!(Persona::Naive.name(), "naive");
    }
}
