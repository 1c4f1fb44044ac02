//! The calibrated surrogate accuracy evaluator.
//!
//! Training 500+ candidates on CIFAR-10 (as NACIM does) is far outside
//! this reproduction's compute budget, so the search benchmarks use an
//! analytic accuracy model with the monotonicities the paper's findings
//! rest on (see DESIGN.md §1 for the substitution argument):
//!
//! - **capacity**: more channels → higher clean accuracy with diminishing
//!   returns (the "wider is more accurate" heuristic GPT-4 applies),
//! - **kernels**: larger kernels raise clean accuracy slightly (bigger
//!   receptive field) — but under device variation they *lose* accuracy,
//!   because a larger fan-in accumulates more conductance noise per output
//!   (§IV-B: "larger kernel sizes also increase the impact of device
//!   variations"),
//! - **quantization**: fewer ADC bits and more bits crammed per cell cost
//!   accuracy,
//! - **technology**: the penalty scales with the device corner's
//!   [`lcda_variation::VariationConfig::severity`],
//! - **noise-injection training** (always on, as in the paper) recovers a
//!   calibrated fraction of the variation penalty.
//!
//! The model is deterministic: a seeded per-design jitter (±0.8%) stands
//! in for training stochasticity without breaking reproducibility.
//! Integration tests cross-check its orderings against the real
//! [`crate::trained::TrainedEvaluator`] on the synthetic dataset.

use crate::evaluate::AccuracyEvaluator;
use crate::space::DesignSpace;
use crate::Result;
use lcda_llm::design::CandidateDesign;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Tunable constants of the surrogate (exposed for the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateParams {
    /// Half-saturation point of the capacity curve, in effective
    /// parameters: `acc ∝ p / (p + p_half)`.
    pub p_half: f64,
    /// Upper bound on clean accuracy.
    pub acc_cap: f64,
    /// Variation-penalty slope per unit of mean kernel above 3.
    pub kernel_penalty_slope: f64,
    /// Variation-penalty intercept at mean kernel 3.
    pub kernel_penalty_base: f64,
    /// Fraction of the variation penalty that survives noise-injection
    /// training (1.0 = no recovery).
    pub noise_injection_residual: f64,
    /// Deterministic jitter amplitude.
    pub jitter: f64,
}

impl Default for SurrogateParams {
    fn default() -> Self {
        SurrogateParams {
            // Placeholder; `SurrogateEvaluator::new` resolves it relative
            // to the design space's maximal capacity.
            p_half: 4.0e5,
            acc_cap: 0.93,
            kernel_penalty_slope: 0.55,
            kernel_penalty_base: 0.45,
            noise_injection_residual: 0.55,
            jitter: 0.008,
        }
    }
}

/// The surrogate accuracy evaluator.
#[derive(Debug, Clone)]
pub struct SurrogateEvaluator {
    space: DesignSpace,
    params: SurrogateParams,
    seed: u64,
    /// When false, models skipping noise-injection training (ablation).
    noise_injection_training: bool,
}

impl SurrogateEvaluator {
    /// Creates the evaluator with default calibration.
    ///
    /// The capacity half-saturation point is resolved relative to the
    /// *largest* design in the space (13% of its effective parameters),
    /// so the same accuracy curve shape applies to scaled-down test
    /// spaces, not just the CIFAR-10 problem.
    pub fn new(space: DesignSpace, seed: u64) -> Self {
        let params = SurrogateParams {
            p_half: 0.13 * Self::max_effective_params(&space),
            ..SurrogateParams::default()
        };
        SurrogateEvaluator {
            space,
            params,
            seed,
            noise_injection_training: true,
        }
    }

    /// Effective parameters of the largest design the space can express.
    fn max_effective_params(space: &DesignSpace) -> f64 {
        let c_max = space
            .choices
            .channel_options
            .iter()
            .copied()
            .max()
            .unwrap_or(1);
        let k_max = space
            .choices
            .kernel_options
            .iter()
            .copied()
            .max()
            .unwrap_or(3);
        let design = CandidateDesign {
            conv: (0..space.choices.num_conv_layers)
                .map(|_| lcda_llm::design::ConvChoice {
                    channels: c_max,
                    kernel: k_max,
                })
                .collect(),
            hw: lcda_llm::design::HwChoice {
                xbar_size: space.choices.xbar_options[0],
                adc_bits: space.choices.adc_options[0],
                cell_bits: space.choices.cell_options[0],
                tech: space.choices.tech_options[0].clone(),
            },
        };
        match space.architecture(&design) {
            Ok(arch) => {
                let mut eff = 0.0f64;
                for (c_in, _size, spec) in arch.conv_stages() {
                    eff += f64::from(c_in)
                        * f64::from(spec.channels)
                        * Self::kernel_capacity_weight(spec.kernel);
                }
                eff += f64::from(arch.flat_features()) * f64::from(arch.hidden);
                eff += f64::from(arch.hidden) * f64::from(arch.classes);
                eff.max(1.0)
            }
            // Fall back to the CIFAR-scale constant when even the maximal
            // design is structurally invalid (degenerate space).
            Err(_) => 3.0e6,
        }
    }

    /// Overrides the calibration constants.
    pub fn with_params(mut self, params: SurrogateParams) -> Self {
        self.params = params;
        self
    }

    /// Disables the modelled noise-injection training (ablation: the full
    /// variation penalty applies).
    pub fn without_noise_injection(mut self) -> Self {
        self.noise_injection_training = false;
        self
    }

    /// Kernel weight in the effective-capacity sum: sublinear in k² so
    /// capacity is driven mainly by channels.
    fn kernel_capacity_weight(kernel: u32) -> f64 {
        match kernel {
            1 => 5.0,
            3 => 9.0,
            5 => 11.0,
            _ => 12.0,
        }
    }

    /// Receptive-field bonus on clean accuracy.
    fn kernel_clean_bonus(kernel: u32) -> f64 {
        match kernel {
            1 => -0.040,
            3 => 0.0,
            5 => 0.010,
            _ => 0.015,
        }
    }

    /// The clean (no-variation) accuracy of a design.
    pub fn clean_accuracy(&self, design: &CandidateDesign) -> Result<f64> {
        let arch = self.space.architecture(design)?;
        let p = &self.params;
        // Effective parameters: conv stages weighted sublinearly in k².
        let mut eff = 0.0f64;
        for (c_in, _size, spec) in arch.conv_stages() {
            eff += f64::from(c_in)
                * f64::from(spec.channels)
                * Self::kernel_capacity_weight(spec.kernel);
        }
        eff += f64::from(arch.flat_features()) * f64::from(arch.hidden);
        eff += f64::from(arch.hidden) * f64::from(arch.classes);

        // Saturating capacity curve: sharp gains up to ~p_half effective
        // parameters, diminishing returns beyond — the shape NAS accuracy
        // tables exhibit on CIFAR-scale tasks.
        let mut acc = p.acc_cap * eff / (eff + p.p_half);
        // Receptive-field shaping.
        let n = design.conv.len() as f64;
        acc += design
            .conv
            .iter()
            .map(|c| Self::kernel_clean_bonus(c.kernel))
            .sum::<f64>()
            / n.max(1.0);
        // Quantization effects from the hardware half of the design.
        acc -= 0.012 * f64::from(8u8.saturating_sub(design.hw.adc_bits));
        acc -= 0.004 * f64::from(design.hw.cell_bits.saturating_sub(1));
        Ok(acc.clamp(0.05, 0.99))
    }

    /// The variation penalty before noise-injection recovery.
    pub fn variation_penalty(&self, design: &CandidateDesign) -> Result<f64> {
        let severity = f64::from(self.space.variation(design)?.severity());
        let mean_k = design.conv.iter().map(|c| f64::from(c.kernel)).sum::<f64>()
            / design.conv.len().max(1) as f64;
        let p = &self.params;
        let kernel_factor =
            (p.kernel_penalty_base + p.kernel_penalty_slope * (mean_k - 3.0)).max(0.2);
        Ok(severity * kernel_factor)
    }

    fn jitter_for(&self, design: &CandidateDesign) -> f64 {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        design.hash(&mut h);
        let x = h.finish();
        // Map to [-1, 1).
        let unit = (x as f64 / u64::MAX as f64) * 2.0 - 1.0;
        unit * self.params.jitter
    }
}

impl AccuracyEvaluator for SurrogateEvaluator {
    fn accuracy(&mut self, design: &CandidateDesign) -> Result<f64> {
        let clean = self.clean_accuracy(design)?;
        let mut penalty = self.variation_penalty(design)?;
        if self.noise_injection_training {
            penalty *= self.params.noise_injection_residual;
        }
        Ok((clean - penalty + self.jitter_for(design)).clamp(0.05, 0.99))
    }

    fn name(&self) -> &'static str {
        "surrogate"
    }

    /// `false`: a call is cheaper than a memo lookup. On a 2-vCPU host a
    /// surrogate call took 0.42 µs and a memo hit 0.81 µs, a Fig. 2 unit
    /// (LCDA 20 + NACIM 500 episodes) averaged 0.009 hits against 1,040
    /// misses, and a 500-episode RL search peaked at 317 kB of live heap
    /// with the memo and 106 kB without it.
    fn memoize(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> String {
        // Everything that shapes a result: the space (variation mapping,
        // architecture construction), calibration constants, jitter seed
        // and the noise-injection toggle.
        let space = crate::identity::space_json(&self.space);
        format!(
            "surrogate/{}",
            crate::pipeline::stable_fingerprint(&[
                &space,
                &crate::identity::params_debug(&self.params),
                &self.seed.to_string(),
                &self.noise_injection_training.to_string(),
            ])
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> DesignSpace {
        DesignSpace::nacim_cifar10()
    }

    fn eval() -> SurrogateEvaluator {
        SurrogateEvaluator::new(space(), 0)
    }

    fn with_channels(base: &CandidateDesign, c: u32) -> CandidateDesign {
        let mut d = base.clone();
        for conv in &mut d.conv {
            conv.channels = c;
        }
        d
    }

    fn with_kernels(base: &CandidateDesign, k: u32) -> CandidateDesign {
        let mut d = base.clone();
        for conv in &mut d.conv {
            conv.kernel = k;
        }
        d
    }

    #[test]
    fn reference_lands_in_plausible_band() {
        let mut e = eval();
        let acc = e.accuracy(&space().reference_design()).unwrap();
        assert!(
            (0.70..=0.88).contains(&acc),
            "reference accuracy {acc} outside CIFAR-10-plausible band"
        );
    }

    #[test]
    fn wider_is_more_accurate() {
        let mut e = eval();
        let r = space().reference_design();
        let narrow = e.accuracy(&with_channels(&r, 16)).unwrap();
        let mid = e.accuracy(&with_channels(&r, 64)).unwrap();
        let wide = e.accuracy(&with_channels(&r, 128)).unwrap();
        assert!(narrow < mid && mid < wide, "{narrow} {mid} {wide}");
    }

    #[test]
    fn large_kernels_lose_under_rram_variation() {
        // §IV-B: the misconception — larger kernels help in general but
        // hurt on CiM. Under RRAM variation, k=7 must underperform k=3.
        let mut e = eval();
        let r = space().reference_design();
        let k3 = e.accuracy(&with_kernels(&r, 3)).unwrap();
        let k7 = e.accuracy(&with_kernels(&r, 7)).unwrap();
        assert!(k7 < k3, "k7 {k7} should lose to k3 {k3} under variation");
    }

    #[test]
    fn large_kernels_win_without_variation() {
        // …while the general intuition holds on clean (variation-free)
        // accuracy.
        let e = eval();
        let r = space().reference_design();
        let k3 = e.clean_accuracy(&with_kernels(&r, 3)).unwrap();
        let k7 = e.clean_accuracy(&with_kernels(&r, 7)).unwrap();
        assert!(k7 > k3, "clean: k7 {k7} should beat k3 {k3}");
    }

    #[test]
    fn pointwise_kernels_hurt_clean_accuracy() {
        let e = eval();
        let r = space().reference_design();
        let k1 = e.clean_accuracy(&with_kernels(&r, 1)).unwrap();
        let k3 = e.clean_accuracy(&with_kernels(&r, 3)).unwrap();
        assert!(k1 < k3);
    }

    #[test]
    fn fewer_adc_bits_cost_accuracy() {
        let mut e = eval();
        let r = space().reference_design();
        let mut lo = r.clone();
        lo.hw.adc_bits = 4;
        assert!(e.accuracy(&lo).unwrap() < e.accuracy(&r).unwrap());
    }

    #[test]
    fn ideal_tech_beats_noisy_tech() {
        // FeFET's corner is milder than RRAM's.
        let mut e = eval();
        let r = space().reference_design();
        let mut fefet = r.clone();
        fefet.hw.tech = "fefet".into();
        assert!(e.accuracy(&fefet).unwrap() > e.accuracy(&r).unwrap());
    }

    #[test]
    fn noise_injection_recovers_accuracy() {
        let r = space().reference_design();
        let with_ni = eval().accuracy(&r).unwrap();
        let without = SurrogateEvaluator::new(space(), 0)
            .without_noise_injection()
            .accuracy(&r)
            .unwrap();
        assert!(with_ni > without);
    }

    #[test]
    fn deterministic_per_seed_and_design() {
        let r = space().reference_design();
        let a = SurrogateEvaluator::new(space(), 5).accuracy(&r).unwrap();
        let b = SurrogateEvaluator::new(space(), 5).accuracy(&r).unwrap();
        assert_eq!(a, b);
        let c = SurrogateEvaluator::new(space(), 6).accuracy(&r).unwrap();
        assert_ne!(a, c); // jitter differs by seed
        assert!((a - c).abs() < 0.02); // …but only slightly
    }

    #[test]
    fn accuracy_always_in_unit_interval() {
        let mut e = eval();
        let choices = space().choices.clone();
        // Probe the extreme corners of the space.
        for &c in &[16u32, 128] {
            for &k in &[1u32, 7] {
                let mut d = space().reference_design();
                for conv in &mut d.conv {
                    conv.channels = c;
                    conv.kernel = k;
                }
                for &adc in &choices.adc_options {
                    d.hw.adc_bits = adc;
                    let acc = e.accuracy(&d).unwrap();
                    assert!((0.0..=1.0).contains(&acc), "acc {acc}");
                }
            }
        }
    }
}
