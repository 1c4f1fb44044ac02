//! Differential weight-to-conductance mapping and whole-tensor
//! perturbation.
//!
//! CiM crossbars store a signed DNN weight `w ∈ [-w_max, w_max]` as a
//! *differential pair* of conductances `(g⁺, g⁻)` with
//! `w ∝ g⁺ − g⁻`; positive weights program `g⁺`, negative weights `g⁻`,
//! and the other device of the pair stays at `g_min`. Both devices of the
//! pair experience the non-idealities independently, which is why even a
//! zero weight reads back noisy.

use crate::sources::VariationPipeline;
use crate::VariationConfig;
use lcda_base::rng::Rng;

/// Perturbs whole weight buffers the way crossbar programming would.
///
/// # Example
///
/// ```
/// use lcda_variation::{VariationConfig, weights::WeightPerturber};
/// let p = WeightPerturber::new(VariationConfig::ideal(), 1.0);
/// let mut w = vec![0.5f32, -0.5];
/// p.perturb(&mut w, 1);
/// assert_eq!(w, vec![0.5, -0.5]); // ideal devices are exact (analog)
/// ```
#[derive(Debug, Clone)]
pub struct WeightPerturber {
    config: VariationConfig,
    w_max: f32,
}

impl WeightPerturber {
    /// Creates a perturber for weights clipped to `[-w_max, w_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `w_max` is not strictly positive and finite.
    pub fn new(config: VariationConfig, w_max: f32) -> Self {
        assert!(
            w_max > 0.0 && w_max.is_finite(),
            "w_max must be positive and finite"
        );
        WeightPerturber { config, w_max }
    }

    /// The variation configuration in use.
    pub fn config(&self) -> &VariationConfig {
        &self.config
    }

    /// The weight clipping magnitude.
    pub fn w_max(&self) -> f32 {
        self.w_max
    }

    /// Perturbs `weights` in place, simulating one chip-programming pass
    /// read back immediately.
    ///
    /// `trial_seed` selects the chip instance: the same seed reproduces the
    /// same perturbation, different seeds give independent Monte-Carlo
    /// trials.
    pub fn perturb(&self, weights: &mut [f32], trial_seed: u64) {
        self.perturb_after(weights, trial_seed, 0.0);
    }

    /// Like [`WeightPerturber::perturb`] but reads the crossbar
    /// `elapsed_seconds` after programming, applying any retention drift
    /// the corner configures.
    pub fn perturb_after(&self, weights: &mut [f32], trial_seed: u64, elapsed_seconds: f64) {
        let mut rng = Rng::new(trial_seed);
        let pipeline = VariationPipeline::for_chip(&self.config, &mut rng);
        for w in weights.iter_mut() {
            *w = self.perturb_one(*w, &pipeline, &mut rng, elapsed_seconds);
        }
    }

    /// Perturbs a single weight through the differential pair.
    fn perturb_one(
        &self,
        w: f32,
        pipeline: &VariationPipeline,
        rng: &mut Rng,
        elapsed_seconds: f64,
    ) -> f32 {
        let clipped = w.clamp(-self.w_max, self.w_max);
        let g_norm = clipped.abs() / self.w_max;
        let (g_pos_t, g_neg_t) = if clipped >= 0.0 {
            (g_norm, 0.0)
        } else {
            (0.0, g_norm)
        };
        let g_pos = pipeline.read_after(g_pos_t, elapsed_seconds, rng);
        let g_neg = pipeline.read_after(g_neg_t, elapsed_seconds, rng);
        (g_pos - g_neg) * self.w_max
    }

    /// Standard deviation of the read-back error for a batch of weights —
    /// a cheap empirical summary used in calibration tests.
    pub fn empirical_error_std(&self, weights: &[f32], trials: u32, seed: u64) -> f32 {
        let mut sq = 0.0f64;
        let mut n = 0u64;
        for t in 0..trials {
            let mut w = weights.to_vec();
            self.perturb(&mut w, seed.wrapping_add(t as u64));
            for (a, b) in w.iter().zip(weights) {
                let d = (a - b.clamp(-self.w_max, self.w_max)) as f64;
                sq += d * d;
                n += 1;
            }
        }
        ((sq / n.max(1) as f64) as f32).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_analog_roundtrips_exactly() {
        let p = WeightPerturber::new(VariationConfig::ideal(), 2.0);
        let orig = vec![0.0f32, 1.0, -1.5, 2.0, -2.0, 0.123];
        let mut w = orig.clone();
        p.perturb(&mut w, 42);
        for (a, b) in w.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn clipping_applied() {
        let p = WeightPerturber::new(VariationConfig::ideal(), 1.0);
        let mut w = vec![5.0f32, -7.0];
        p.perturb(&mut w, 0);
        assert_eq!(w, vec![1.0, -1.0]);
    }

    #[test]
    fn same_seed_reproduces() {
        let p = WeightPerturber::new(VariationConfig::rram_moderate(), 1.0);
        let mut a = vec![0.3f32; 64];
        let mut b = vec![0.3f32; 64];
        p.perturb(&mut a, 9);
        p.perturb(&mut b, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = WeightPerturber::new(VariationConfig::rram_moderate(), 1.0);
        let mut a = vec![0.3f32; 64];
        let mut b = vec![0.3f32; 64];
        p.perturb(&mut a, 1);
        p.perturb(&mut b, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn severe_corner_noisier_than_moderate() {
        let w: Vec<f32> = (0..512).map(|i| ((i as f32) / 256.0) - 1.0).collect();
        let moderate = WeightPerturber::new(VariationConfig::rram_moderate(), 1.0)
            .empirical_error_std(&w, 8, 0);
        let severe =
            WeightPerturber::new(VariationConfig::rram_severe(), 1.0).empirical_error_std(&w, 8, 0);
        assert!(severe > moderate, "severe {severe} moderate {moderate}");
    }

    #[test]
    fn zero_weight_reads_noisy_under_variation() {
        // The differential pair means even w=0 suffers programming noise.
        let p = WeightPerturber::new(VariationConfig::rram_severe(), 1.0);
        let mut w = vec![0.0f32; 256];
        p.perturb(&mut w, 3);
        assert!(w.iter().any(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "w_max")]
    fn zero_wmax_panics() {
        let _ = WeightPerturber::new(VariationConfig::ideal(), 0.0);
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use crate::RetentionConfig;

    #[test]
    fn drift_shrinks_weight_magnitudes_over_time() {
        let cfg = VariationConfig::ideal().with_retention(RetentionConfig::pcm_like());
        let p = WeightPerturber::new(cfg, 1.0);
        let orig = vec![0.8f32, -0.6, 0.4, -0.2];
        let mut fresh = orig.clone();
        p.perturb_after(&mut fresh, 0, 0.0);
        let mut aged = orig.clone();
        p.perturb_after(&mut aged, 0, 3600.0 * 24.0 * 30.0); // one month
        for ((f, a), o) in fresh.iter().zip(&aged).zip(&orig) {
            assert!((f - o).abs() < 1e-6, "fresh read should be exact");
            assert!(a.abs() < f.abs(), "aged {a} should shrink vs fresh {f}");
            assert_eq!(a.signum(), o.signum(), "drift keeps the sign");
        }
    }

    #[test]
    fn drift_factor_is_monotone_in_time() {
        let r = RetentionConfig::pcm_like();
        let mut prev = 1.0f32;
        for &t in &[0.0, 1.0, 3600.0, 86400.0, 86400.0 * 365.0] {
            let f = r.factor(t);
            assert!(f <= prev + 1e-9, "factor must decay: {f} after {prev}");
            assert!(f > 0.0);
            prev = f;
        }
        assert_eq!(r.factor(0.0), 1.0);
    }

    #[test]
    fn zero_nu_is_identity() {
        let r = RetentionConfig {
            nu: 0.0,
            t0_seconds: 1.0,
        };
        assert_eq!(r.factor(1e9), 1.0);
    }

    #[test]
    fn retention_validation() {
        let bad = VariationConfig::ideal().with_retention(RetentionConfig {
            nu: -0.1,
            t0_seconds: 1.0,
        });
        assert!(bad.validate().is_err());
        let bad = VariationConfig::ideal().with_retention(RetentionConfig {
            nu: 0.1,
            t0_seconds: 0.0,
        });
        assert!(bad.validate().is_err());
    }
}
