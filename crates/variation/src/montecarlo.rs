//! Monte-Carlo seeding and statistics.
//!
//! The paper evaluates DNN performance under device variation "using the
//! Monte Carlo simulation-based method" (Yan et al., ASP-DAC'21): sample
//! many chip instances, measure accuracy on each, report the distribution.
//! This module holds the pieces every such run shares: the per-trial and
//! per-stream seed derivations and the summary statistics. The trial loop
//! itself is `lcda_dnn::mc_eval::mc_accuracy`.

use crate::{Result, VariationError};

/// Summary statistics of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct McStats {
    /// Number of trials.
    pub trials: u32,
    /// Sample mean.
    pub mean: f32,
    /// Sample standard deviation (Bessel-corrected).
    pub std: f32,
    /// Minimum observed value.
    pub min: f32,
    /// Maximum observed value.
    pub max: f32,
}

impl McStats {
    /// Computes statistics from raw per-trial values.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::ZeroTrials`] for an empty sample.
    pub fn from_samples(samples: &[f32]) -> Result<Self> {
        if samples.is_empty() {
            return Err(VariationError::ZeroTrials);
        }
        let n = samples.len() as f32;
        let mean = samples.iter().sum::<f32>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / (n - 1.0)
        } else {
            0.0
        };
        Ok(McStats {
            trials: samples.len() as u32,
            mean,
            std: var.sqrt(),
            min: samples.iter().copied().fold(f32::INFINITY, f32::min),
            max: samples.iter().copied().fold(f32::NEG_INFINITY, f32::max),
        })
    }
}

/// Derives the deterministic seed of trial `t` from a base seed.
pub fn trial_seed(base_seed: u64, t: u32) -> u64 {
    // SplitMix64-style mixing keeps adjacent trials decorrelated.
    let mut z = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of sub-stream `stream` within a trial.
///
/// **Stream-separation invariant.** A Monte-Carlo trial often needs
/// several independent random streams (one per weight matrix, say). Naive
/// derivations like `trial_seed + stream` break down because adjacent
/// trial seeds can collide across `(trial, stream)` pairs — trial `t`
/// stream `k+1` must never alias trial `t'` stream `k`. This function
/// therefore re-mixes *both* inputs through a full-avalanche finalizer
/// (the MurmurHash3 constants, deliberately different from
/// [`trial_seed`]'s SplitMix64 constants so the two derivations never
/// produce overlapping sequences): every output bit depends on every bit
/// of `(seed, stream)`, so distinct pairs map to distinct streams with
/// collision probability ~2⁻⁶⁴.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1));
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant() {
        let s = McStats::from_samples(&[2.0, 2.0, 2.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn stats_known_values() {
        let s = McStats::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.mean, 2.5);
        // Bessel-corrected variance = 5/3.
        assert!((s.std - (5.0f32 / 3.0).sqrt()).abs() < 1e-5);
        assert_eq!((s.min, s.max), (1.0, 4.0));
    }

    #[test]
    fn single_sample_has_zero_std() {
        // The n == 1 guard of the sample-variance convention (shared with
        // Tensor::std, which pins the same [1,2,3,4] -> sqrt(5/3) value).
        let s = McStats::from_samples(&[0.75]).unwrap();
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 0.75);
        assert_eq!((s.min, s.max), (0.75, 0.75));
    }

    #[test]
    fn empty_sample_rejected() {
        assert_eq!(McStats::from_samples(&[]), Err(VariationError::ZeroTrials));
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for t in 0..10_000u32 {
            assert!(seen.insert(trial_seed(42, t)));
        }
    }

    #[test]
    fn stream_seeds_are_distinct_across_trial_stream_pairs() {
        // The collision the naive `seed + stream` derivation suffers:
        // (trial t, stream k+1) vs (trial t', stream k). Mixed streams
        // must keep every pair distinct.
        let mut seen = std::collections::HashSet::new();
        for t in 0..200u32 {
            let ts = trial_seed(7, t);
            for m in 0..64u64 {
                assert!(seen.insert(stream_seed(ts, m)), "collision at t={t} m={m}");
            }
        }
    }

    #[test]
    fn naive_additive_streams_do_collide() {
        // Documents why stream_seed exists: additive derivation aliases
        // whenever two trial seeds differ by less than the stream count.
        let a = 100u64.wrapping_add(3);
        let b = 101u64.wrapping_add(2);
        assert_eq!(a, b);
        assert_ne!(stream_seed(100, 3), stream_seed(101, 2));
    }
}
