//! Monte-Carlo accuracy evaluation under device variation.
//!
//! Implements the evaluation method of Yan et al. (ASP-DAC'21), which the
//! LCDA paper uses as its DNN performance evaluator: sample many chip
//! instances (weight perturbations), measure test accuracy on each, and
//! report the distribution.

use crate::dataset::SynthCifar;
use crate::metrics::accuracy;
use crate::network::Network;
use crate::Result;
use lcda_variation::montecarlo::McStats;
use lcda_variation::VariationConfig;

/// Numeric precision of the Monte-Carlo inference forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full f32 inference (bit-identical to the training forward pass).
    F32,
    /// Int8 inference: per-tensor symmetric quantization of weights and
    /// activations with exact i32 accumulation — models the low-precision
    /// readout of a CiM crossbar. Deterministic, but numerically distinct
    /// from f32, so eval-cache fingerprints must (and do) distinguish it.
    Int8,
}

/// Configuration of a Monte-Carlo accuracy evaluation.
#[derive(Debug, Clone)]
pub struct McEvalConfig {
    /// Number of simulated chip instances.
    pub trials: u32,
    /// The device-variation corner.
    pub variation: VariationConfig,
    /// Base seed; trial `t` uses a seed derived from it.
    pub seed: u64,
    /// Time since programming, seconds (retention drift applies when the
    /// corner configures it; 0 = read immediately).
    pub elapsed_seconds: f64,
    /// Worker threads for the trial fan-out. Every thread count — `1`
    /// included — produces bit-identical statistics, because each trial
    /// derives its own seed and runs on its own copy of the network; the
    /// knob only trades wall-clock for cores.
    pub threads: usize,
    /// Inference precision (f32 by default; int8 is opt-in).
    pub precision: Precision,
}

impl Default for McEvalConfig {
    fn default() -> Self {
        McEvalConfig {
            trials: 16,
            variation: VariationConfig::rram_moderate(),
            seed: 0,
            elapsed_seconds: 0.0,
            threads: 1,
            precision: Precision::F32,
        }
    }
}

/// Evaluates the clean (no-variation) accuracy of a network on a dataset.
///
/// # Errors
///
/// Propagates tensor/shape errors.
pub fn clean_accuracy(network: &mut Network, data: &SynthCifar) -> Result<f32> {
    let preds = network.predict(data.images())?;
    accuracy(&preds, data.labels())
}

/// Runs the Monte-Carlo evaluation: for each trial, perturb the weight
/// matrices the way crossbar programming would, measure accuracy, restore
/// the clean weights.
///
/// Trials run on the fused engine (the private `fused` module), which
/// batches every trial's perturbed weights into one GEMM per layer. In
/// f32 its results are bit-identical to running each trial on its own
/// clone of the network (the per-trial reference in this module's
/// tests), at any thread count. Each weight matrix within a trial draws
/// from its own random stream
/// ([`lcda_variation::montecarlo::stream_seed`]), so no
/// `(trial, matrix)` pair ever aliases another.
///
/// # Errors
///
/// Propagates dataset/tensor errors; zero trials are an error.
pub fn mc_accuracy(
    network: &mut Network,
    data: &SynthCifar,
    config: &McEvalConfig,
) -> Result<McStats> {
    crate::fused::mc_accuracy_fused(network, data, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::network::argmax_rows;
    use crate::trainer::{TrainConfig, Trainer};
    use lcda_variation::montecarlo::{stream_seed, try_run_parallel, TryRunError};
    use lcda_variation::weights::WeightPerturber;

    /// The per-trial reference the fused engine is pinned against, in
    /// f32: every trial programs its own chip instance (a clone of the
    /// clean network), perturbs it and measures it, fanned out across
    /// `config.threads` workers by [`try_run_parallel`].
    fn mc_accuracy_per_trial(
        network: &Network,
        data: &SynthCifar,
        config: &McEvalConfig,
    ) -> Result<McStats> {
        let w_max = network.max_abs_weight().max(1e-3);
        let perturber = WeightPerturber::new(config.variation.clone(), w_max);
        let trial = |_t: u32, seed: u64| -> Result<f32> {
            let mut chip = network.clone();
            let mut matrix_index = 0u64;
            chip.perturb_weight_matrices(|w| {
                perturber.perturb_after(w, stream_seed(seed, matrix_index), config.elapsed_seconds);
                matrix_index += 1;
            });
            // Whole-batch `infer`, not `predict`, so the reference does
            // not share the engine's sample chunking.
            accuracy(&argmax_rows(&chip.infer(data.images())?), data.labels())
        };
        try_run_parallel(config.trials, config.seed, config.threads, trial).map_err(|e| match e {
            TryRunError::ZeroTrials => {
                crate::DnnError::InvalidTraining("monte-carlo evaluation needs trials > 0".into())
            }
            TryRunError::Metric(err) => err,
        })
    }

    fn trained_network_and_data() -> (Network, SynthCifar) {
        let data = SynthCifar::generate_classes(48, 8, 4, 21).unwrap();
        let net = Architecture::tiny_test().build(6).unwrap();
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 8;
        let mut t = Trainer::new(net, cfg);
        t.fit(&data).unwrap();
        (t.into_network(), data)
    }

    #[test]
    fn ideal_variation_matches_clean_accuracy() {
        let (mut net, data) = trained_network_and_data();
        let clean = clean_accuracy(&mut net, &data).unwrap();
        let stats = mc_accuracy(
            &mut net,
            &data,
            &McEvalConfig {
                trials: 3,
                variation: VariationConfig::ideal(),
                ..McEvalConfig::default()
            },
        )
        .unwrap();
        assert!((stats.mean - clean).abs() < 1e-6);
        assert_eq!(stats.std, 0.0);
    }

    #[test]
    fn variation_degrades_accuracy_on_average() {
        let (mut net, data) = trained_network_and_data();
        let clean = clean_accuracy(&mut net, &data).unwrap();
        let stats = mc_accuracy(
            &mut net,
            &data,
            &McEvalConfig {
                trials: 12,
                variation: VariationConfig::rram_severe(),
                seed: 1,
                ..McEvalConfig::default()
            },
        )
        .unwrap();
        assert!(
            stats.mean <= clean + 0.05,
            "severe variation should not help: clean={clean} mc={}",
            stats.mean
        );
        assert!(stats.std >= 0.0);
    }

    #[test]
    fn weights_restored_after_evaluation() {
        let (mut net, data) = trained_network_and_data();
        let before = net.snapshot_weights();
        mc_accuracy(&mut net, &data, &McEvalConfig::default()).unwrap();
        assert_eq!(net.snapshot_weights(), before);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut net, data) = trained_network_and_data();
        let cfg = McEvalConfig {
            trials: 5,
            seed: 9,
            ..McEvalConfig::default()
        };
        let a = mc_accuracy(&mut net, &data, &cfg).unwrap();
        let b = mc_accuracy(&mut net, &data, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn any_thread_count_is_bit_identical_to_sequential() {
        let (mut net, data) = trained_network_and_data();
        let base = McEvalConfig {
            trials: 8,
            seed: 4,
            ..McEvalConfig::default()
        };
        let seq = mc_accuracy(&mut net, &data, &base).unwrap();
        for threads in [2, 3, 8, 64] {
            let threaded = McEvalConfig {
                threads,
                ..base.clone()
            };
            let par = mc_accuracy(&mut net, &data, &threaded).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_behaves_as_one() {
        let (mut net, data) = trained_network_and_data();
        let cfg = McEvalConfig {
            trials: 3,
            ..McEvalConfig::default()
        };
        let one = mc_accuracy(&mut net, &data, &cfg).unwrap();
        let zero_threads = McEvalConfig {
            threads: 0,
            ..cfg.clone()
        };
        let zero = mc_accuracy(&mut net, &data, &zero_threads).unwrap();
        assert_eq!(one, zero);
    }

    #[test]
    fn zero_trials_rejected() {
        let (mut net, data) = trained_network_and_data();
        let cfg = McEvalConfig {
            trials: 0,
            ..McEvalConfig::default()
        };
        assert!(mc_accuracy(&mut net, &data, &cfg).is_err());
        assert!(mc_accuracy_per_trial(&net, &data, &cfg).is_err());
    }

    /// 37 samples: two full chunks of `INFER_BATCH` and a ragged one (the
    /// 48 training samples make three full chunks).
    fn ragged_data() -> SynthCifar {
        SynthCifar::generate_classes(37, 8, 4, 23).unwrap()
    }

    #[test]
    fn fused_is_bit_identical_to_per_trial_sequential() {
        let (mut net, data) = trained_network_and_data();
        let base = McEvalConfig {
            trials: 7,
            seed: 13,
            ..McEvalConfig::default()
        };
        for data in [data, ragged_data()] {
            let reference = mc_accuracy_per_trial(&net, &data, &base).unwrap();
            for threads in [1, 2, 4] {
                let fused = mc_accuracy(
                    &mut net,
                    &data,
                    &McEvalConfig {
                        threads,
                        ..base.clone()
                    },
                )
                .unwrap();
                assert_eq!(reference, fused, "fused threads={threads} n={}", data.len());
            }
        }
    }

    #[test]
    fn per_trial_threads_match_fused() {
        // Cross-check the other axis: the per-trial fan-out at several
        // thread counts also lands exactly on the fused result.
        let (mut net, data) = trained_network_and_data();
        let base = McEvalConfig {
            trials: 6,
            seed: 2,
            ..McEvalConfig::default()
        };
        for data in [data, ragged_data()] {
            let fused = mc_accuracy(&mut net, &data, &base).unwrap();
            for threads in [1, 2, 4] {
                let per_trial = mc_accuracy_per_trial(
                    &net,
                    &data,
                    &McEvalConfig {
                        threads,
                        ..base.clone()
                    },
                )
                .unwrap();
                assert_eq!(
                    fused,
                    per_trial,
                    "per-trial threads={threads} n={}",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn int8_is_deterministic_and_thread_invariant() {
        let (mut net, data) = trained_network_and_data();
        let cfg = McEvalConfig {
            trials: 5,
            seed: 3,
            precision: Precision::Int8,
            ..McEvalConfig::default()
        };
        let a = mc_accuracy(&mut net, &data, &cfg).unwrap();
        let b = mc_accuracy(&mut net, &data, &cfg).unwrap();
        assert_eq!(a, b);
        for threads in [2, 4] {
            let threaded = McEvalConfig {
                threads,
                ..cfg.clone()
            };
            let par = mc_accuracy(&mut net, &data, &threaded).unwrap();
            assert_eq!(a, par, "int8 threads={threads}");
        }
    }

    #[test]
    fn int8_tracks_f32_under_ideal_variation() {
        let (mut net, data) = trained_network_and_data();
        let clean = clean_accuracy(&mut net, &data).unwrap();
        let stats = mc_accuracy(
            &mut net,
            &data,
            &McEvalConfig {
                trials: 2,
                variation: VariationConfig::ideal(),
                precision: Precision::Int8,
                ..McEvalConfig::default()
            },
        )
        .unwrap();
        // Quantization costs some accuracy but must stay in the same
        // ballpark on this easy synthetic task.
        assert!(
            (stats.mean - clean).abs() < 0.25,
            "int8 mean {} strayed too far from f32 clean {clean}",
            stats.mean
        );
    }

    #[test]
    fn int8_weights_restored_after_evaluation() {
        let (mut net, data) = trained_network_and_data();
        let before = net.snapshot_weights();
        let cfg = McEvalConfig {
            trials: 3,
            precision: Precision::Int8,
            ..McEvalConfig::default()
        };
        mc_accuracy(&mut net, &data, &cfg).unwrap();
        assert_eq!(net.snapshot_weights(), before);
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::trainer::{TrainConfig, Trainer};
    use lcda_variation::RetentionConfig;

    #[test]
    fn accuracy_decays_with_retention_time() {
        let data = SynthCifar::generate_classes(48, 8, 4, 41).unwrap();
        let net = Architecture::tiny_test().build(12).unwrap();
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 8;
        let mut t = Trainer::new(net, cfg);
        t.fit(&data).unwrap();
        let mut net = t.into_network();

        let variation = VariationConfig::ideal().with_retention(RetentionConfig {
            nu: 0.2, // exaggerated drift so the tiny model shows the effect
            t0_seconds: 1.0,
        });
        let acc_at = |net: &mut crate::network::Network, secs: f64| {
            mc_accuracy(
                net,
                &data,
                &McEvalConfig {
                    trials: 4,
                    variation: variation.clone(),
                    seed: 5,
                    elapsed_seconds: secs,
                    ..McEvalConfig::default()
                },
            )
            .unwrap()
            .mean
        };
        let fresh = acc_at(&mut net, 0.0);
        let aged = acc_at(&mut net, 3600.0 * 24.0 * 365.0);
        assert!(
            aged <= fresh + 1e-6,
            "year-old weights should not read better: {aged} vs {fresh}"
        );
    }
}
