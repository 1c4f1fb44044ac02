//! Monte-Carlo accuracy evaluation under device variation.
//!
//! Implements the evaluation method of Yan et al. (ASP-DAC'21), which the
//! LCDA paper uses as its DNN performance evaluator: sample many chip
//! instances (weight perturbations), measure test accuracy on each, and
//! report the distribution.

use crate::dataset::SynthCifar;
use crate::metrics::accuracy;
use crate::network::Network;
use crate::{DnnError, Result};
use lcda_variation::montecarlo::{stream_seed, trial_seed, McStats};
use lcda_variation::weights::WeightPerturber;
use lcda_variation::VariationConfig;

/// Numeric precision of the Monte-Carlo inference forward pass.
///
/// f32 is the only precision. The type and the `precision` fields that
/// carry it remain so that the benchmark crate under `perf/` builds
/// unchanged; they select nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full f32 inference (bit-identical to the training forward pass).
    F32,
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
    /// derives its own seed and is scored on its own chip instance; the
    /// knob only trades wall-clock (and one weights-only network copy per
    /// extra worker) for cores.
    pub threads: usize,
    /// Inference precision; always [`Precision::F32`] (see [`Precision`]).
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
/// matrices the way crossbar programming would, measure accuracy with
/// [`Network::predict`], restore the clean weights.
///
/// Trials run one chip instance at a time, in place: the clean weights
/// are snapshotted once, and each trial perturbs the network, scores it
/// and restores the snapshot, so only one perturbed copy of the weights
/// is ever live per worker. Trial `t` perturbs weight matrix `m` from
/// `stream_seed(trial_seed(seed, t), m)`
/// ([`lcda_variation::montecarlo::stream_seed`]), so no `(trial, matrix)`
/// pair ever aliases another.
///
/// With `config.threads > 1` the trials split into contiguous chunks of
/// `ceil(trials / threads)` trials. The calling thread runs the first
/// chunk on `network`; every other worker runs its chunk on a
/// weights-only copy, without the training caches and gradients
/// `network` may hold. Each trial's accuracy depends only
/// on its own seed, so every thread count gives the same statistics bit
/// for bit, and a failure reports the lowest failing trial's error.
///
/// `network` comes back with bit-identical weights, and any training
/// caches it held are left as they were.
///
/// # Errors
///
/// Propagates dataset/tensor errors; zero trials are an error.
pub fn mc_accuracy(
    network: &mut Network,
    data: &SynthCifar,
    config: &McEvalConfig,
) -> Result<McStats> {
    let zero_trials =
        || DnnError::InvalidTraining("monte-carlo evaluation needs trials > 0".into());
    let trials = config.trials as usize;
    if trials == 0 {
        return Err(zero_trials());
    }
    let clean = network.snapshot_weights();
    let perturber =
        WeightPerturber::new(config.variation.clone(), network.max_abs_weight().max(1e-3));
    // Scores trials `[lo, hi)` on `chip`, restoring the clean weights
    // after each one, failed or not.
    let run_chunk = |chip: &mut Network, lo: usize, hi: usize| -> Result<Vec<f32>> {
        (lo..hi)
            .map(|t| {
                let seed = trial_seed(config.seed, t as u32);
                let mut matrix = 0u64;
                chip.perturb_weight_matrices(|w| {
                    perturber.perturb_after(w, stream_seed(seed, matrix), config.elapsed_seconds);
                    matrix += 1;
                });
                let score = chip
                    .predict(data.images())
                    .and_then(|preds| accuracy(&preds, data.labels()));
                chip.restore_weights(&clean);
                score
            })
            .collect()
    };
    let chunk = trials.div_ceil(config.threads.clamp(1, trials));
    let samples = if chunk == trials {
        run_chunk(network, 0, trials)?
    } else {
        let mut chips: Vec<Network> = (1..trials.div_ceil(chunk))
            .map(|_| network.weights_only())
            .collect();
        let run_chunk = &run_chunk;
        let parts = std::thread::scope(|s| {
            let workers: Vec<_> = chips
                .iter_mut()
                .zip(1..)
                .map(|(chip, w)| {
                    let lo = w * chunk;
                    s.spawn(move || run_chunk(chip, lo, (lo + chunk).min(trials)))
                })
                .collect();
            let mut parts = vec![run_chunk(network, 0, chunk)];
            parts.extend(workers.into_iter().map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }));
            parts
        });
        parts.into_iter().collect::<Result<Vec<_>>>()?.concat()
    };
    McStats::from_samples(&samples).map_err(|_| zero_trials())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::trainer::{TrainConfig, Trainer};

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
    }

    #[test]
    fn a_failing_trial_still_restores_the_weights() {
        // 16x16 images pass the convolutions but not the dense layer
        // sized for 8x8 inputs, so every trial fails after perturbing.
        let (mut net, _) = trained_network_and_data();
        let wrong_size = SynthCifar::generate_classes(4, 16, 4, 3).unwrap();
        let before = net.snapshot_weights();
        for threads in [1, 2] {
            let cfg = McEvalConfig {
                trials: 3,
                threads,
                ..McEvalConfig::default()
            };
            assert!(mc_accuracy(&mut net, &wrong_size, &cfg).is_err());
            assert_eq!(net.snapshot_weights(), before, "threads={threads}");
        }
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
