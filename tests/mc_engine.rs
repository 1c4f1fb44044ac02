//! Pins `mc_accuracy`'s statistics bit for bit.
//!
//! The bit patterns below were recorded from the fused Monte-Carlo engine
//! this crate ran before its per-trial engine replaced it. The grid
//! crosses the 16-sample inference chunk (`n` of 16, 17 and 48), one to
//! five chip instances, one to four worker threads, and one retention
//! corner read long after programming. Any change to trial seeding,
//! per-matrix streams, sample chunking or the thread split moves a bit
//! here.

use lcda::dnn::arch::Architecture;
use lcda::dnn::dataset::SynthCifar;
use lcda::dnn::mc_eval::{mc_accuracy, McEvalConfig};
use lcda::dnn::network::Network;
use lcda::dnn::trainer::{TrainConfig, Trainer};
use lcda::variation::montecarlo::McStats;
use lcda::variation::{RetentionConfig, VariationConfig};

const ARCH_SEED: u64 = 6;
const MC_SEED: u64 = 13;

/// `(n, trials, [mean, std, min, max] as f32 bits)` under
/// `VariationConfig::rram_severe()`, read at programming time.
const PINNED: &[(usize, u32, [u32; 4])] = &[
    (16, 1, [1062207488, 0, 1062207488, 1062207488]),
    (16, 4, [1059061760, 1042072689, 1056964608, 1062207488]),
    (16, 5, [1058432614, 1042326404, 1054867456, 1062207488]),
    (17, 1, [1062392531, 0, 1062392531, 1062392531]),
    (17, 4, [1058938398, 1042243100, 1055977713, 1062392531]),
    (17, 5, [1058247571, 1042752875, 1054003923, 1062392531]),
    (48, 1, [1060459861, 0, 1060459861, 1060459861]),
    (48, 4, [1058362709, 1039714700, 1056265557, 1060459861]),
    (48, 5, [1057733563, 1040827098, 1053469355, 1060459861]),
];

/// The same corner plus `RetentionConfig::rram_like()` drift, read one
/// year (3.15e7 s) after programming: 17 samples, 5 trials.
const PINNED_AGED: [u32; 4] = [1057655434, 1035120592, 1054003923, 1059431846];

/// A tiny network trained without noise. The trainer's last forward
/// pass leaves its layer caches and gradients filled.
fn trained_tiny_net() -> Network {
    let data = SynthCifar::generate_classes(48, 8, 4, 21).unwrap();
    let mut cfg = TrainConfig::fast_test();
    cfg.epochs = 8;
    let mut trainer = Trainer::new(Architecture::tiny_test().build(ARCH_SEED).unwrap(), cfg);
    trainer.fit(&data).unwrap();
    trainer.into_network()
}

fn test_set(n: usize) -> SynthCifar {
    SynthCifar::generate_classes(n, 8, 4, 31).unwrap()
}

fn severe(trials: u32, threads: usize) -> McEvalConfig {
    McEvalConfig {
        trials,
        variation: VariationConfig::rram_severe(),
        seed: MC_SEED,
        threads,
        ..McEvalConfig::default()
    }
}

/// Every statistic's bit pattern, so `-0.0` and NaN compare exactly.
fn bits(s: &McStats) -> [u32; 4] {
    [s.mean, s.std, s.min, s.max].map(f32::to_bits)
}

fn weight_bits(net: &Network) -> Vec<Vec<u32>> {
    net.snapshot_weights()
        .iter()
        .map(|p| p.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn mc_accuracy_reproduces_the_recorded_bits_at_every_thread_count() {
    let mut net = trained_tiny_net();
    for &(n, trials, want) in PINNED {
        let data = test_set(n);
        for threads in [1, 2, 4] {
            let stats = mc_accuracy(&mut net, &data, &severe(trials, threads)).unwrap();
            assert_eq!(stats.trials, trials);
            assert_eq!(
                bits(&stats),
                want,
                "n={n} trials={trials} threads={threads}: {stats:?}"
            );
        }
    }
    let data = test_set(17);
    for threads in [1, 2, 4] {
        let aged = McEvalConfig {
            variation: VariationConfig::rram_severe().with_retention(RetentionConfig::rram_like()),
            elapsed_seconds: 3.15e7,
            ..severe(5, threads)
        };
        let stats = mc_accuracy(&mut net, &data, &aged).unwrap();
        assert_eq!(
            bits(&stats),
            PINNED_AGED,
            "aged, threads={threads}: {stats:?}"
        );
    }
}

#[test]
fn a_network_holding_training_caches_scores_alike_and_keeps_its_weights() {
    // `trained` still holds the caches and gradients of its last
    // training step; `bare` carries the same weights and neither.
    let mut trained = trained_tiny_net();
    let mut bare = Architecture::tiny_test().build(ARCH_SEED).unwrap();
    bare.restore_weights(&trained.snapshot_weights());
    let before = weight_bits(&trained);
    let data = test_set(17);
    for threads in [1, 2, 4] {
        let config = severe(5, threads);
        let with_caches = mc_accuracy(&mut trained, &data, &config).unwrap();
        let without = mc_accuracy(&mut bare, &data, &config).unwrap();
        assert_eq!(bits(&with_caches), bits(&without), "threads={threads}");
        assert_eq!(bits(&with_caches), PINNED[5].2, "threads={threads}");
        assert_eq!(weight_bits(&trained), before, "threads={threads}");
    }
}

/// The benchmark package under `perf/` builds against these calls,
/// exactly as `perf/src/workloads.rs` and `perf/src/trace.rs` make them:
/// the one-variant `Precision`, the `precision` fields of
/// `TrainedEvalConfig` and `McEvalConfig`, and the tensor kernels it
/// times. A change that breaks them fails here rather than in a
/// benchmark run.
#[test]
fn perf_call_shape_keeps_the_trained_vestiges() -> Result<(), String> {
    use lcda::prelude::{AccuracyEvaluator, DesignSpace};
    use lcda_core::trained::{TrainedEvalConfig, TrainedEvaluator};
    use lcda_dnn::mc_eval::{mc_accuracy, McEvalConfig, Precision};
    use lcda_tensor::ops::{gemm_f32, gemm_ref, im2col_batch, ConvGeometry};
    use lcda_tensor::{Shape, Tensor};
    fn err(e: impl std::fmt::Display) -> String {
        e.to_string()
    }

    // workloads.rs: the trained workload's evaluator configuration.
    let config = TrainedEvalConfig {
        train_samples: 64,
        test_samples: 32,
        epochs: 1,
        mc_trials: 4,
        seed: 1,
        threads: 1,
        precision: Precision::F32,
    };
    let space = DesignSpace::tiny_test();
    let design = space
        .choices
        .decode(&[1, 1, 1, 1, 0, 0, 0, 0])
        .map_err(err)?;
    let mut evaluator = TrainedEvaluator::new(space, config.clone()).map_err(err)?;
    let accuracy = evaluator.accuracy(&design).map_err(err)?;
    assert!((0.0..=1.0).contains(&accuracy), "{accuracy}");

    // trace.rs: the tensor kernels, then one Monte-Carlo pass.
    let geom = ConvGeometry::new(2, 4, 4, 3, 1, 1).map_err(err)?;
    let input = Tensor::from_vec(
        Shape::d4(2, 2, 4, 4),
        (0..64).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect(),
    )
    .map_err(err)?;
    let cols = im2col_batch(&input, &geom).map_err(err)?;
    let (m, k, n) = (3, geom.patch_rows(), cols.len() / geom.patch_rows());
    let weights: Vec<f32> = (0..m * k).map(|i| ((i % 7) as f32 - 3.0) * 0.01).collect();
    let mut products = Vec::new();
    for kernel_fn in [
        gemm_f32 as fn(usize, usize, usize, &[f32], &[f32], &mut [f32]),
        gemm_ref,
    ] {
        let mut c = vec![0.0f32; m * n];
        kernel_fn(m, k, n, &weights, cols.as_slice(), &mut c);
        products.push(c);
    }
    assert_eq!(products[0], products[1]);

    let mut network = trained_tiny_net();
    let mc = McEvalConfig {
        trials: config.mc_trials,
        variation: VariationConfig::rram_severe(),
        seed: MC_SEED,
        threads: config.threads,
        precision: Precision::F32,
        ..McEvalConfig::default()
    };
    let stats = mc_accuracy(&mut network, &test_set(16), &mc).map_err(err)?;
    assert_eq!(bits(&stats), PINNED[1].2);
    Ok(())
}
