//! The trained accuracy evaluator: real noise-injection training plus
//! Monte-Carlo evaluation (§III-C), on the synthetic dataset.
//!
//! This is the faithful — and much slower — counterpart of the
//! [`crate::surrogate::SurrogateEvaluator`]. Integration tests use it on a
//! scaled-down design space to verify that the surrogate's orderings agree
//! with actually training networks.

use crate::evaluate::AccuracyEvaluator;
use crate::journal::{Journal, JournalEvent};
use crate::space::DesignSpace;
use crate::{CoreError, Result};
use lcda_dnn::dataset::SynthCifar;
use lcda_dnn::mc_eval::{mc_accuracy, McEvalConfig, Precision};
use lcda_dnn::trainer::{TrainConfig, Trainer};
use lcda_llm::design::CandidateDesign;

/// Configuration of the trained evaluator.
#[derive(Debug, Clone)]
pub struct TrainedEvalConfig {
    /// Training samples to synthesize.
    pub train_samples: usize,
    /// Held-out samples for accuracy measurement.
    pub test_samples: usize,
    /// Training epochs.
    pub epochs: u32,
    /// Monte-Carlo trials for the variation evaluation.
    pub mc_trials: u32,
    /// Master seed (dataset, weights, noise, MC trials all derive from
    /// it).
    pub seed: u64,
    /// Worker threads for the Monte-Carlo trial fan-out; bit-identical
    /// for every value (see [`lcda_dnn::mc_eval::McEvalConfig::threads`]).
    pub threads: usize,
    /// Inference precision for the Monte-Carlo forward pass; always
    /// [`Precision::F32`], kept for the benchmark crate under `perf/`
    /// (see [`Precision`]). It is not part of the fingerprint.
    pub precision: Precision,
}

impl TrainedEvalConfig {
    /// A configuration small enough for integration tests.
    pub fn fast_test() -> Self {
        TrainedEvalConfig {
            train_samples: 96,
            test_samples: 32,
            epochs: 6,
            mc_trials: 4,
            seed: 0,
            threads: 1,
            precision: Precision::F32,
        }
    }

    /// A configuration sized for interactive CLI searches: big enough to
    /// rank designs meaningfully, small enough that an episode finishes in
    /// seconds rather than minutes (the [`Default`] config is the faithful
    /// but slow one).
    pub fn search_default() -> Self {
        TrainedEvalConfig {
            train_samples: 256,
            test_samples: 96,
            epochs: 8,
            mc_trials: 8,
            seed: 0,
            threads: 1,
            precision: Precision::F32,
        }
    }
}

impl Default for TrainedEvalConfig {
    fn default() -> Self {
        TrainedEvalConfig {
            train_samples: 2048,
            test_samples: 512,
            epochs: 12,
            mc_trials: 16,
            seed: 0,
            threads: 1,
            precision: Precision::F32,
        }
    }
}

/// Trains each candidate with noise injection and scores it by mean
/// Monte-Carlo accuracy under its technology's variation corner.
#[derive(Debug)]
pub struct TrainedEvaluator {
    space: DesignSpace,
    config: TrainedEvalConfig,
    train: SynthCifar,
    test: SynthCifar,
    journal: Journal,
}

impl TrainedEvaluator {
    /// Creates the evaluator, synthesizing its train/test datasets once.
    ///
    /// # Errors
    ///
    /// Propagates dataset generation errors.
    pub fn new(space: DesignSpace, config: TrainedEvalConfig) -> Result<Self> {
        let train = SynthCifar::generate_classes(
            config.train_samples,
            space.in_size as usize,
            space.classes as usize,
            config.seed,
        )?;
        let test = SynthCifar::generate_classes(
            config.test_samples,
            space.in_size as usize,
            space.classes as usize,
            config.seed.wrapping_add(0xD1CE),
        )?;
        Ok(TrainedEvaluator {
            space,
            config,
            train,
            test,
            journal: Journal::disabled(),
        })
    }

    /// The held-out dataset (exposed for diagnostics).
    pub fn test_data(&self) -> &SynthCifar {
        &self.test
    }
}

impl AccuracyEvaluator for TrainedEvaluator {
    fn accuracy(&mut self, design: &CandidateDesign) -> Result<f64> {
        let arch = self.space.architecture(design)?;
        let variation = self.space.variation(design)?;
        let network = arch
            .build(self.config.seed.wrapping_add(0xA11CE))
            .map_err(CoreError::from)?;
        let mut train_cfg = TrainConfig::standard().with_noise_injection(variation.clone());
        train_cfg.epochs = self.config.epochs;
        train_cfg.seed = self.config.seed;
        let mut trainer = Trainer::new(network, train_cfg);
        trainer.fit(&self.train)?;
        let mut network = trainer.into_network();
        let stats = mc_accuracy(
            &mut network,
            &self.test,
            &McEvalConfig {
                trials: self.config.mc_trials,
                variation,
                seed: self.config.seed.wrapping_add(0x4D43),
                threads: self.config.threads,
                precision: self.config.precision,
                ..McEvalConfig::default()
            },
        )?;
        self.journal.record(JournalEvent::McBatch {
            trials: self.config.mc_trials,
            threads: self.config.threads as u64,
            mean: f64::from(stats.mean),
        });
        Ok(f64::from(stats.mean))
    }

    fn name(&self) -> &'static str {
        "trained"
    }

    fn fingerprint(&self) -> String {
        // threads is deliberately excluded: results are bit-identical for
        // every thread count, so a cache written at 1 thread must serve a
        // run at 8.
        let space = crate::identity::space_json(&self.space);
        let counts = [
            self.config.train_samples.to_string(),
            self.config.test_samples.to_string(),
            self.config.epochs.to_string(),
            self.config.mc_trials.to_string(),
            self.config.seed.to_string(),
        ];
        let mut refs: Vec<&str> = vec![&space];
        refs.extend(counts.iter().map(String::as_str));
        format!("trained/{}", crate::pipeline::stable_fingerprint(&refs))
    }

    fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_tiny_design_above_chance() {
        let space = DesignSpace::tiny_test();
        let mut eval =
            TrainedEvaluator::new(space.clone(), TrainedEvalConfig::fast_test()).unwrap();
        let d = space.choices.decode(&[1, 1, 1, 1, 0, 0, 0, 0]).unwrap();
        let acc = eval.accuracy(&d).unwrap();
        // 4 classes → chance 0.25; the trained net must beat it.
        assert!(acc > 0.3, "accuracy {acc}");
        assert!(acc <= 1.0);
    }

    #[test]
    fn deterministic_given_config_and_thread_invariant() {
        let space = DesignSpace::tiny_test();
        let d = space.choices.decode(&[0, 1, 1, 1, 0, 0, 0, 0]).unwrap();
        let a = TrainedEvaluator::new(space.clone(), TrainedEvalConfig::fast_test())
            .unwrap()
            .accuracy(&d)
            .unwrap();
        // A multi-threaded Monte-Carlo sweep must be bit-identical — and
        // must share the single-threaded evaluator's cache fingerprint.
        let mut parallel = TrainedEvaluator::new(space, TrainedEvalConfig::fast_test()).unwrap();
        let serial_fp = parallel.fingerprint();
        parallel.set_threads(3);
        assert_eq!(parallel.fingerprint(), serial_fp);
        let b = parallel.accuracy(&d).unwrap();
        assert_eq!(a, b);
    }
}
