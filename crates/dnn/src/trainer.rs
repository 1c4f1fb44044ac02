//! Training loops, including the paper's noise-injection training.
//!
//! §III-C: "As DNN models deployed on CiM DNN accelerators are susceptible
//! to the influence of device variations, we employ the noise injection
//! training method for each DNN topology." Noise-injection training
//! perturbs the weights *before* each forward/backward pass the same way
//! the crossbar would, computes gradients at the perturbed point, and
//! applies them to the clean weights — producing models whose loss
//! landscape is flat around the programmed weights.

use crate::dataset::SynthCifar;
use crate::network::Network;
use crate::{DnnError, Result};
use lcda_tensor::ops::cross_entropy_loss;
use lcda_tensor::optim::Sgd;
use lcda_variation::weights::WeightPerturber;
use lcda_variation::VariationConfig;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: u32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// When set, noise-injection training with this variation corner.
    pub noise_injection: Option<VariationConfig>,
    /// RNG seed for batch ordering and injected noise.
    pub seed: u64,
}

impl TrainConfig {
    /// A reasonable default for the synthetic dataset.
    pub fn standard() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 16,
            learning_rate: 0.02,
            momentum: 0.9,
            noise_injection: None,
            seed: 0,
        }
    }

    /// A minimal configuration for fast unit/doc tests.
    pub fn fast_test() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 8,
            learning_rate: 0.05,
            momentum: 0.9,
            noise_injection: None,
            seed: 0,
        }
    }

    /// Enables noise-injection training with the given corner.
    pub fn with_noise_injection(mut self, config: VariationConfig) -> Self {
        self.noise_injection = Some(config);
        self
    }

    /// Validates hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidTraining`] for zero epochs/batch or a
    /// non-positive learning rate.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(DnnError::InvalidTraining(
                "epochs and batch size must be positive".into(),
            ));
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(DnnError::InvalidTraining(
                "learning rate must be positive".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(DnnError::InvalidTraining(
                "momentum must be in [0, 1)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::standard()
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
}

/// Drives training of one [`Network`].
#[derive(Debug)]
pub struct Trainer {
    network: Network,
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer owning the network.
    pub fn new(network: Network, config: TrainConfig) -> Self {
        Trainer { network, config }
    }

    /// Consumes the trainer, returning the trained network.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// Trains on the dataset and reports per-epoch losses.
    ///
    /// With `noise_injection` set, each batch perturbs the weight matrices
    /// with a fresh variation sample before the forward/backward pass and
    /// restores the clean weights before the optimizer update.
    ///
    /// # Errors
    ///
    /// Propagates configuration and tensor errors.
    pub fn fit(&mut self, data: &SynthCifar) -> Result<TrainReport> {
        self.config.validate()?;
        let mut opt = Sgd::with_momentum(self.config.learning_rate, self.config.momentum);
        self.network.register_params(&mut opt);
        let n = data.len();
        let bs = self.config.batch_size.min(n);
        let mut epoch_losses = Vec::with_capacity(self.config.epochs as usize);
        let mut noise_seed = self.config.seed.wrapping_mul(0x5851_F42D_4C95_7F2D);

        for epoch in 0..self.config.epochs {
            let mut total = 0.0f32;
            let mut batches = 0u32;
            let mut start = 0usize;
            // Simple LR decay keeps late epochs stable.
            let decay = 1.0 / (1.0 + 0.1 * epoch as f32);
            opt.set_learning_rate(self.config.learning_rate * decay);
            while start < n {
                let len = bs.min(n - start);
                let (x, y) = data.batch(start, len)?;
                let loss = match self.config.noise_injection.clone() {
                    None => self.network.train_step(&x, &y, &mut opt)?,
                    Some(corner) => {
                        noise_seed = noise_seed.wrapping_add(0x9E37_79B9);
                        self.noisy_step(&x, &y, &mut opt, &corner, noise_seed)?
                    }
                };
                total += loss;
                batches += 1;
                start += len;
            }
            epoch_losses.push(total / batches.max(1) as f32);
        }
        Ok(TrainReport { epoch_losses })
    }

    /// One noise-injection step: perturb → forward/backward → restore →
    /// update.
    fn noisy_step(
        &mut self,
        x: &lcda_tensor::Tensor,
        y: &[usize],
        opt: &mut Sgd,
        corner: &VariationConfig,
        seed: u64,
    ) -> Result<f32> {
        let w_max = self.network.max_abs_weight().max(1e-3);
        let perturber = WeightPerturber::new(corner.clone(), w_max);
        let clean = self.network.snapshot_weights();
        let mut matrix_index = 0u64;
        self.network.perturb_weight_matrices(|w| {
            perturber.perturb(w, seed.wrapping_add(matrix_index));
            matrix_index += 1;
        });
        self.network.zero_grad();
        let logits = self.network.forward(x)?;
        let (loss, d_logits) = cross_entropy_loss(&logits, y)?;
        self.network.backward(&d_logits)?;
        // Gradients were taken at the perturbed point; apply them to the
        // clean weights (standard noise-injection training).
        self.network.restore_weights(&clean);
        self.network.apply_grads(opt)?;
        Ok(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::mc_eval::clean_accuracy;

    fn data() -> SynthCifar {
        SynthCifar::generate_classes(64, 8, 4, 11).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::standard().validate().is_ok());
        let mut c = TrainConfig::standard();
        c.epochs = 0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::standard();
        c.learning_rate = -1.0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::standard();
        c.momentum = 1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let net = Architecture::tiny_test().build(1).unwrap();
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 6;
        let mut t = Trainer::new(net, cfg);
        let report = t.fit(&data()).unwrap();
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "losses {:?}", report.epoch_losses);
    }

    #[test]
    fn learns_above_chance() {
        let net = Architecture::tiny_test().build(2).unwrap();
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 10;
        let mut t = Trainer::new(net, cfg);
        let data = data();
        t.fit(&data).unwrap();
        let accuracy = clean_accuracy(&mut t.into_network(), &data).unwrap();
        // 4 classes → chance is 0.25.
        assert!(accuracy > 0.4, "accuracy {accuracy}");
    }

    #[test]
    fn noise_injection_trains_and_learns() {
        let net = Architecture::tiny_test().build(3).unwrap();
        let mut cfg =
            TrainConfig::fast_test().with_noise_injection(VariationConfig::rram_moderate());
        cfg.epochs = 10;
        let mut t = Trainer::new(net, cfg);
        let data = data();
        t.fit(&data).unwrap();
        let accuracy = clean_accuracy(&mut t.into_network(), &data).unwrap();
        assert!(accuracy > 0.35, "accuracy {accuracy}");
    }

    #[test]
    fn deterministic_training() {
        let run = || {
            let net = Architecture::tiny_test().build(4).unwrap();
            let mut t = Trainer::new(net, TrainConfig::fast_test());
            t.fit(&data()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn report_has_one_loss_per_epoch() {
        let net = Architecture::tiny_test().build(5).unwrap();
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 3;
        let mut t = Trainer::new(net, cfg);
        let report = t.fit(&data()).unwrap();
        assert_eq!(report.epoch_losses.len(), 3);
    }
}
