//! A feed-forward network: an ordered stack of [`Layer`]s with training
//! and weight-perturbation support.

use crate::layer::Layer;
use crate::Result;
use lcda_tensor::ops::cross_entropy_loss;
use lcda_tensor::optim::Sgd;
use lcda_tensor::{Shape, Tensor};

/// Samples per inference chunk in [`Network::predict`] and the fused
/// Monte-Carlo engine: `TrainConfig::standard().batch_size`, so inference
/// never holds more activations than a training step already does.
pub(crate) const INFER_BATCH: usize = 16;

/// Argmax per logits row, first occurrence on ties.
pub(crate) fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let (n, c) = (logits.shape().dims()[0], logits.shape().dims()[1]);
    let mut out = Vec::with_capacity(n);
    for r in 0..n {
        let row = &logits.as_slice()[r * c..(r + 1) * c];
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        out.push(best);
    }
    out
}

/// A trainable feed-forward network.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from an ordered layer stack.
    pub fn new(layers: Vec<Layer>) -> Self {
        Network { layers }
    }

    /// The layers (read-only).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Backward pass; accumulates gradients into every parameter. The
    /// first layer computes no input gradient ([`Layer::backward_params`]).
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward`.
    pub fn backward(&mut self, d_logits: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = d_logits.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        first.backward_params(&g)
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.visit_params(|p| {
                p.grad.map_inplace(|_| 0.0);
            });
        }
    }

    /// One supervised training step on a batch: forward, loss, backward,
    /// optimizer update. Returns the batch loss.
    ///
    /// The optimizer's slots must have been registered with
    /// [`Network::register_params`] first.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors.
    pub fn train_step(&mut self, input: &Tensor, labels: &[usize], opt: &mut Sgd) -> Result<f32> {
        self.zero_grad();
        let logits = self.forward(input)?;
        let (loss, d_logits) = cross_entropy_loss(&logits, labels)?;
        self.backward(&d_logits)?;
        self.apply_grads(opt)?;
        Ok(loss)
    }

    /// Registers every parameter with the optimizer (slot order equals
    /// visit order, which is stable).
    pub fn register_params(&mut self, opt: &mut Sgd) {
        for layer in &mut self.layers {
            layer.visit_params(|p| {
                opt.register(&p.value);
            });
        }
    }

    /// Applies accumulated gradients via the optimizer.
    ///
    /// # Errors
    ///
    /// Propagates optimizer slot errors.
    pub fn apply_grads(&mut self, opt: &mut Sgd) -> Result<()> {
        let mut slot = 0usize;
        let mut result = Ok(());
        for layer in &mut self.layers {
            layer.visit_params(|p| {
                if result.is_ok() {
                    result = opt.step(slot, &mut p.value, &p.grad).map_err(Into::into);
                }
                slot += 1;
            });
        }
        result
    }

    /// Cache-free inference forward pass: bit-identical to
    /// [`Network::forward`] but immutable, so one network can serve many
    /// concurrent evaluation threads without cloning its layer caches.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x)?;
        }
        Ok(x)
    }

    /// Class predictions for a batch (argmax of [`Network::infer`] logits,
    /// first occurrence on ties).
    ///
    /// Runs `infer` over consecutive chunks of at most `INFER_BATCH`
    /// samples, so the working set stays one training batch whatever the
    /// input's size. Every layer is per-sample and every GEMM output
    /// element sums in ascending `k` whatever the column count, so the
    /// result is bit-identical to one whole-batch `infer`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>> {
        let dims = input.shape().dims();
        let n = dims.first().copied().unwrap_or(0);
        let sample: usize = dims.iter().skip(1).product();
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let len = INFER_BATCH.min(n - start);
            let mut chunk_dims = dims.to_vec();
            chunk_dims[0] = len;
            let chunk = Tensor::from_vec(
                Shape::new(&chunk_dims),
                input.as_slice()[start * sample..(start + len) * sample].to_vec(),
            )?;
            out.extend(argmax_rows(&self.infer(&chunk)?));
            start += len;
        }
        Ok(out)
    }

    /// Snapshots all trainable parameters (flat copies, in
    /// [`Layer::visit_params`] order, so [`Network::restore_weights`]
    /// realigns exactly).
    pub fn snapshot_weights(&self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        // visit_params needs &mut; mirror its order on an immutable path.
        for layer in &self.layers {
            match layer {
                Layer::Conv2d(l) => {
                    out.push(l.weight.value.as_slice().to_vec());
                    out.push(l.bias.value.as_slice().to_vec());
                }
                Layer::Linear(l) => {
                    out.push(l.weight.value.as_slice().to_vec());
                    out.push(l.bias.value.as_slice().to_vec());
                }
                _ => {}
            }
        }
        out
    }

    /// Restores weights from a snapshot taken by
    /// [`Network::snapshot_weights`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the network's parameters.
    pub fn restore_weights(&mut self, snapshot: &[Vec<f32>]) {
        let mut i = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(|p| {
                let src = &snapshot[i];
                assert_eq!(src.len(), p.value.len(), "snapshot mismatch");
                p.value.as_mut_slice().copy_from_slice(src);
                i += 1;
            });
        }
        assert_eq!(i, snapshot.len(), "snapshot length mismatch");
    }

    /// Applies `f` to every *weight matrix* buffer (not biases) — the
    /// tensors that live in crossbars and suffer device variation. Biases
    /// are implemented digitally and stay exact.
    pub fn perturb_weight_matrices<F: FnMut(&mut [f32])>(&mut self, mut f: F) {
        for layer in &mut self.layers {
            match layer {
                Layer::Conv2d(l) => f(l.weight.value.as_mut_slice()),
                Layer::Linear(l) => f(l.weight.value.as_mut_slice()),
                _ => {}
            }
        }
    }

    /// The crossbar-mapped weight matrices (not biases) in network order —
    /// the same order and set as [`Network::perturb_weight_matrices`],
    /// which is what keeps the fused Monte-Carlo engine's per-matrix
    /// `stream_seed` indices aligned with the per-trial path.
    pub fn weight_matrices(&self) -> Vec<&Tensor> {
        self.layers
            .iter()
            .filter_map(|layer| match layer {
                Layer::Conv2d(l) => Some(&l.weight.value),
                Layer::Linear(l) => Some(&l.weight.value),
                _ => None,
            })
            .collect()
    }

    /// The largest absolute weight value across all weight matrices —
    /// used as the crossbar clipping range `w_max`.
    pub fn max_abs_weight(&self) -> f32 {
        let mut m = 0.0f32;
        for layer in &self.layers {
            let w = match layer {
                Layer::Conv2d(l) => l.weight.value.as_slice(),
                Layer::Linear(l) => l.weight.value.as_slice(),
                _ => continue,
            };
            for &x in w {
                m = m.max(x.abs());
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use lcda_base::rng::Rng;
    use lcda_tensor::optim::Sgd;

    fn tiny_net() -> Network {
        Architecture::tiny_test().build(1).unwrap()
    }

    fn random_batch(n: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(
            Shape::d4(n, 3, 8, 8),
            (0..n * 3 * 64).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let y = (0..n).map(|i| i % 4).collect();
        (x, y)
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny_net();
        let x = Tensor::ones(Shape::d4(3, 3, 8, 8));
        let logits = net.forward(&x).unwrap();
        assert_eq!(logits.shape().dims(), &[3, 4]);
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = tiny_net();
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        net.register_params(&mut opt);
        let mut rng = Rng::new(2);
        let (x, y) = random_batch(8, &mut rng);
        let first = net.train_step(&x, &y, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = net.train_step(&x, &y, &mut opt).unwrap();
        }
        assert!(
            last < first * 0.7,
            "loss should fall markedly: {first} -> {last}"
        );
    }

    #[test]
    fn memorizes_small_batch() {
        let mut net = tiny_net();
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        net.register_params(&mut opt);
        let mut rng = Rng::new(3);
        let (x, y) = random_batch(4, &mut rng);
        for _ in 0..80 {
            net.train_step(&x, &y, &mut opt).unwrap();
        }
        assert_eq!(net.predict(&x).unwrap(), y);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut net = tiny_net();
        let snap = net.snapshot_weights();
        net.perturb_weight_matrices(|w| {
            for x in w.iter_mut() {
                *x += 1.0;
            }
        });
        assert_ne!(net.snapshot_weights(), snap);
        net.restore_weights(&snap);
        assert_eq!(net.snapshot_weights(), snap);
    }

    #[test]
    fn snapshot_restore_aligns_with_visit_order() {
        // Restore walks `visit_params` while the snapshot walks the layers
        // directly; the two orders must agree for every parameter,
        // biases included.
        let mut net = tiny_net();
        let snap = net.snapshot_weights();
        net.restore_weights(&snap); // must not panic
        for layer in &mut net.layers {
            layer.visit_params(|p| p.value.map_inplace(|x| x + 0.5));
        }
        assert_ne!(net.snapshot_weights(), snap);
        net.restore_weights(&snap);
        assert_eq!(net.snapshot_weights(), snap);
    }

    #[test]
    fn perturbation_skips_biases() {
        let mut net = tiny_net();
        let before = net.snapshot_weights();
        net.perturb_weight_matrices(|w| {
            for x in w.iter_mut() {
                *x = 99.0;
            }
        });
        let after = net.snapshot_weights();
        // Snapshot interleaves weight,bias,weight,bias,…
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i % 2 == 0 {
                assert!(a.iter().all(|&x| x == 99.0), "weight {i} perturbed");
            } else {
                assert_eq!(b, a, "bias {i} untouched");
            }
        }
    }

    #[test]
    fn param_count_matches_architecture() {
        let a = Architecture::tiny_test();
        let net = a.build(0).unwrap();
        // weight_count counts matrices only; network adds biases.
        let biases: u64 = 4 + 8 + 16 + 4;
        assert_eq!(net.param_count() as u64, a.weight_count() + biases);
    }

    #[test]
    fn max_abs_weight_positive_after_init() {
        let net = tiny_net();
        assert!(net.max_abs_weight() > 0.0);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut net = tiny_net();
        let mut rng = Rng::new(9);
        let (x, _) = random_batch(3, &mut rng);
        let via_forward = net.forward(&x).unwrap();
        let via_infer = net.infer(&x).unwrap();
        assert_eq!(via_forward.as_slice(), via_infer.as_slice());
    }

    #[test]
    fn predict_equals_whole_batch_argmax_across_chunk_boundaries() {
        let net = tiny_net();
        let mut rng = Rng::new(12);
        for n in [1, INFER_BATCH, INFER_BATCH + 1, 2 * INFER_BATCH + 1] {
            let (x, _) = random_batch(n, &mut rng);
            let whole = argmax_rows(&net.infer(&x).unwrap());
            assert_eq!(net.predict(&x).unwrap(), whole, "n={n}");
        }
    }

    #[test]
    fn weight_matrices_match_perturbation_order() {
        let mut net = Architecture::tiny_test().build(5).unwrap();
        let via_accessor: Vec<Vec<f32>> = net
            .weight_matrices()
            .iter()
            .map(|w| w.as_slice().to_vec())
            .collect();
        let mut via_perturb = Vec::new();
        net.perturb_weight_matrices(|w| via_perturb.push(w.to_vec()));
        assert_eq!(via_accessor, via_perturb);
    }

    #[test]
    fn zero_grad_clears() {
        let mut net = tiny_net();
        let mut opt = Sgd::new(0.01);
        net.register_params(&mut opt);
        let mut rng = Rng::new(4);
        let (x, y) = random_batch(2, &mut rng);
        net.train_step(&x, &y, &mut opt).unwrap();
        net.zero_grad();
        let mut all_zero = true;
        for layer in &mut net.layers {
            layer.visit_params(|p| {
                if p.grad.as_slice().iter().any(|&g| g != 0.0) {
                    all_zero = false;
                }
            });
        }
        assert!(all_zero);
    }
}
