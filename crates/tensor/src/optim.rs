//! The parameter optimizer for gradient-based training: [`Sgd`] with
//! momentum, which the trained evaluator's noise-injection training uses.

use crate::{Result, Tensor, TensorError};

/// Stochastic gradient descent with optional momentum.
///
/// Holds one velocity tensor per parameter, keyed by the slot index
/// [`Sgd::register`] assigns.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd::with_momentum(lr, 0.0)
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Registers a parameter tensor and returns its slot id.
    pub fn register(&mut self, param: &Tensor) -> usize {
        self.velocity.push(Tensor::zeros(param.shape().clone()));
        self.velocity.len() - 1
    }

    /// Applies one update step: `v = momentum·v + grad; param -= lr·v`.
    ///
    /// # Errors
    ///
    /// Returns an error when `slot` is unknown or shapes mismatch.
    pub fn step(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor) -> Result<()> {
        let v = self
            .velocity
            .get_mut(slot)
            .ok_or(TensorError::IndexOutOfBounds {
                index: slot,
                bound: 0,
            })?;
        *v = v.scale(self.momentum);
        v.axpy(1.0, grad)?;
        param.axpy(-self.lr, v)
    }

    /// The current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (used by LR schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = x^2 from x=4 and checks convergence.
    fn converges(mut opt: Sgd, steps: usize) -> f32 {
        let mut x = Tensor::from_slice(&[4.0]);
        let slot = opt.register(&x);
        for _ in 0..steps {
            let g = x.scale(2.0); // d/dx x^2
            opt.step(slot, &mut x, &g).unwrap();
        }
        x.as_slice()[0].abs()
    }

    #[test]
    fn sgd_converges_quadratic() {
        assert!(converges(Sgd::new(0.1), 100) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges_quadratic() {
        assert!(converges(Sgd::with_momentum(0.05, 0.9), 200) < 1e-2);
    }

    #[test]
    fn unknown_slot_rejected() {
        let mut opt = Sgd::new(0.1);
        let mut x = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        assert!(opt.step(3, &mut x, &g).is_err());
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }
}
