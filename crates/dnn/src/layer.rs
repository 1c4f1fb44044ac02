//! Concrete network layers with cached forward state and explicit
//! backward passes.

use crate::{DnnError, Result};
use lcda_base::rng::Rng;
use lcda_tensor::init::Init;
use lcda_tensor::ops::{
    conv2d_backward, conv2d_forward, conv2d_param_grads, maxpool2_backward, maxpool2_forward,
    relu_backward, relu_forward, Conv2dParams, ConvGeometry,
};
use lcda_tensor::{Shape, Tensor};

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient from the last backward pass.
    pub grad: Tensor,
}

impl Param {
    fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// The value alone, with an empty gradient: for inference-only copies.
    fn value_only(&self) -> Self {
        Param {
            value: self.value.clone(),
            grad: Tensor::zeros(Shape::d1(0)),
        }
    }
}

/// A 2-D convolution layer (weights stored in `(c_out, c_in·k²)` matrix
/// form, matching the crossbar mapping).
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    /// Convolution hyper-parameters.
    pub params: Conv2dParams,
    /// Kernel weights.
    pub weight: Param,
    /// Per-output-channel bias.
    pub bias: Param,
    input_cache: Option<Tensor>,
}

impl Conv2dLayer {
    /// Creates the layer with He-initialized weights.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn new(geom: ConvGeometry, out_channels: usize, rng: &mut Rng) -> Result<Self> {
        let params = Conv2dParams::new(geom, out_channels).map_err(DnnError::from)?;
        let fan_in = geom.patch_rows();
        let weight = Init::HeNormal.tensor(params.weight_shape(), fan_in, out_channels, rng);
        let bias = Init::Zeros.tensor(Shape::d1(out_channels), fan_in, out_channels, rng);
        Ok(Conv2dLayer {
            params,
            weight: Param::new(weight),
            bias: Param::new(bias),
            input_cache: None,
        })
    }
}

/// A fully-connected layer.
#[derive(Debug, Clone)]
pub struct LinearLayer {
    /// Weight matrix `(inputs, outputs)`.
    pub weight: Param,
    /// Bias `(outputs)`.
    pub bias: Param,
    input_cache: Option<Tensor>,
}

impl LinearLayer {
    /// Creates the layer with Xavier-initialized weights.
    pub fn new(inputs: usize, outputs: usize, rng: &mut Rng) -> Self {
        let weight = Init::XavierUniform.tensor(Shape::d2(inputs, outputs), inputs, outputs, rng);
        let bias = Init::Zeros.tensor(Shape::d1(outputs), inputs, outputs, rng);
        LinearLayer {
            weight: Param::new(weight),
            bias: Param::new(bias),
            input_cache: None,
        }
    }
}

/// Dense forward body shared by training and inference: `x · W` then a
/// per-element bias add.
fn linear_apply(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let mut out = input.matmul(weight)?;
    let (n, o) = (out.shape().dims()[0], out.shape().dims()[1]);
    for r in 0..n {
        for c in 0..o {
            out.as_mut_slice()[r * o + c] += bias.as_slice()[c];
        }
    }
    Ok(out)
}

/// One layer of a network, with cached state from the last forward pass.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Convolution.
    Conv2d(Conv2dLayer),
    /// Fully connected.
    Linear(LinearLayer),
    /// ReLU activation (caches its input).
    Relu {
        /// Input cached by the forward pass.
        cache: Option<Tensor>,
    },
    /// 2×2 stride-2 max pooling.
    MaxPool2 {
        /// Argmax plane offsets and input shape from the forward pass.
        cache: Option<(Vec<u32>, Shape)>,
    },
    /// Flatten `(n,c,h,w) -> (n, c·h·w)`.
    Flatten {
        /// Input shape cached by the forward pass.
        cache: Option<Shape>,
    },
}

impl Layer {
    /// A fresh ReLU layer.
    pub fn relu() -> Self {
        Layer::Relu { cache: None }
    }

    /// A fresh 2×2 max-pool layer.
    pub fn maxpool2() -> Self {
        Layer::MaxPool2 { cache: None }
    }

    /// A fresh flatten layer.
    pub fn flatten() -> Self {
        Layer::Flatten { cache: None }
    }

    /// Forward pass; caches whatever the backward pass will need.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => {
                let out = conv2d_forward(input, &l.weight.value, &l.bias.value, &l.params)?;
                l.input_cache = Some(input.clone());
                Ok(out)
            }
            Layer::Linear(l) => {
                let out = linear_apply(input, &l.weight.value, &l.bias.value)?;
                l.input_cache = Some(input.clone());
                Ok(out)
            }
            Layer::Relu { cache } => {
                *cache = Some(input.clone());
                Ok(relu_forward(input))
            }
            Layer::MaxPool2 { cache } => {
                let (out, arg) = maxpool2_forward(input)?;
                *cache = Some((arg, input.shape().clone()));
                Ok(out)
            }
            Layer::Flatten { cache } => {
                *cache = Some(input.shape().clone());
                let d = input.shape().dims();
                let n = d[0];
                let rest: usize = d[1..].iter().product();
                Ok(input.reshape(&[n, rest])?)
            }
        }
    }

    /// Inference-only forward pass: identical math to
    /// [`Layer::forward`], but immutable — it writes no caches, so
    /// evaluation hot paths (MC trials, `Network::predict`) skip every
    /// cache clone and can share one network across threads.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => Ok(conv2d_forward(
                input,
                &l.weight.value,
                &l.bias.value,
                &l.params,
            )?),
            Layer::Linear(l) => linear_apply(input, &l.weight.value, &l.bias.value),
            Layer::Relu { .. } => Ok(relu_forward(input)),
            Layer::MaxPool2 { .. } => Ok(maxpool2_forward(input)?.0),
            Layer::Flatten { .. } => {
                let d = input.shape().dims();
                let n = d[0];
                let rest: usize = d[1..].iter().product();
                Ok(input.reshape(&[n, rest])?)
            }
        }
    }

    /// Backward pass; accumulates parameter gradients and returns the
    /// gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or on shape mismatch.
    pub fn backward(&mut self, d_out: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => {
                let input = l.input_cache.as_ref().ok_or_else(|| {
                    DnnError::InvalidTraining("conv backward before forward".to_string())
                })?;
                let (d_in, d_w, d_b) = conv2d_backward(d_out, input, &l.weight.value, &l.params)?;
                l.weight.grad.axpy(1.0, &d_w)?;
                l.bias.grad.axpy(1.0, &d_b)?;
                Ok(d_in)
            }
            Layer::Linear(l) => {
                let input = l.input_cache.as_ref().ok_or_else(|| {
                    DnnError::InvalidTraining("linear backward before forward".to_string())
                })?;
                // dW = x^T · dOut ; db = column sums ; dX = dOut · W^T
                let d_w = input.transpose()?.matmul(d_out)?;
                l.weight.grad.axpy(1.0, &d_w)?;
                let (n, o) = (d_out.shape().dims()[0], d_out.shape().dims()[1]);
                for c in 0..o {
                    let mut s = 0.0f32;
                    for r in 0..n {
                        s += d_out.as_slice()[r * o + c];
                    }
                    l.bias.grad.as_mut_slice()[c] += s;
                }
                Ok(d_out.matmul(&l.weight.value.transpose()?)?)
            }
            Layer::Relu { cache } => {
                let input = cache.as_ref().ok_or_else(|| {
                    DnnError::InvalidTraining("relu backward before forward".to_string())
                })?;
                Ok(relu_backward(d_out, input)?)
            }
            Layer::MaxPool2 { cache } => {
                let (arg, shape) = cache.as_ref().ok_or_else(|| {
                    DnnError::InvalidTraining("maxpool backward before forward".to_string())
                })?;
                Ok(maxpool2_backward(d_out, arg, shape)?)
            }
            Layer::Flatten { cache } => {
                let shape = cache.as_ref().ok_or_else(|| {
                    DnnError::InvalidTraining("flatten backward before forward".to_string())
                })?;
                Ok(d_out.reshape(shape.dims())?)
            }
        }
    }

    /// [`Layer::backward`] for a network's first layer: accumulates the
    /// same parameter gradients, bit for bit, but computes no input
    /// gradient, which no layer below would read.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    pub fn backward_params(&mut self, d_out: &Tensor) -> Result<()> {
        match self {
            Layer::Conv2d(l) => {
                let input = l.input_cache.as_ref().ok_or_else(|| {
                    DnnError::InvalidTraining("conv backward before forward".to_string())
                })?;
                let (d_w, d_b) = conv2d_param_grads(d_out, input, &l.params)?;
                l.weight.grad.axpy(1.0, &d_w)?;
                l.bias.grad.axpy(1.0, &d_b)?;
                Ok(())
            }
            _ => self.backward(d_out).map(drop),
        }
    }

    /// Visits the layer's trainable parameters (if any).
    pub fn visit_params<F: FnMut(&mut Param)>(&mut self, mut f: F) {
        match self {
            Layer::Conv2d(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            Layer::Linear(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            _ => {}
        }
    }

    /// Number of trainable scalars in this layer.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Conv2d(l) => l.weight.value.len() + l.bias.value.len(),
            Layer::Linear(l) => l.weight.value.len() + l.bias.value.len(),
            _ => 0,
        }
    }

    /// A copy for inference only: parameter values without gradients, and
    /// no forward caches ([`Layer::infer`] reads neither).
    pub(crate) fn weights_only(&self) -> Layer {
        match self {
            Layer::Conv2d(l) => Layer::Conv2d(Conv2dLayer {
                params: l.params,
                weight: l.weight.value_only(),
                bias: l.bias.value_only(),
                input_cache: None,
            }),
            Layer::Linear(l) => Layer::Linear(LinearLayer {
                weight: l.weight.value_only(),
                bias: l.bias.value_only(),
                input_cache: None,
            }),
            Layer::Relu { .. } => Layer::relu(),
            Layer::MaxPool2 { .. } => Layer::maxpool2(),
            Layer::Flatten { .. } => Layer::flatten(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(42)
    }

    #[test]
    fn conv_layer_roundtrip() {
        let mut r = rng();
        let geom = ConvGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        let mut layer = Layer::Conv2d(Conv2dLayer::new(geom, 4, &mut r).unwrap());
        let x = Tensor::ones(Shape::d4(2, 3, 8, 8));
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
        let d = layer.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(d.shape(), x.shape());
    }

    #[test]
    fn linear_layer_known_values() {
        let mut r = rng();
        let mut l = LinearLayer::new(2, 2, &mut r);
        l.weight.value = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        l.bias.value = Tensor::from_slice(&[10., 20.]);
        let mut layer = Layer::Linear(l);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1., 1.]).unwrap();
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[14., 26.]);
    }

    #[test]
    fn linear_backward_gradients() {
        let mut r = rng();
        let mut l = LinearLayer::new(2, 1, &mut r);
        l.weight.value = Tensor::from_vec(Shape::d2(2, 1), vec![2., 3.]).unwrap();
        let mut layer = Layer::Linear(l);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![5., 7.]).unwrap();
        let _ = layer.forward(&x).unwrap();
        let d_in = layer
            .backward(&Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap())
            .unwrap();
        // dX = dOut · W^T = [2, 3]
        assert_eq!(d_in.as_slice(), &[2., 3.]);
        if let Layer::Linear(l) = &mut layer {
            // dW = x^T · dOut = [5, 7]^T
            assert_eq!(l.weight.grad.as_slice(), &[5., 7.]);
            assert_eq!(l.bias.grad.as_slice(), &[1.]);
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut layer = Layer::flatten();
        let x = Tensor::ones(Shape::d4(2, 3, 4, 4));
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 48]);
        let d = layer.backward(&y).unwrap();
        assert_eq!(d.shape(), x.shape());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Layer::relu();
        assert!(layer.backward(&Tensor::from_slice(&[1.0])).is_err());
        let mut layer = Layer::flatten();
        assert!(layer.backward(&Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn infer_matches_forward() {
        let mut r = rng();
        let geom = ConvGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        let mut layers = vec![
            Layer::Conv2d(Conv2dLayer::new(geom, 4, &mut r).unwrap()),
            Layer::relu(),
            Layer::maxpool2(),
            Layer::flatten(),
            Layer::Linear(LinearLayer::new(4 * 4 * 4, 3, &mut r)),
        ];
        let mut x_mut = Tensor::ones(Shape::d4(2, 3, 8, 8));
        let mut x_ref = x_mut.clone();
        for layer in &mut layers {
            x_mut = layer.forward(&x_mut).unwrap();
        }
        for layer in &layers {
            x_ref = layer.infer(&x_ref).unwrap();
        }
        assert_eq!(x_mut.as_slice(), x_ref.as_slice());
    }

    #[test]
    fn param_counts() {
        let mut r = rng();
        let geom = ConvGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        let conv = Layer::Conv2d(Conv2dLayer::new(geom, 4, &mut r).unwrap());
        assert_eq!(conv.param_count(), 4 * 27 + 4);
        let relu = Layer::relu();
        assert_eq!(relu.param_count(), 0);
    }

    #[test]
    fn visit_params_touches_all() {
        let mut r = rng();
        let mut lin = Layer::Linear(LinearLayer::new(4, 3, &mut r));
        let mut seen = 0;
        lin.visit_params(|_| seen += 1);
        assert_eq!(seen, 2);
    }
}
