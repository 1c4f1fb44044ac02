//! 2-D convolution forward and backward passes.
//!
//! Both passes lower **one sample at a time** into a single reused patch
//! buffer and run one GEMM per sample, so memory beyond the operands is
//! one sample's `(c_in*k*k, oh*ow)` patch matrix, whatever the batch
//! size. The backward pass rebuilds each sample's patches from the
//! layer input instead of keeping a batch-wide patch matrix alive
//! between the passes.
//!
//! Per-sample GEMMs leave every output element's summation chain as
//! the whole-batch formulation (one `(c_out, n*oh*ow)` GEMM) had it: the
//! forward's chains never cross samples, and the weight gradient
//! accumulates sample after sample into one buffer, which is the same
//! ascending-`k` chain (see [`gemm_f32`]). The two are bit-identical.

use super::gemm::gemm_f32;
use super::im2col::{col2im_into, im2col_into, ConvGeometry};
use crate::{Result, Shape, Tensor, TensorError};

/// A convolution layer's hyper-parameters plus its geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Input-plane geometry (channels, size, kernel, stride, padding).
    pub geom: ConvGeometry,
    /// Output channels.
    pub out_channels: usize,
}

impl Conv2dParams {
    /// Creates parameters, validating the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for invalid geometry or a
    /// zero `out_channels`.
    pub fn new(geom: ConvGeometry, out_channels: usize) -> Result<Self> {
        if out_channels == 0 {
            return Err(TensorError::InvalidArgument(
                "out_channels must be positive".to_string(),
            ));
        }
        Ok(Conv2dParams { geom, out_channels })
    }

    /// Expected weight shape `(out_channels, c_in * k * k)`.
    pub fn weight_shape(&self) -> Shape {
        Shape::d2(self.out_channels, self.geom.patch_rows())
    }

    /// Expected output shape for a batch of `n` samples.
    pub fn output_shape(&self, n: usize) -> Shape {
        Shape::d4(n, self.out_channels, self.geom.out_h(), self.geom.out_w())
    }

    /// Multiply-accumulate count for one sample — the quantity the
    /// NeuroSim-style cost model multiplies by per-MAC energy.
    pub fn macs(&self) -> u64 {
        self.out_channels as u64 * self.geom.patch_rows() as u64 * self.geom.patch_cols() as u64
    }
}

fn check_input(input: &Tensor, p: &Conv2dParams, op: &'static str) -> Result<usize> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
            op,
        });
    }
    let d = input.shape().dims();
    if d[1] != p.geom.in_channels || d[2] != p.geom.in_h || d[3] != p.geom.in_w {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_string(),
            rhs: format!(
                "(n, {}, {}, {})",
                p.geom.in_channels, p.geom.in_h, p.geom.in_w
            ),
            op,
        });
    }
    Ok(d[0])
}

fn check_operands(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: &Conv2dParams,
    op: &'static str,
) -> Result<usize> {
    let n = check_input(input, params, op)?;
    if weight.shape() != &params.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.shape().to_string(),
            rhs: params.weight_shape().to_string(),
            op,
        });
    }
    if bias.shape() != &Shape::d1(params.out_channels) {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.shape().to_string(),
            rhs: Shape::d1(params.out_channels).to_string(),
            op,
        });
    }
    Ok(n)
}

/// Convolution forward pass, lowered one sample at a time.
///
/// `input` is `(n, c_in, h, w)`, `weight` is `(c_out, c_in*k*k)`, `bias` is
/// `(c_out)`. Returns `(n, c_out, out_h, out_w)`. Each sample's GEMM
/// writes straight into that sample's output planes, which NCHW already
/// stores as a `(c_out, out_h*out_w)` matrix; the bias is added after.
///
/// # Errors
///
/// Returns shape errors when any operand disagrees with `params`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let n = check_operands(input, weight, bias, params, "conv2d_forward")?;
    let geom = &params.geom;
    let (ckk, pc, c_out) = (geom.patch_rows(), geom.patch_cols(), params.out_channels);
    let plane = geom.in_channels * geom.in_h * geom.in_w;
    let mut patches = vec![0.0f32; ckk * pc];
    let mut out = vec![0.0f32; n * c_out * pc];
    for (x_s, y_s) in input
        .as_slice()
        .chunks_exact(plane)
        .zip(out.chunks_exact_mut(c_out * pc))
    {
        im2col_into(x_s, geom, &mut patches);
        gemm_f32(c_out, ckk, pc, weight.as_slice(), &patches, y_s);
        for (channel, &b) in y_s.chunks_exact_mut(pc).zip(bias.as_slice()) {
            for y in channel {
                *y += b;
            }
        }
    }
    Tensor::from_vec(params.output_shape(n), out)
}

/// Convolution backward pass from the layer's `input`, lowered one
/// sample at a time.
///
/// Given `d_out` `(n, c_out, oh, ow)` and the forward's `input`, returns
/// `(d_input, d_weight, d_bias)`. Per sample `s` it rebuilds the patches
/// `P_s`, accumulates `d_weight += dY_s · P_sᵀ` and scatters
/// `Wᵀ · dY_s` into `d_input[s]`; `d_bias` sums each channel over
/// samples, then pixels.
///
/// # Errors
///
/// Returns shape errors when any operand disagrees with `params` or
/// `d_out` does not match the batch.
pub fn conv2d_backward(
    d_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    params: &Conv2dParams,
) -> Result<(Tensor, Tensor, Tensor)> {
    if weight.shape() != &params.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.shape().to_string(),
            rhs: params.weight_shape().to_string(),
            op: "conv2d_backward",
        });
    }
    let mut d_input = vec![0.0f32; input.len()];
    let (d_weight, d_bias) = conv2d_grads(d_out, input, params, Some((weight, &mut d_input)))?;
    Ok((
        Tensor::from_vec(input.shape().clone(), d_input)?,
        d_weight,
        d_bias,
    ))
}

/// The parameter half of [`conv2d_backward`]: its `(d_weight, d_bias)`,
/// bit for bit, without the `Wᵀ · dY` GEMM and `col2im` that
/// build `d_input`. A network's first layer needs no input gradient.
///
/// # Errors
///
/// As [`conv2d_backward`].
pub fn conv2d_param_grads(
    d_out: &Tensor,
    input: &Tensor,
    params: &Conv2dParams,
) -> Result<(Tensor, Tensor)> {
    conv2d_grads(d_out, input, params, None)
}

/// `(d_weight, d_bias)` of a convolution, plus `Wᵀ · dY` scattered into
/// `d_input` when a weight and an input-gradient buffer are given.
fn conv2d_grads(
    d_out: &Tensor,
    input: &Tensor,
    params: &Conv2dParams,
    mut d_input: Option<(&Tensor, &mut [f32])>,
) -> Result<(Tensor, Tensor)> {
    let n = check_input(input, params, "conv2d_backward")?;
    if d_out.shape() != &params.output_shape(n) {
        return Err(TensorError::ShapeMismatch {
            lhs: d_out.shape().to_string(),
            rhs: params.output_shape(n).to_string(),
            op: "conv2d_backward",
        });
    }
    let geom = &params.geom;
    let (ckk, pc, c_out) = (geom.patch_rows(), geom.patch_cols(), params.out_channels);
    let plane = geom.in_channels * geom.in_h * geom.in_w;
    let mut patches = vec![0.0f32; ckk * pc];
    let mut patches_t = vec![0.0f32; pc * ckk];
    let mut d_weight = vec![0.0f32; c_out * ckk];
    // (ckk, c_out) and the per-sample column gradient, when d_input is wanted.
    let mut input_grad = match &d_input {
        Some((weight, _)) => Some((weight.transpose()?, vec![0.0f32; ckk * pc])),
        None => None,
    };
    let samples = input
        .as_slice()
        .chunks_exact(plane)
        .zip(d_out.as_slice().chunks_exact(c_out * pc));
    for (s, (x_s, dy_s)) in samples.enumerate() {
        im2col_into(x_s, geom, &mut patches);
        for (r, row) in patches.chunks_exact(pc).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                patches_t[j * ckk + r] = v;
            }
        }
        gemm_f32(c_out, pc, ckk, dy_s, &patches_t, &mut d_weight);
        if let (Some((w_t, d_cols)), Some((_, dx))) = (&mut input_grad, &mut d_input) {
            d_cols.fill(0.0);
            gemm_f32(ckk, c_out, pc, w_t.as_slice(), dy_s, d_cols);
            col2im_into(d_cols, geom, &mut dx[s * plane..(s + 1) * plane]);
        }
    }
    let d_bias = (0..c_out)
        .map(|c| {
            d_out
                .as_slice()
                .chunks_exact(c_out * pc)
                .flat_map(|dy_s| &dy_s[c * pc..(c + 1) * pc])
                .sum()
        })
        .collect();
    Ok((
        Tensor::from_vec(params.weight_shape(), d_weight)?,
        Tensor::from_vec(Shape::d1(c_out), d_bias)?,
    ))
}

/// Reference direct (nested-loop) convolution used to validate the im2col
/// path in tests. Slow; not for production use.
///
/// # Errors
///
/// Returns shape errors as [`conv2d_forward`] does.
pub fn conv2d_forward_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let n = check_input(input, params, "conv2d_forward_direct")?;
    let geom = &params.geom;
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let mut out = Tensor::zeros(params.output_shape(n));
    for s in 0..n {
        for co in 0..params.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.as_slice()[co];
                    for ci in 0..geom.in_channels {
                        for ki in 0..k {
                            for kj in 0..k {
                                let iy = (oy * geom.stride + ki) as isize - geom.padding as isize;
                                let ix = (ox * geom.stride + kj) as isize - geom.padding as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= geom.in_h as isize
                                    || ix >= geom.in_w as isize
                                {
                                    continue;
                                }
                                let x = input
                                    .at(&[s, ci, iy as usize, ix as usize])
                                    .expect("validated bounds");
                                let w = weight
                                    .at(&[co, (ci * k + ki) * k + kj])
                                    .expect("validated bounds");
                                acc += x * w;
                            }
                        }
                    }
                    out.set(&[s, co, oy, ox], acc)?;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcda_base::rng::Rng;

    fn rand_tensor(shape: Shape, rng: &mut Rng) -> Tensor {
        let n = shape.len();
        Tensor::from_vec(shape, (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
    }

    #[test]
    fn im2col_matches_direct() {
        let mut rng = Rng::new(42);
        for &(k, s, p) in &[(1usize, 1usize, 0usize), (3, 1, 1), (3, 2, 1), (5, 1, 2)] {
            let geom = ConvGeometry::new(3, 8, 8, k, s, p).unwrap();
            let params = Conv2dParams::new(geom, 4).unwrap();
            let input = rand_tensor(Shape::d4(2, 3, 8, 8), &mut rng);
            let weight = rand_tensor(params.weight_shape(), &mut rng);
            let bias = rand_tensor(Shape::d1(4), &mut rng);
            let fast = conv2d_forward(&input, &weight, &bias, &params).unwrap();
            let slow = conv2d_forward_direct(&input, &weight, &bias, &params).unwrap();
            let max_err = fast
                .as_slice()
                .iter()
                .zip(slow.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_err < 1e-4, "k={k} s={s} p={p} err={max_err}");
        }
    }

    #[test]
    fn param_grads_equal_the_full_backward_bit_for_bit() {
        let mut rng = Rng::new(11);
        for &(k, s, p) in &[(1usize, 1usize, 0usize), (3, 1, 1), (3, 2, 1), (5, 1, 2)] {
            let geom = ConvGeometry::new(3, 8, 8, k, s, p).unwrap();
            let params = Conv2dParams::new(geom, 4).unwrap();
            let input = rand_tensor(Shape::d4(3, 3, 8, 8), &mut rng);
            let weight = rand_tensor(params.weight_shape(), &mut rng);
            let d_out = rand_tensor(params.output_shape(3), &mut rng);
            let (_, d_w, d_b) = conv2d_backward(&d_out, &input, &weight, &params).unwrap();
            let (w_only, b_only) = conv2d_param_grads(&d_out, &input, &params).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w_only), bits(&d_w), "k={k} s={s} p={p}");
            assert_eq!(bits(&b_only), bits(&d_b), "k={k} s={s} p={p}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::new(7);
        let geom = ConvGeometry::new(2, 5, 5, 3, 1, 1).unwrap();
        let params = Conv2dParams::new(geom, 3).unwrap();
        let input = rand_tensor(Shape::d4(1, 2, 5, 5), &mut rng);
        let weight = rand_tensor(params.weight_shape(), &mut rng);
        let bias = rand_tensor(Shape::d1(3), &mut rng);

        // Loss = sum of outputs, so dOut = ones.
        let loss = |w: &Tensor, b: &Tensor, x: &Tensor| -> f32 {
            conv2d_forward(x, w, b, &params).unwrap().sum()
        };
        let out = conv2d_forward(&input, &weight, &bias, &params).unwrap();
        let d_out = Tensor::ones(out.shape().clone());
        let (d_in, d_w, d_b) = conv2d_backward(&d_out, &input, &weight, &params).unwrap();

        let eps = 1e-2f32;
        // Check a sample of weight gradients.
        for idx in [0usize, 7, 23, d_w.len() - 1] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&wp, &bias, &input) - loss(&wm, &bias, &input)) / (2.0 * eps);
            let an = d_w.as_slice()[idx];
            assert!(
                (fd - an).abs() < 0.05 * an.abs().max(1.0),
                "w[{idx}]: fd={fd} an={an}"
            );
        }
        // Bias gradients.
        for idx in 0..3 {
            let mut bp = bias.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = bias.clone();
            bm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&weight, &bp, &input) - loss(&weight, &bm, &input)) / (2.0 * eps);
            let an = d_b.as_slice()[idx];
            assert!(
                (fd - an).abs() < 0.05 * an.abs().max(1.0),
                "b[{idx}]: fd={fd} an={an}"
            );
        }
        // Input gradients.
        for idx in [0usize, 13, 31, d_in.len() - 1] {
            let mut xp = input.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = input.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&weight, &bias, &xp) - loss(&weight, &bias, &xm)) / (2.0 * eps);
            let an = d_in.as_slice()[idx];
            assert!(
                (fd - an).abs() < 0.05 * an.abs().max(1.0),
                "x[{idx}]: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn macs_counts() {
        let geom = ConvGeometry::new(3, 32, 32, 3, 1, 1).unwrap();
        let params = Conv2dParams::new(geom, 16).unwrap();
        // 16 * (3*3*3) * (32*32)
        assert_eq!(params.macs(), 16 * 27 * 1024);
    }

    #[test]
    fn rejects_mismatched_operands() {
        let geom = ConvGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        let params = Conv2dParams::new(geom, 4).unwrap();
        let input = Tensor::zeros(Shape::d4(1, 2, 8, 8)); // wrong channels
        let weight = Tensor::zeros(params.weight_shape());
        let bias = Tensor::zeros(Shape::d1(4));
        assert!(conv2d_forward(&input, &weight, &bias, &params).is_err());

        let input = Tensor::zeros(Shape::d4(1, 3, 8, 8));
        let bad_w = Tensor::zeros(Shape::d2(4, 10));
        assert!(conv2d_forward(&input, &bad_w, &bias, &params).is_err());

        // Backward checks its operands too, before any GEMM would panic.
        let d_out = Tensor::zeros(params.output_shape(1));
        assert!(conv2d_backward(&d_out, &input, &bad_w, &params).is_err());
        let bad_d_out = Tensor::zeros(params.output_shape(2));
        assert!(conv2d_backward(&bad_d_out, &input, &weight, &params).is_err());
        assert!(conv2d_backward(&d_out, &input, &weight, &params).is_ok());
    }

    #[test]
    fn zero_out_channels_rejected() {
        let geom = ConvGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        assert!(Conv2dParams::new(geom, 0).is_err());
    }
}
