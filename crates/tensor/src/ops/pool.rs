//! Pooling: 2×2 stride-2 max pooling.

use crate::{Result, Shape, Tensor, TensorError};

fn check_rank4(t: &Tensor, op: &'static str) -> Result<[usize; 4]> {
    if t.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.shape().rank(),
            op,
        });
    }
    let d = t.shape().dims();
    Ok([d[0], d[1], d[2], d[3]])
}

/// 2×2 stride-2 max pooling over an NCHW batch.
///
/// Returns the pooled tensor and the flat argmax index of every output
/// element (needed by [`maxpool2_backward`]). Odd trailing rows/columns are
/// dropped, matching common framework behaviour.
///
/// # Errors
///
/// Returns rank errors for non-NCHW input or
/// [`TensorError::InvalidArgument`] when the spatial plane is smaller
/// than 2×2.
pub fn maxpool2_forward(input: &Tensor) -> Result<(Tensor, Vec<usize>)> {
    let [n, c, h, w] = check_rank4(input, "maxpool2_forward")?;
    if h < 2 || w < 2 {
        return Err(TensorError::InvalidArgument(format!(
            "maxpool2 needs spatial plane >= 2x2, got {h}x{w}"
        )));
    }
    let (oh, ow) = (h / 2, w / 2);
    let src = input.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = base + (2 * oy) * w + 2 * ox;
                    let mut best = src[best_idx];
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = base + (2 * oy + dy) * w + (2 * ox + dx);
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ((s * c + ch) * oh + oy) * ow + ox;
                    out[o] = best;
                    arg[o] = best_idx;
                }
            }
        }
    }
    Ok((Tensor::from_vec(Shape::d4(n, c, oh, ow), out)?, arg))
}

/// Backward pass of 2×2 max pooling: routes each upstream gradient to the
/// input position that won the max.
///
/// # Errors
///
/// Returns shape errors when `d_out` and `argmax` disagree.
pub fn maxpool2_backward(d_out: &Tensor, argmax: &[usize], input_shape: &Shape) -> Result<Tensor> {
    if d_out.len() != argmax.len() {
        return Err(TensorError::ShapeDataMismatch {
            expected: d_out.len(),
            actual: argmax.len(),
        });
    }
    let mut d_input = Tensor::zeros(input_shape.clone());
    let dst = d_input.as_mut_slice();
    for (&g, &idx) in d_out.as_slice().iter().zip(argmax) {
        if idx >= dst.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: idx,
                bound: dst.len(),
            });
        }
        dst[idx] += g;
    }
    Ok(d_input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima() {
        let input = Tensor::from_vec(
            Shape::d4(1, 1, 4, 4),
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        )
        .unwrap();
        let (out, arg) = maxpool2_forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[4., 8., 12., 16.]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let input = Tensor::zeros(Shape::d4(1, 1, 5, 5));
        let (out, _) = maxpool2_forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn maxpool_backward_routes_gradient() {
        let input = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1., 9., 3., 4.]).unwrap();
        let (_, arg) = maxpool2_forward(&input).unwrap();
        let d_out = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![5.0]).unwrap();
        let d_in = maxpool2_backward(&d_out, &arg, input.shape()).unwrap();
        assert_eq!(d_in.as_slice(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn maxpool_rejects_tiny_plane() {
        let input = Tensor::zeros(Shape::d4(1, 1, 1, 4));
        assert!(maxpool2_forward(&input).is_err());
    }
}
