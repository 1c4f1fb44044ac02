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
/// Returns the pooled tensor and, for every output element, the offset
/// of the input that won its window within that element's own `(h, w)`
/// plane (needed by [`maxpool2_backward`]). Output element `o` pools
/// plane `o / (oh·ow)`, so the plane offset is all the backward pass
/// needs, and a `u32` holds it at half the size of a flat `usize` index.
/// Odd trailing rows/columns are dropped, matching common framework
/// behaviour.
///
/// # Errors
///
/// Returns rank errors for non-NCHW input or
/// [`TensorError::InvalidArgument`] when the spatial plane is smaller
/// than 2×2 or has more elements than a `u32` offset can address.
pub fn maxpool2_forward(input: &Tensor) -> Result<(Tensor, Vec<u32>)> {
    let [n, c, h, w] = check_rank4(input, "maxpool2_forward")?;
    if h < 2 || w < 2 {
        return Err(TensorError::InvalidArgument(format!(
            "maxpool2 needs spatial plane >= 2x2, got {h}x{w}"
        )));
    }
    if u32::try_from(h * w).is_err() {
        return Err(TensorError::InvalidArgument(format!(
            "maxpool2 plane {h}x{w} exceeds u32 offsets"
        )));
    }
    let (oh, ow) = (h / 2, w / 2);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut arg = vec![0u32; n * c * oh * ow];
    let planes = input
        .as_slice()
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(oh * ow))
        .zip(arg.chunks_exact_mut(oh * ow));
    for ((src, out), arg) in planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best_idx = (2 * oy) * w + 2 * ox;
                let mut best = src[best_idx];
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = (2 * oy + dy) * w + (2 * ox + dx);
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                out[oy * ow + ox] = best;
                // In range: checked against the plane size above.
                arg[oy * ow + ox] = best_idx as u32;
            }
        }
    }
    Ok((Tensor::from_vec(Shape::d4(n, c, oh, ow), out)?, arg))
}

/// Backward pass of 2×2 max pooling: routes each upstream gradient to the
/// input position that won the max (`argmax` holds plane offsets, as
/// [`maxpool2_forward`] returns them).
///
/// # Errors
///
/// Returns shape errors when `d_out`, `argmax` and `input_shape`
/// disagree.
pub fn maxpool2_backward(d_out: &Tensor, argmax: &[u32], input_shape: &Shape) -> Result<Tensor> {
    if d_out.len() != argmax.len() {
        return Err(TensorError::ShapeDataMismatch {
            expected: d_out.len(),
            actual: argmax.len(),
        });
    }
    let mut d_input = Tensor::zeros(input_shape.clone());
    let [n, c, h, w] = check_rank4(&d_input, "maxpool2_backward")?;
    let pooled = (h / 2) * (w / 2);
    if n * c * pooled != d_out.len() {
        return Err(TensorError::ShapeDataMismatch {
            expected: n * c * pooled,
            actual: d_out.len(),
        });
    }
    let planes = d_input
        .as_mut_slice()
        .chunks_exact_mut(h * w)
        .zip(d_out.as_slice().chunks_exact(pooled))
        .zip(argmax.chunks_exact(pooled));
    for ((dst, grads), offsets) in planes {
        for (&g, &offset) in grads.iter().zip(offsets) {
            let idx = offset as usize;
            if idx >= dst.len() {
                return Err(TensorError::IndexOutOfBounds {
                    index: idx,
                    bound: dst.len(),
                });
            }
            dst[idx] += g;
        }
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
    fn maxpool_backward_routes_each_plane_to_its_own_winner() {
        // Two samples of two channels: each plane's offsets are local.
        let input = Tensor::from_vec(
            Shape::d4(2, 2, 2, 3),
            (0..24).map(|i| ((i * 7) % 24) as f32).collect(),
        )
        .unwrap();
        let (out, arg) = maxpool2_forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[2, 2, 1, 1]);
        assert!(arg.iter().all(|&offset| offset < 6));
        let d_out = Tensor::from_vec(Shape::d4(2, 2, 1, 1), vec![1., 2., 3., 4.]).unwrap();
        let d_in = maxpool2_backward(&d_out, &arg, input.shape()).unwrap();
        for (plane, (&y, &g)) in out.as_slice().iter().zip(d_out.as_slice()).enumerate() {
            let winner = plane * 6 + arg[plane] as usize;
            assert_eq!(input.as_slice()[winner], y);
            assert_eq!(d_in.as_slice()[winner], g);
        }
        assert_eq!(d_in.as_slice().iter().sum::<f32>(), 10.0);
    }

    #[test]
    fn maxpool_rejects_tiny_plane() {
        let input = Tensor::zeros(Shape::d4(1, 1, 1, 4));
        assert!(maxpool2_forward(&input).is_err());
    }
}
