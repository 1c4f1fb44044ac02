//! im2col / col2im lowering for convolution.
//!
//! The same lowering is used by the NeuroSim-style crossbar mapper (a conv
//! layer occupies `k*k*c_in` crossbar rows), so this module is the single
//! source of truth for convolution geometry in the workspace.
//!
//! Convolution lowers one sample at a time into a reused buffer (the
//! crate-private `im2col_into` / `col2im_into`), so no patch matrix wider
//! than one sample exists on the f32 training or inference path.
//! [`im2col_batch`] lowers a whole batch for the int8 Monte-Carlo path,
//! whose activation scale spans the batch, and for the fused engine's
//! stacked first weighted layer.

use crate::{Result, Shape, Tensor, TensorError};
use std::ops::Range;

/// Geometry of a 2-D convolution: input plane, kernel, stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero-sized kernels or
    /// strides, or when the kernel (plus padding) does not fit the input.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument(
                "kernel and stride must be positive".to_string(),
            ));
        }
        if in_channels == 0 || in_h == 0 || in_w == 0 {
            return Err(TensorError::InvalidArgument(
                "input plane must be non-empty".to_string(),
            ));
        }
        if in_h + 2 * padding < kernel || in_w + 2 * padding < kernel {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {kernel} larger than padded input {}x{}",
                in_h + 2 * padding,
                in_w + 2 * padding
            )));
        }
        Ok(ConvGeometry {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride,
            padding,
        })
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Rows of the lowered patch matrix: `c_in * k * k`.
    ///
    /// This is also the number of crossbar *rows* the layer needs when
    /// mapped onto a CiM array — the quantity behind the paper's §IV-B
    /// utilization discussion.
    pub fn patch_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the lowered patch matrix: `out_h * out_w`.
    pub fn patch_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// The output positions `o` along one axis whose input coordinate
/// `o * stride + offset - padding` falls inside `[0, len)`.
fn valid_outputs(offset: usize, len: usize, out_len: usize, geom: &ConvGeometry) -> Range<usize> {
    let lo = geom.padding.saturating_sub(offset).div_ceil(geom.stride);
    let hi = (len + geom.padding)
        .checked_sub(offset + 1)
        .map_or(0, |last| last / geom.stride + 1)
        .min(out_len);
    lo..hi.max(lo)
}

/// Visits, in `(channel, ki, kj, oy)` order, every run of a patch row
/// that reads the input rather than the padding: `f(row, oy, xs, first)`
/// for patch row `row`, output row `oy` and the output columns `xs`
/// whose input lies inside the plane. `first` indexes the input element
/// column `xs.start` reads; the next columns step by the stride.
fn for_each_run(geom: &ConvGeometry, mut f: impl FnMut(usize, usize, Range<usize>, usize)) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    for c in 0..geom.in_channels {
        for ki in 0..k {
            let ys = valid_outputs(ki, geom.in_h, oh, geom);
            for kj in 0..k {
                let row = (c * k + ki) * k + kj;
                let xs = valid_outputs(kj, geom.in_w, ow, geom);
                if xs.is_empty() {
                    continue;
                }
                let ix = xs.start * geom.stride + kj - geom.padding;
                for oy in ys.clone() {
                    let iy = oy * geom.stride + ki - geom.padding;
                    f(row, oy, xs.clone(), (c * geom.in_h + iy) * geom.in_w + ix);
                }
            }
        }
    }
}

/// Writes one sample's patches into a patch matrix whose rows are
/// `row_stride` wide: patch row `r`, output pixel `j` lands at
/// `out[r * row_stride + col_base + j]`. Padding positions are never
/// written, so a zeroed (or reused) buffer keeps them zero.
fn lower_sample(
    src: &[f32],
    geom: &ConvGeometry,
    out: &mut [f32],
    row_stride: usize,
    col_base: usize,
) {
    let ow = geom.out_w();
    for_each_run(geom, |row, oy, xs, first| {
        let base = row * row_stride + col_base + oy * ow;
        let dst = &mut out[base + xs.start..base + xs.end];
        if geom.stride == 1 {
            dst.copy_from_slice(&src[first..first + dst.len()]);
        } else {
            for (d, &v) in dst.iter_mut().zip(src[first..].iter().step_by(geom.stride)) {
                *d = v;
            }
        }
    });
}

/// Lowers one sample's `(c, h, w)` planes into `out`, its
/// `(c*k*k, out_h*out_w)` patch matrix. `out` must start zeroed or hold
/// a previous sample's patches of the same geometry: only non-padding
/// positions are written, and they are the same for every sample.
pub(crate) fn im2col_into(sample: &[f32], geom: &ConvGeometry, out: &mut [f32]) {
    lower_sample(sample, geom, out, geom.patch_cols(), 0);
}

/// Adjoint of [`im2col_into`]: adds a `(c*k*k, out_h*out_w)` gradient
/// matrix into one sample's `(c, h, w)` gradient planes, accumulating
/// overlaps.
pub(crate) fn col2im_into(cols: &[f32], geom: &ConvGeometry, dst: &mut [f32]) {
    let (pc, ow) = (geom.patch_cols(), geom.out_w());
    for_each_run(geom, |row, oy, xs, first| {
        let base = row * pc + oy * ow;
        let src = &cols[base + xs.start..base + xs.end];
        for (d, &v) in dst[first..].iter_mut().step_by(geom.stride).zip(src) {
            *d += v;
        }
    });
}

/// Lowers one NCHW sample `(c, h, w)` into a `(c*k*k, out_h*out_w)` matrix.
///
/// Column `j` of the result is the flattened receptive field of output
/// pixel `j` (row-major over the output plane); zero padding is
/// materialized as zeros.
///
/// # Errors
///
/// Returns a shape error when `input` does not match the geometry.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
    let want = Shape::d3(geom.in_channels, geom.in_h, geom.in_w);
    if input.shape() != &want {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_string(),
            rhs: want.to_string(),
            op: "im2col",
        });
    }
    let (rows, cols) = (geom.patch_rows(), geom.patch_cols());
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(input.as_slice(), geom, &mut out);
    Tensor::from_vec(Shape::d2(rows, cols), out)
}

/// Adjoint of [`im2col`]: scatters a `(c*k*k, out_h*out_w)` gradient matrix
/// back into an input-shaped `(c, h, w)` gradient, accumulating overlaps.
///
/// # Errors
///
/// Returns a shape error when `cols` does not match the geometry.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
    let want = Shape::d2(geom.patch_rows(), geom.patch_cols());
    if cols.shape() != &want {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.shape().to_string(),
            rhs: want.to_string(),
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; geom.in_channels * geom.in_h * geom.in_w];
    col2im_into(cols.as_slice(), geom, &mut out);
    Tensor::from_vec(Shape::d3(geom.in_channels, geom.in_h, geom.in_w), out)
}

/// Lowers a whole NCHW batch `(n, c, h, w)` into one
/// `(c*k*k, n * out_h*out_w)` matrix.
///
/// Sample `s`'s patch matrix occupies the contiguous column block
/// `[s * patch_cols, (s+1) * patch_cols)`, so each column block is exactly
/// what [`im2col`] produces for that sample. Convolution lowers one sample
/// at a time instead; the batch form serves the int8 Monte-Carlo path,
/// which takes its activation scale over the whole batch, and the fused
/// f32 engine's stacked first weighted layer.
///
/// # Errors
///
/// Returns a shape error when `input` is not `(n, c, h, w)` matching the
/// geometry.
pub fn im2col_batch(input: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4
        || dims[1] != geom.in_channels
        || dims[2] != geom.in_h
        || dims[3] != geom.in_w
    {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_string(),
            rhs: format!("(n, {}, {}, {})", geom.in_channels, geom.in_h, geom.in_w),
            op: "im2col_batch",
        });
    }
    let batch = dims[0];
    let rows = geom.patch_rows();
    let pc = geom.patch_cols();
    let cols = batch * pc;
    let plane = geom.in_channels * geom.in_h * geom.in_w;
    let mut out = vec![0.0f32; rows * cols];
    for (s, src) in input.as_slice().chunks_exact(plane).enumerate() {
        lower_sample(src, geom, &mut out, cols, s * pc);
    }
    Tensor::from_vec(Shape::d2(rows, cols), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_output_dims() {
        let g = ConvGeometry::new(3, 32, 32, 3, 1, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = ConvGeometry::new(3, 32, 32, 5, 1, 0).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (28, 28));
        let g = ConvGeometry::new(3, 32, 32, 3, 2, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
    }

    #[test]
    fn geometry_rejects_bad_config() {
        assert!(ConvGeometry::new(3, 32, 32, 0, 1, 0).is_err());
        assert!(ConvGeometry::new(3, 32, 32, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(3, 2, 2, 7, 1, 0).is_err());
        assert!(ConvGeometry::new(0, 32, 32, 3, 1, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // k=1, s=1, p=0: the patch matrix equals the flattened input.
        let g = ConvGeometry::new(2, 2, 2, 1, 1, 0).unwrap();
        let input =
            Tensor::from_vec(Shape::d3(2, 2, 2), (1..=8).map(|x| x as f32).collect()).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.shape().dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn im2col_known_patch() {
        // Single channel 3x3 input, 2x2 kernel, stride 1, no padding.
        let g = ConvGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let input =
            Tensor::from_vec(Shape::d3(1, 3, 3), vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]).unwrap();
        let cols = im2col(&input, &g).unwrap();
        // Rows are kernel positions (ki,kj); columns are the 4 output pixels.
        assert_eq!(cols.shape().dims(), &[4, 4]);
        assert_eq!(cols.row(0).unwrap().as_slice(), &[1., 2., 4., 5.]);
        assert_eq!(cols.row(3).unwrap().as_slice(), &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeros() {
        let g = ConvGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        let input = Tensor::from_vec(Shape::d3(1, 2, 2), vec![1., 2., 3., 4.]).unwrap();
        let cols = im2col(&input, &g).unwrap();
        // Top-left output pixel's receptive field starts in the padding.
        assert_eq!(cols.at(&[0, 0]).unwrap(), 0.0);
        // Center of kernel over pixel (0,0) sees input value 1.
        assert_eq!(cols.at(&[4, 0]).unwrap(), 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for arbitrary x, y — the defining
        // property of an adjoint pair, which is what backward passes rely on.
        let g = ConvGeometry::new(2, 5, 5, 3, 2, 1).unwrap();
        let mut rng = lcda_base::rng::Rng::new(99);
        let x = Tensor::from_vec(
            Shape::d3(2, 5, 5),
            (0..50).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let y = Tensor::from_vec(
            Shape::d2(g.patch_rows(), g.patch_cols()),
            (0..g.patch_rows() * g.patch_cols())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect(),
        )
        .unwrap();
        let lhs: f32 = im2col(&x, &g)
            .unwrap()
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(col2im(&y, &g).unwrap().as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn shape_validation() {
        let g = ConvGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let wrong = Tensor::zeros(Shape::d3(2, 3, 3));
        assert!(im2col(&wrong, &g).is_err());
        let wrong_cols = Tensor::zeros(Shape::d2(3, 3));
        assert!(col2im(&wrong_cols, &g).is_err());
        let wrong_batch = Tensor::zeros(Shape::d4(2, 2, 3, 3));
        assert!(im2col_batch(&wrong_batch, &g).is_err());
    }

    /// The run-based lowering equals the per-element index formula,
    /// padding and strides included, and `col2im` adds in the same
    /// `(channel, ki, kj, oy, ox)` order as that formula's scatter.
    #[test]
    fn lowering_matches_the_index_formula() {
        let mut rng = lcda_base::rng::Rng::new(5);
        // (size, kernel, stride, padding)
        for (size, k, stride, pad) in [
            (5, 1, 1, 0),
            (5, 3, 1, 1),
            (6, 3, 2, 1),
            (7, 5, 3, 2),
            (4, 7, 1, 3),
            (6, 5, 1, 0),
            (3, 3, 1, 2),
        ] {
            let g = ConvGeometry::new(2, size, size, k, stride, pad).unwrap();
            let plane = 2 * size * size;
            let x: Vec<f32> = (0..plane).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let (rows, pc, ow) = (g.patch_rows(), g.patch_cols(), g.out_w());
            let y: Vec<f32> = (0..rows * pc).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut want_cols = vec![0.0f32; rows * pc];
            let mut want_grad = vec![0.0f32; plane];
            for c in 0..2 {
                for ki in 0..k {
                    for kj in 0..k {
                        let row = (c * k + ki) * k + kj;
                        for oy in 0..g.out_h() {
                            for ox in 0..ow {
                                let iy = (oy * stride + ki) as isize - pad as isize;
                                let ix = (ox * stride + kj) as isize - pad as isize;
                                if iy < 0 || ix < 0 || iy >= size as isize || ix >= size as isize {
                                    continue;
                                }
                                let src = (c * size + iy as usize) * size + ix as usize;
                                want_cols[row * pc + oy * ow + ox] = x[src];
                                want_grad[src] += y[row * pc + oy * ow + ox];
                            }
                        }
                    }
                }
            }
            let x = Tensor::from_vec(Shape::d3(2, size, size), x).unwrap();
            let y = Tensor::from_vec(Shape::d2(rows, pc), y).unwrap();
            let case = format!("size={size} k={k} stride={stride} pad={pad}");
            assert_eq!(im2col(&x, &g).unwrap().as_slice(), &want_cols[..], "{case}");
            let grad: Vec<u32> = col2im(&y, &g)
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = want_grad.iter().map(|v| v.to_bits()).collect();
            assert_eq!(grad, want, "{case}");
        }
    }

    #[test]
    fn im2col_batch_matches_per_sample() {
        let g = ConvGeometry::new(2, 5, 5, 3, 2, 1).unwrap();
        let mut rng = lcda_base::rng::Rng::new(7);
        let batch = 3;
        let plane = 2 * 5 * 5;
        let data: Vec<f32> = (0..batch * plane).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let input = Tensor::from_vec(Shape::d4(batch, 2, 5, 5), data.clone()).unwrap();
        let cols = im2col_batch(&input, &g).unwrap();
        let pc = g.patch_cols();
        assert_eq!(cols.shape().dims(), &[g.patch_rows(), batch * pc]);
        for s in 0..batch {
            let sample = Tensor::from_vec(
                Shape::d3(2, 5, 5),
                data[s * plane..(s + 1) * plane].to_vec(),
            )
            .unwrap();
            let single = im2col(&sample, &g).unwrap();
            for row in 0..g.patch_rows() {
                for j in 0..pc {
                    assert_eq!(
                        cols.as_slice()[row * batch * pc + s * pc + j],
                        single.as_slice()[row * pc + j],
                        "mismatch at sample {s} row {row} col {j}"
                    );
                }
            }
        }
    }
}
