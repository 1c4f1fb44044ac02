//! The per-sample convolution equals the whole-batch formulation bit for
//! bit. The reference below is that formulation, rebuilt from public
//! pieces: one `(c_in·k², n·oh·ow)` patch matrix from `im2col_batch`,
//! one `gemm_ref` per product over all samples, and a per-sample
//! `col2im` of the input gradient.

use lcda_base::rng::Rng;
use lcda_tensor::ops::{
    col2im, conv2d_backward, conv2d_forward, gemm_ref, im2col_batch, Conv2dParams, ConvGeometry,
};
use lcda_tensor::{Shape, Tensor};

fn random(shape: Shape, rng: &mut Rng) -> Tensor {
    let len = shape.len();
    Tensor::from_vec(shape, (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// `(output, d_input, d_weight, d_bias)` of the whole-batch formulation.
fn batch_reference(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    d_out: &Tensor,
    params: &Conv2dParams,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let geom = &params.geom;
    let n = x.shape().dims()[0];
    let (ckk, pc, c_out) = (geom.patch_rows(), geom.patch_cols(), params.out_channels);
    let wide = n * pc;
    let cols = im2col_batch(x, geom).unwrap();

    let mut prod = vec![0.0f32; c_out * wide];
    gemm_ref(c_out, ckk, wide, w.as_slice(), cols.as_slice(), &mut prod);
    let mut out = vec![0.0f32; n * c_out * pc];
    let mut d_mat = vec![0.0f32; c_out * wide];
    for s in 0..n {
        for c in 0..c_out {
            for j in 0..pc {
                let nchw = (s * c_out + c) * pc + j;
                out[nchw] = prod[c * wide + s * pc + j] + b.as_slice()[c];
                d_mat[c * wide + s * pc + j] = d_out.as_slice()[nchw];
            }
        }
    }

    let mut d_w = vec![0.0f32; c_out * ckk];
    let cols_t = cols.transpose().unwrap();
    gemm_ref(c_out, wide, ckk, &d_mat, cols_t.as_slice(), &mut d_w);
    let d_b = (0..c_out)
        .map(|c| d_mat[c * wide..(c + 1) * wide].iter().sum())
        .collect();

    let mut d_cols = vec![0.0f32; ckk * wide];
    let w_t = w.transpose().unwrap();
    gemm_ref(ckk, c_out, wide, w_t.as_slice(), &d_mat, &mut d_cols);
    let mut d_in = Vec::with_capacity(x.len());
    for s in 0..n {
        let mut block = Vec::with_capacity(ckk * pc);
        for r in 0..ckk {
            block.extend_from_slice(&d_cols[r * wide + s * pc..r * wide + (s + 1) * pc]);
        }
        let block = Tensor::from_vec(Shape::d2(ckk, pc), block).unwrap();
        d_in.extend_from_slice(col2im(&block, geom).unwrap().as_slice());
    }
    (out, d_in, d_w, d_b)
}

#[test]
fn per_sample_conv_is_bit_identical_to_the_batch_formulation() {
    // (kernel, stride, padding) on a 3-channel 9×9 input: same-padded
    // kernels 1, 3, 5 and 7, one stride-2 and one unpadded geometry.
    let geometries = [
        (1, 1, 0),
        (3, 1, 1),
        (5, 1, 2),
        (7, 1, 3),
        (3, 2, 1),
        (5, 1, 0),
    ];
    let mut rng = Rng::new(2024);
    for (k, stride, padding) in geometries {
        for n in [1, 3, 16] {
            let geom = ConvGeometry::new(3, 9, 9, k, stride, padding).unwrap();
            let params = Conv2dParams::new(geom, 5).unwrap();
            let x = random(Shape::d4(n, 3, 9, 9), &mut rng);
            let w = random(params.weight_shape(), &mut rng);
            let b = random(Shape::d1(5), &mut rng);
            let d_out = random(params.output_shape(n), &mut rng);

            let out = conv2d_forward(&x, &w, &b, &params).unwrap();
            let (d_in, d_w, d_b) = conv2d_backward(&d_out, &x, &w, &params).unwrap();
            let (ref_out, ref_d_in, ref_d_w, ref_d_b) =
                batch_reference(&x, &w, &b, &d_out, &params);

            let case = format!("k={k} stride={stride} padding={padding} n={n}");
            assert_eq!(bits(out.as_slice()), bits(&ref_out), "output, {case}");
            assert_eq!(bits(d_in.as_slice()), bits(&ref_d_in), "d_input, {case}");
            assert_eq!(bits(d_w.as_slice()), bits(&ref_d_w), "d_weight, {case}");
            assert_eq!(bits(d_b.as_slice()), bits(&ref_d_b), "d_bias, {case}");
        }
    }
}
