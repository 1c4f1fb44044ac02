//! Property-based tests of the tensor algebra and NN kernels.

use lcda_base::rng::{check, Rng};
use lcda_tensor::ops::{
    conv2d_forward, conv2d_forward_direct, cross_entropy_loss, gemm_f32, gemm_ref,
    maxpool2_forward, softmax_rows, Conv2dParams, ConvGeometry,
};
use lcda_tensor::{Shape, Tensor};

fn arb_vec(rng: &mut Rng, len: usize, bound: f32) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-bound, bound)).collect()
}

fn arb_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(Shape::d2(rows, cols), arb_vec(rng, rows * cols, 2.0)).unwrap()
}

/// (A·B)ᵀ == Bᵀ·Aᵀ
#[test]
fn matmul_transpose_identity() {
    check(256, |rng| {
        let a = arb_matrix(rng, 3, 4);
        let b = arb_matrix(rng, 4, 2);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b
            .transpose()
            .unwrap()
            .matmul(&a.transpose().unwrap())
            .unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    });
}

/// A·(B + C) == A·B + A·C
#[test]
fn matmul_distributes() {
    check(256, |rng| {
        let a = arb_matrix(rng, 2, 3);
        let b = arb_matrix(rng, 3, 3);
        let c = arb_matrix(rng, 3, 3);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-3);
        }
    });
}

/// axpy is linear: x + α·y elementwise.
#[test]
fn axpy_matches_elementwise() {
    check(256, |rng| {
        let x = arb_vec(rng, 16, 5.0);
        let y = arb_vec(rng, 16, 5.0);
        let alpha = rng.uniform(-3.0, 3.0);
        let mut t = Tensor::from_slice(&x);
        let u = Tensor::from_slice(&y);
        t.axpy(alpha, &u).unwrap();
        for ((got, &xi), &yi) in t.as_slice().iter().zip(&x).zip(&y) {
            assert!((got - (xi + alpha * yi)).abs() < 1e-4);
        }
    });
}

/// im2col convolution equals the direct nested-loop reference for
/// arbitrary geometries and data.
#[test]
fn conv_paths_agree() {
    check(256, |rng| {
        let c_in = 1 + rng.index(3);
        let c_out = 1 + rng.index(3);
        let size = 4 + rng.index(5);
        let k = [1usize, 3][rng.index(2)];
        let stride = 1 + rng.index(2);
        let seed = rng.below(1000);
        let mut rng = Rng::new(seed);
        let geom = ConvGeometry::new(c_in, size, size, k, stride, k / 2).unwrap();
        let params = Conv2dParams::new(geom, c_out).unwrap();
        let input = Tensor::from_vec(
            Shape::d4(1, c_in, size, size),
            (0..c_in * size * size)
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect(),
        )
        .unwrap();
        let weight = Tensor::from_vec(
            params.weight_shape(),
            (0..c_out * geom.patch_rows())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(
            Shape::d1(c_out),
            (0..c_out).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let fast = conv2d_forward(&input, &weight, &bias, &params).unwrap();
        let slow = conv2d_forward_direct(&input, &weight, &bias, &params).unwrap();
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    });
}

/// Softmax rows are probability distributions for arbitrary logits.
#[test]
fn softmax_rows_are_distributions() {
    check(256, |rng| {
        let m = arb_matrix(rng, 3, 5);
        let p = softmax_rows(&m).unwrap();
        for r in 0..3 {
            let row = p.row(r).unwrap();
            assert!((row.sum() - 1.0).abs() < 1e-4);
            assert!(row.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    });
}

/// Cross-entropy gradient rows sum to ~0 (softmax shift invariance).
#[test]
fn ce_gradient_rows_sum_zero() {
    check(256, |rng| {
        let m = arb_matrix(rng, 4, 6);
        let labels = (0..4).map(|_| rng.index(6)).collect::<Vec<_>>();
        let (_, grad) = cross_entropy_loss(&m, &labels).unwrap();
        for r in 0..4 {
            assert!(grad.row(r).unwrap().sum().abs() < 1e-5);
        }
    });
}

/// Max pooling never invents values: every output equals the input at
/// its argmax, an offset into the output's own plane.
#[test]
fn maxpool_outputs_are_inputs() {
    check(256, |rng| {
        let v = arb_vec(rng, 2 * 3 * 36, 9.0);
        let input = Tensor::from_vec(Shape::d4(2, 3, 6, 6), v.clone()).unwrap();
        let (out, arg) = maxpool2_forward(&input).unwrap();
        for (o, (&y, &offset)) in out.as_slice().iter().zip(&arg).enumerate() {
            assert!(offset < 36);
            assert_eq!(y, v[(o / 9) * 36 + offset as usize]);
        }
    });
}

/// The blocked GEMM is *bit-identical* to the scalar i-k-j reference
/// for arbitrary shapes — the blocking only regroups which output
/// elements a pass produces, never any element's summation order.
#[test]
fn gemm_blocked_equals_reference_bitwise() {
    check(256, |rng| {
        let m = 1 + rng.index(19);
        let k = 1 + rng.index(139);
        let n = 1 + rng.index(39);
        let seed = rng.below(1000);
        let mut rng = Rng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let mut blocked = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, &mut blocked);
        let mut reference = vec![0.0f32; m * n];
        gemm_ref(m, k, n, &a, &b, &mut reference);
        for (x, y) in blocked.iter().zip(&reference) {
            assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    });
}

/// Repeated blocked-GEMM calls on the same operands are bit-identical
/// (no hidden state, no nondeterministic scheduling).
#[test]
fn gemm_deterministic_across_calls() {
    check(256, |rng| {
        let m = 1 + rng.index(11);
        let k = 1 + rng.index(95);
        let n = 1 + rng.index(23);
        let seed = rng.below(1000);
        let mut rng = Rng::new(seed.wrapping_add(7));
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let mut first = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0f32; m * n];
            gemm_f32(m, k, n, &a, &b, &mut again);
            for (x, y) in first.iter().zip(&again) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    });
}
