//! Blocked, deterministic GEMM microkernels (f32 and int8).
//!
//! This module is the single matrix-multiply hot path for the whole
//! workspace: [`crate::Tensor::matmul`] calls [`gemm_f32`], convolution
//! rides on it via im2col, and the fused Monte-Carlo engine in `lcda-dnn`
//! drives the kernels directly on raw buffers.
//!
//! # Determinism contract
//!
//! For every output element `out[i][j]`, [`gemm_f32`] accumulates the
//! products `a[i][p] * b[p][j]` in **ascending `p` order starting from the
//! initial value of `out[i][j]`** — exactly the summation chain of the
//! textbook scalar i-k-j loop in [`gemm_ref`]. The cache blocking (`KC` /
//! `NC` panels) and the 4-row register tile change *which* elements are
//! visited together, never the per-element order, so the blocked kernel is
//! **bit-identical** to the scalar reference, run-to-run and
//! machine-to-machine (IEEE-754 f32, no FMA contraction is emitted for
//! plain `a * b + c` expressions in Rust).
//!
//! There is deliberately **no zero-skip shortcut**: `0.0 * NaN` and
//! `0.0 * inf` must produce NaN so that non-finite values propagate to the
//! output where the NaN-quarantine layer can catch them. An earlier
//! `if a == 0.0 { continue }` fast path in `Tensor::matmul` masked exactly
//! this class of corruption.
//!
//! The int8 kernel ([`gemm_i8`]) accumulates in `i32`, which is exact and
//! associative — it is trivially deterministic under any blocking or
//! threading scheme.

/// Rows per register tile in the f32 microkernel. Four accumulator rows
/// share each loaded `b` element, quartering memory traffic on `b` while
/// staying within the register budget of plain autovectorized code.
const MR: usize = 4;
/// Depth (`k`) panel size: one `KC x NC` panel of `b` stays resident in
/// cache while the microkernel sweeps the `m` dimension.
const KC: usize = 128;
/// Column (`n`) panel size.
const NC: usize = 512;

fn check_dims(m: usize, k: usize, n: usize, a_len: usize, b_len: usize, out_len: usize) {
    assert_eq!(a_len, m * k, "gemm: lhs buffer length != m*k");
    assert_eq!(b_len, k * n, "gemm: rhs buffer length != k*n");
    assert_eq!(out_len, m * n, "gemm: out buffer length != m*n");
}

/// Scalar i-k-j reference kernel: `out += a · b` for row-major `a`
/// (`m x k`), `b` (`k x n`) and `out` (`m x n`).
///
/// This is the summation-order specification that [`gemm_f32`] must match
/// bit-for-bit. It intentionally has no zero-skip shortcut (see module
/// docs). Kept callable (not test-only) so benches and CI can measure the
/// blocked kernel against it.
pub fn gemm_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    check_dims(m, k, n, a.len(), b.len(), out.len());
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked f32 GEMM: `out += a · b` for row-major `a` (`m x k`),
/// `b` (`k x n`), `out` (`m x n`).
///
/// Register-blocked i-k-j with `MR = 4` accumulator rows and `KC x NC`
/// cache panels. Bit-identical to [`gemm_ref`] (see module docs for the
/// determinism contract). Written in safe Rust with slice shapes the
/// optimizer can prove, so it autovectorizes on the baseline target
/// without `target-cpu=native`.
///
/// Panics if any buffer length disagrees with `m`/`k`/`n`.
pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    check_dims(m, k, n, a.len(), b.len(), out.len());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for jc in (0..n).step_by(NC) {
        let nw = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kw = KC.min(k - pc);
            let mut i = 0;
            // 4-row register tile. `split_at_mut` carves four disjoint
            // output row windows; zipping them with the `b` panel row lets
            // the compiler drop every bounds check in the inner loop.
            while i + MR <= m {
                let rows = &mut out[i * n..(i + MR) * n];
                let (r0, rest) = rows.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let r0 = &mut r0[jc..jc + nw];
                let r1 = &mut r1[jc..jc + nw];
                let r2 = &mut r2[jc..jc + nw];
                let r3 = &mut r3[jc..jc + nw];
                for p in pc..pc + kw {
                    let a0 = a[i * k + p];
                    let a1 = a[(i + 1) * k + p];
                    let a2 = a[(i + 2) * k + p];
                    let a3 = a[(i + 3) * k + p];
                    let bp = &b[p * n + jc..p * n + jc + nw];
                    let it = r0
                        .iter_mut()
                        .zip(r1.iter_mut())
                        .zip(r2.iter_mut())
                        .zip(r3.iter_mut())
                        .zip(bp.iter());
                    for ((((o0, o1), o2), o3), &bv) in it {
                        *o0 += a0 * bv;
                        *o1 += a1 * bv;
                        *o2 += a2 * bv;
                        *o3 += a3 * bv;
                    }
                }
                i += MR;
            }
            // Remainder rows (m % MR) fall back to single-row sweeps with
            // the same ascending-p per-element order.
            while i < m {
                let row = &mut out[i * n + jc..i * n + jc + nw];
                for p in pc..pc + kw {
                    let av = a[i * k + p];
                    let bp = &b[p * n + jc..p * n + jc + nw];
                    for (o, &bv) in row.iter_mut().zip(bp) {
                        *o += av * bv;
                    }
                }
                i += 1;
            }
        }
    }
}

/// Quantizes a buffer with a per-tensor symmetric int8 scheme.
///
/// `scale = max_abs / 127`; each element maps to
/// `round(x / scale)` clamped to `[-127, 127]` (the `-128` code is unused
/// so negation is exact — standard symmetric-quantization practice). An
/// all-zero buffer gets `scale = 1.0` and all-zero codes. Inputs are
/// assumed finite: the eval pipeline's NaN quarantine runs upstream, and
/// non-finite values would be meaningless in a fixed-point crossbar model.
///
/// Returns `(codes, scale)`; `codes[i] * scale ≈ data[i]`.
pub fn quantize_symmetric(data: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = data.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
    if max_abs == 0.0 {
        return (vec![0i8; data.len()], 1.0);
    }
    let scale = max_abs / 127.0;
    let inv = 127.0 / max_abs;
    let codes = data
        .iter()
        .map(|&x| (x * inv).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (codes, scale)
}

/// Int8 GEMM with exact i32 accumulation: `out += a · b` for row-major
/// `a` (`m x k`, i8), `b` (`k x n`, i8), `out` (`m x n`, i32).
///
/// Integer accumulation is exact and associative, so this kernel is
/// deterministic under any loop order; it uses the same i-k-j sweep as
/// the f32 path. Callers dequantize with the product of the two operand
/// scales (see [`quantize_symmetric`]). `k` must stay below ~2^16 for the
/// i32 accumulator to be overflow-free in the worst case
/// (127 · 127 · 2^16 < 2^31); every layer in this workspace is far
/// smaller.
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    check_dims(m, k, n, a.len(), b.len(), out.len());
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let av = i32::from(av);
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * i32::from(bv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcda_base::rng::Rng;

    fn random_matrix(rng: &mut Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gemm_known_values() {
        // [[1,2,3],[4,5,6]] x [[7,8],[9,10],[11,12]] = [[58,64],[139,154]]
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        gemm_f32(2, 3, 2, &a, &b, &mut out);
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
        let mut r = [0.0f32; 4];
        gemm_ref(2, 3, 2, &a, &b, &mut r);
        assert_eq!(r, out);
    }

    #[test]
    fn gemm_blocked_matches_reference_bitwise() {
        let mut rng = Rng::new(41);
        // Shapes straddling the MR tile and the KC/NC panel boundaries.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 4, 4),
            (5, 7, 9),
            (8, 130, 3),
            (6, 129, 513),
            (17, 31, 23),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut blocked = vec![0.0f32; m * n];
            let mut reference = vec![0.0f32; m * n];
            gemm_f32(m, k, n, &a, &b, &mut blocked);
            gemm_ref(m, k, n, &a, &b, &mut reference);
            assert_eq!(
                bits(&blocked),
                bits(&reference),
                "blocked kernel diverged from scalar reference at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn gemm_is_deterministic_across_calls() {
        let mut rng = Rng::new(99);
        let (m, k, n) = (9, 33, 14);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut first = vec![0.0f32; m * n];
        let mut second = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, &mut first);
        gemm_f32(m, k, n, &a, &b, &mut second);
        assert_eq!(bits(&first), bits(&second));
    }

    #[test]
    fn gemm_accumulates_into_out() {
        let a = [1.0, 1.0];
        let b = [2.0, 3.0];
        let mut out = [10.0f32];
        gemm_f32(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out, [15.0]);
    }

    #[test]
    fn nan_in_rhs_propagates_even_against_zero_lhs() {
        // Regression: the old Tensor::matmul skipped `a == 0.0` rows,
        // silently masking 0*NaN (which is NaN per IEEE-754).
        let a = [0.0, 0.0];
        let b = [f32::NAN, 1.0, 2.0, 3.0];
        let mut out = [0.0f32; 2];
        gemm_f32(1, 2, 2, &a, &b, &mut out);
        assert!(out[0].is_nan(), "0*NaN must propagate NaN");
        assert!(out[1].is_finite());
    }

    #[test]
    fn inf_times_zero_propagates_nan() {
        let a = [0.0];
        let b = [f32::INFINITY];
        let mut out = [0.0f32];
        gemm_f32(1, 1, 1, &a, &b, &mut out);
        assert!(out[0].is_nan());
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut out: [f32; 0] = [];
        gemm_f32(0, 3, 0, &[], &[], &mut out);
        let mut out2 = [1.0f32, 2.0];
        gemm_f32(1, 0, 2, &[], &[], &mut out2);
        assert_eq!(out2, [1.0, 2.0]);
    }

    #[test]
    fn quantize_symmetric_known_values() {
        let (codes, scale) = quantize_symmetric(&[0.0, 1.0, -2.0, 4.0]);
        assert!((scale - 4.0 / 127.0).abs() < 1e-9);
        assert_eq!(codes, vec![0, 32, -64, 127]);
    }

    #[test]
    fn quantize_symmetric_all_zero() {
        let (codes, scale) = quantize_symmetric(&[0.0, 0.0]);
        assert_eq!(codes, vec![0, 0]);
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn gemm_i8_exact_on_integers() {
        // Quantization is exact only when every value is a whole number
        // of steps: with max |x| = 127 the scale is 127 / 127 = 1, each
        // integer maps to itself, and the dequantized int8 product must
        // equal the f32 product exactly. (Small integers alone are not
        // enough: max |a| = 6 gives scale 6/127, and 1.0 lands on code
        // round(21.17) = 21.)
        let a = [1.0, -2.0, 3.0, 4.0, -5.0, 127.0];
        let b = [7.0, 8.0, -9.0, 10.0, 127.0, -12.0];
        let (qa, sa) = quantize_symmetric(&a);
        let (qb, sb) = quantize_symmetric(&b);
        assert_eq!((sa, sb), (1.0, 1.0));
        let mut acc = [0i32; 4];
        gemm_i8(2, 3, 2, &qa, &qb, &mut acc);
        let mut exact = [0.0f32; 4];
        gemm_f32(2, 3, 2, &a, &b, &mut exact);
        for (i, &v) in acc.iter().enumerate() {
            assert_eq!(v as f32 * sa * sb, exact[i], "element {i}");
        }
    }

    #[test]
    fn gemm_i8_error_is_bounded_by_the_quantization_steps() {
        // Rounding to the nearest code leaves |x - q·s| <= s/2 per
        // element, so each dot product over k terms is off by at most
        // Σ_k (|a|·sb/2 + |b|·sa/2 + sa·sb/4); the slack covers f32
        // rounding of the scales and the reference sum.
        let (m, k, n) = (2, 3, 2);
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let (qa, sa) = quantize_symmetric(&a);
        let (qb, sb) = quantize_symmetric(&b);
        let mut acc = [0i32; 4];
        gemm_i8(m, k, n, &qa, &qb, &mut acc);
        let mut exact = [0.0f32; 4];
        gemm_f32(m, k, n, &a, &b, &mut exact);
        let mut inexact = 0;
        for i in 0..m {
            for j in 0..n {
                let bound: f32 = (0..k)
                    .map(|p| {
                        a[i * k + p].abs() * sb / 2.0
                            + b[p * n + j].abs() * sa / 2.0
                            + sa * sb / 4.0
                    })
                    .sum();
                let deq = acc[i * n + j] as f32 * sa * sb;
                let err = (deq - exact[i * n + j]).abs();
                assert!(
                    err <= bound + 1e-4,
                    "({i},{j}): error {err} > bound {bound}"
                );
                inexact += usize::from(err > 0.0);
            }
        }
        assert!(inexact > 0, "scales 6/127 and 12/127 cannot be exact");
    }

    #[test]
    fn gemm_i8_is_deterministic() {
        let a: Vec<i8> = (0..6).map(|i| (i * 7 % 11) as i8 - 5).collect();
        let b: Vec<i8> = (0..8).map(|i| (i * 13 % 17) as i8 - 8).collect();
        let mut x = vec![0i32; 12];
        let mut y = vec![0i32; 12];
        gemm_i8(3, 2, 4, &a, &b, &mut x);
        gemm_i8(3, 2, 4, &a, &b, &mut y);
        assert_eq!(x, y);
    }
}
