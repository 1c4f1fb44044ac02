//! Blocked, deterministic f32 GEMM microkernel and its scalar reference.
//!
//! This module is the single matrix-multiply hot path for the whole
//! workspace: [`crate::Tensor::matmul`] calls [`gemm_f32`], convolution
//! rides on it via im2col.
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
}
