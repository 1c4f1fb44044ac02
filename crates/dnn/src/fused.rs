//! Fused Monte-Carlo forward engine: one GEMM per layer for *all* trials.
//!
//! The per-trial reference (in [`crate::mc_eval`]'s tests) clones the
//! network once per chip instance and runs a full forward pass per
//! trial. This engine
//! instead precomputes every trial's perturbed weight matrices (same
//! per-`(trial, matrix)` [`stream_seed`] discipline), then exploits a
//! structural fact: activations are **shared across trials until the
//! first weighted layer**, because only weight matrices are perturbed.
//! At that layer all trial weights are stacked into one big GEMM against
//! the shared activations; afterwards activations diverge and each trial
//! proceeds with its own (still batched-over-samples) GEMMs.
//!
//! # Bit-identity contract
//!
//! Fused results equal the sequential per-trial path bit-for-bit, for any
//! thread count, because:
//!
//! 1. perturbed weights come from the exact per-trial code path
//!    ([`WeightPerturber::perturb_batch`] replays `perturb_after` per
//!    seed),
//! 2. stacking trial weights as extra GEMM rows (conv) or columns
//!    (linear) changes *which* output elements a kernel call produces,
//!    never any element's ascending-`k` summation chain (see
//!    `lcda_tensor::ops::gemm`),
//! 3. thread fan-out splits trials into the same contiguous chunks as
//!    [`lcda_variation::montecarlo::try_run_parallel`], and per-trial
//!    results are independent of chunk grouping, and
//! 4. samples are split into chunks the same way: every layer is
//!    per-sample, and a GEMM over fewer columns (conv) or rows (linear)
//!    sums each element it produces in the same ascending-`k` order.
//!
//! The int8 path quantizes each trial's weight block with its **own**
//! per-tensor scale (and the shared activations once per layer), so int8
//! results are also invariant to fusion and threading — integer
//! accumulation is exact. The activation scale is taken over the batch,
//! so int8 runs the whole dataset as one batch instead of chunks.

use crate::dataset::SynthCifar;
use crate::layer::{linear_apply, Layer};
use crate::mc_eval::{McEvalConfig, Precision};
use crate::metrics::accuracy;
use crate::network::{argmax_rows, Network, INFER_BATCH};
use crate::{DnnError, Result};
use lcda_tensor::ops::{gemm_f32, gemm_i8, im2col_batch, quantize_symmetric, Conv2dParams};
use lcda_tensor::{Shape, Tensor};
use lcda_variation::montecarlo::{stream_seed, trial_seed, McStats};
use lcda_variation::weights::WeightPerturber;

/// Activations flowing through the fused forward: one tensor shared by
/// every trial (before the first weighted layer), or one per trial.
enum Acts {
    Shared(Tensor),
    PerTrial(Vec<Tensor>),
}

/// Entry point: fused Monte-Carlo accuracy with the same statistics,
/// seeding and error discipline as the per-trial reference in
/// `mc_eval`'s tests.
pub(crate) fn mc_accuracy_fused(
    network: &Network,
    data: &SynthCifar,
    config: &McEvalConfig,
) -> Result<McStats> {
    if config.trials == 0 {
        return Err(DnnError::InvalidTraining(
            "monte-carlo evaluation needs trials > 0".into(),
        ));
    }
    let w_max = network.max_abs_weight().max(1e-3);
    let perturber = WeightPerturber::new(config.variation.clone(), w_max);
    let trials = config.trials as usize;
    let threads = config.threads.max(1).min(trials);
    let samples = if threads == 1 {
        fused_trial_accuracies(network, data, &perturber, config, 0, config.trials)?
    } else {
        // Same contiguous chunking as try_run_parallel, so the fan-out is
        // bit-identical to sequential and errors are reported for the
        // lowest failing chunk deterministically.
        let chunk = trials.div_ceil(threads);
        let mut slots: Vec<Option<Result<Vec<f32>>>> = Vec::new();
        slots.resize_with(threads, || None);
        std::thread::scope(|s| {
            for (w, slot) in slots.iter_mut().enumerate() {
                let perturber = &perturber;
                let lo = (w * chunk).min(trials) as u32;
                let hi = ((w + 1) * chunk).min(trials) as u32;
                s.spawn(move || {
                    *slot = Some(fused_trial_accuracies(
                        network, data, perturber, config, lo, hi,
                    ));
                });
            }
        });
        let mut samples = Vec::with_capacity(trials);
        for slot in slots {
            samples.extend(slot.expect("every chunk slot is filled")?);
        }
        samples
    };
    McStats::from_samples(&samples)
        .map_err(|_| DnnError::InvalidTraining("monte-carlo evaluation needs trials > 0".into()))
}

/// Runs trials `[t_lo, t_hi)` through the fused forward and returns their
/// accuracies in ascending trial order.
///
/// Each trial's weights are perturbed once; the forward then runs over
/// consecutive sample chunks (`INFER_BATCH` in f32), so activations scale
/// with the chunk, not the dataset. Each trial's accuracy is computed
/// once over all its predictions, so it is the same count over the same
/// `n` as a whole-set pass.
fn fused_trial_accuracies(
    network: &Network,
    data: &SynthCifar,
    perturber: &WeightPerturber,
    config: &McEvalConfig,
    t_lo: u32,
    t_hi: u32,
) -> Result<Vec<f32>> {
    let span = (t_hi - t_lo) as usize;
    if span == 0 {
        return Ok(Vec::new());
    }
    // Precompute every trial's perturbed weights, matrix by matrix, with
    // the per-trial path's exact (trial, matrix) -> stream seeding.
    let clean = network.weight_matrices();
    let mut trial_weights: Vec<Vec<Tensor>> = Vec::with_capacity(clean.len());
    for (m, w) in clean.iter().enumerate() {
        let seeds: Vec<u64> = (t_lo..t_hi)
            .map(|t| stream_seed(trial_seed(config.seed, t), m as u64))
            .collect();
        let copies = perturber.perturb_batch(w.as_slice(), &seeds, config.elapsed_seconds);
        let shape = w.shape().clone();
        trial_weights.push(
            copies
                .into_iter()
                .map(|data| Ok(Tensor::from_vec(shape.clone(), data)?))
                .collect::<Result<Vec<Tensor>>>()?,
        );
    }

    // Int8 quantizes each layer's activations with one scale taken over
    // the whole batch, so only whole-set batches keep its numbers; f32
    // results are independent of how the samples are chunked.
    let n = data.len();
    let chunk = match config.precision {
        Precision::F32 => INFER_BATCH,
        Precision::Int8 => n,
    };
    let mut preds: Vec<Vec<usize>> = (0..span).map(|_| Vec::with_capacity(n)).collect();
    let mut start = 0;
    while start < n {
        let len = chunk.min(n - start);
        let (images, _) = data.batch(start, len)?;
        let mut acts = Acts::Shared(images);
        let mut m = 0usize;
        for layer in network.layers() {
            if layer.has_weights() {
                acts = apply_weighted(layer, acts, &trial_weights[m], span, config.precision)?;
                m += 1;
            } else {
                acts = match acts {
                    Acts::Shared(x) => Acts::Shared(layer.infer(&x)?),
                    Acts::PerTrial(xs) => Acts::PerTrial(
                        xs.iter()
                            .map(|x| layer.infer(x))
                            .collect::<Result<Vec<Tensor>>>()?,
                    ),
                };
            }
        }
        match acts {
            // No weighted layers at all: every chip instance is the clean one.
            Acts::Shared(logits) => {
                let chunk_preds = argmax_rows(&logits);
                for p in &mut preds {
                    p.extend_from_slice(&chunk_preds);
                }
            }
            Acts::PerTrial(all_logits) => {
                for (p, logits) in preds.iter_mut().zip(&all_logits) {
                    p.extend(argmax_rows(logits));
                }
            }
        }
        start += len;
    }
    preds.iter().map(|p| accuracy(p, data.labels())).collect()
}

/// Applies a weighted layer (conv or linear) to the activations, fusing
/// all trials into one GEMM while they still share activations.
fn apply_weighted(
    layer: &Layer,
    acts: Acts,
    weights: &[Tensor],
    span: usize,
    precision: Precision,
) -> Result<Acts> {
    debug_assert_eq!(weights.len(), span);
    match layer {
        Layer::Conv2d(l) => match acts {
            Acts::Shared(x) => Ok(Acts::PerTrial(conv_stacked(
                &x,
                weights,
                &l.bias.value,
                &l.params,
                precision,
            )?)),
            Acts::PerTrial(xs) => Ok(Acts::PerTrial(
                xs.iter()
                    .zip(weights)
                    .map(|(x, w)| conv_single(x, w, &l.bias.value, &l.params, precision))
                    .collect::<Result<Vec<Tensor>>>()?,
            )),
        },
        Layer::Linear(l) => match acts {
            Acts::Shared(x) => Ok(Acts::PerTrial(linear_stacked(
                &x,
                weights,
                &l.bias.value,
                precision,
            )?)),
            Acts::PerTrial(xs) => Ok(Acts::PerTrial(
                xs.iter()
                    .zip(weights)
                    .map(|(x, w)| linear_single(x, w, &l.bias.value, precision))
                    .collect::<Result<Vec<Tensor>>>()?,
            )),
        },
        _ => Err(DnnError::InvalidTraining(
            "apply_weighted called on a weightless layer".into(),
        )),
    }
}

/// Convolution over shared activations with all trial weights stacked as
/// extra output channels: one `(T*c_out, ckk) x (ckk, n*pc)` GEMM, then
/// per-trial row-block extraction with the usual bias add.
fn conv_stacked(
    x: &Tensor,
    weights: &[Tensor],
    bias: &Tensor,
    params: &Conv2dParams,
    precision: Precision,
) -> Result<Vec<Tensor>> {
    let span = weights.len();
    let geom = &params.geom;
    let n = x.shape().dims()[0];
    let cols = im2col_batch(x, geom)?; // (ckk, n*pc)
    let ckk = geom.patch_rows();
    let pc = geom.patch_cols();
    let ncols = n * pc;
    let c_out = params.out_channels;
    let prod: StackedProduct = match precision {
        Precision::F32 => {
            let mut big_w = Vec::with_capacity(span * c_out * ckk);
            for w in weights {
                big_w.extend_from_slice(w.as_slice());
            }
            let mut out = vec![0.0f32; span * c_out * ncols];
            gemm_f32(span * c_out, ckk, ncols, &big_w, cols.as_slice(), &mut out);
            StackedProduct::F32(out)
        }
        Precision::Int8 => {
            let (q_cols, s_cols) = quantize_symmetric(cols.as_slice());
            let mut big_q = Vec::with_capacity(span * c_out * ckk);
            let mut scales = Vec::with_capacity(span);
            for w in weights {
                let (q_w, s_w) = quantize_symmetric(w.as_slice());
                big_q.extend_from_slice(&q_w);
                scales.push(s_w * s_cols);
            }
            let mut acc = vec![0i32; span * c_out * ncols];
            gemm_i8(span * c_out, ckk, ncols, &big_q, &q_cols, &mut acc);
            StackedProduct::I32(acc, scales)
        }
    };
    let out_plane = c_out * pc;
    (0..span)
        .map(|t| {
            let mut out_t = vec![0.0f32; n * out_plane];
            for s in 0..n {
                for c in 0..c_out {
                    let b = bias.as_slice()[c];
                    let row_base = (t * c_out + c) * ncols + s * pc;
                    let dst = &mut out_t[s * out_plane + c * pc..s * out_plane + (c + 1) * pc];
                    match &prod {
                        StackedProduct::F32(big) => {
                            for (d, &v) in dst.iter_mut().zip(&big[row_base..row_base + pc]) {
                                *d = v + b;
                            }
                        }
                        StackedProduct::I32(acc, scales) => {
                            let scale = scales[t];
                            for (d, &v) in dst.iter_mut().zip(&acc[row_base..row_base + pc]) {
                                *d = v as f32 * scale + b;
                            }
                        }
                    }
                }
            }
            Ok(Tensor::from_vec(params.output_shape(n), out_t)?)
        })
        .collect()
}

/// Raw output of a stacked GEMM: f32, or i32 with per-trial dequant
/// scales (weight scale x activation scale).
enum StackedProduct {
    F32(Vec<f32>),
    I32(Vec<i32>, Vec<f32>),
}

/// Dense layer over shared activations with all trial weights stacked as
/// extra output columns: one `(n, in) x (in, T*out)` GEMM, then per-trial
/// column-block extraction with the usual bias add.
fn linear_stacked(
    x: &Tensor,
    weights: &[Tensor],
    bias: &Tensor,
    precision: Precision,
) -> Result<Vec<Tensor>> {
    let span = weights.len();
    let (n, in_dim) = (x.shape().dims()[0], x.shape().dims()[1]);
    let out_dim = weights[0].shape().dims()[1];
    let wide = span * out_dim;
    let cat_weight = |srcs: &[Tensor]| -> Vec<f32> {
        let mut cat = vec![0.0f32; in_dim * wide];
        for (t, w) in srcs.iter().enumerate() {
            let ws = w.as_slice();
            for p in 0..in_dim {
                cat[p * wide + t * out_dim..p * wide + (t + 1) * out_dim]
                    .copy_from_slice(&ws[p * out_dim..(p + 1) * out_dim]);
            }
        }
        cat
    };
    let prod: StackedProduct = match precision {
        Precision::F32 => {
            let cat = cat_weight(weights);
            let mut out = vec![0.0f32; n * wide];
            gemm_f32(n, in_dim, wide, x.as_slice(), &cat, &mut out);
            StackedProduct::F32(out)
        }
        Precision::Int8 => {
            let (q_x, s_x) = quantize_symmetric(x.as_slice());
            let mut q_cat = vec![0i8; in_dim * wide];
            let mut scales = Vec::with_capacity(span);
            for (t, w) in weights.iter().enumerate() {
                let (q_w, s_w) = quantize_symmetric(w.as_slice());
                scales.push(s_w * s_x);
                for p in 0..in_dim {
                    q_cat[p * wide + t * out_dim..p * wide + (t + 1) * out_dim]
                        .copy_from_slice(&q_w[p * out_dim..(p + 1) * out_dim]);
                }
            }
            let mut acc = vec![0i32; n * wide];
            gemm_i8(n, in_dim, wide, &q_x, &q_cat, &mut acc);
            StackedProduct::I32(acc, scales)
        }
    };
    (0..span)
        .map(|t| {
            let mut out_t = vec![0.0f32; n * out_dim];
            for r in 0..n {
                for (o, d) in out_t[r * out_dim..(r + 1) * out_dim].iter_mut().enumerate() {
                    let v = match &prod {
                        StackedProduct::F32(big) => big[r * wide + t * out_dim + o],
                        StackedProduct::I32(acc, scales) => {
                            acc[r * wide + t * out_dim + o] as f32 * scales[t]
                        }
                    };
                    *d = v + bias.as_slice()[o];
                }
            }
            Ok(Tensor::from_vec(Shape::d2(n, out_dim), out_t)?)
        })
        .collect()
}

/// Single-trial convolution after divergence: the f32 form is exactly
/// `conv2d_forward`; the int8 form quantizes this trial's activations and
/// weight with per-tensor scales.
fn conv_single(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: &Conv2dParams,
    precision: Precision,
) -> Result<Tensor> {
    match precision {
        Precision::F32 => Ok(lcda_tensor::ops::conv2d_forward(x, weight, bias, params)?),
        Precision::Int8 => {
            Ok(
                conv_stacked(x, std::slice::from_ref(weight), bias, params, precision)?
                    .pop()
                    .expect("one trial in, one tensor out"),
            )
        }
    }
}

/// Single-trial dense layer after divergence: f32 is exactly the shared
/// `linear_apply`; int8 quantizes both operands.
fn linear_single(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    precision: Precision,
) -> Result<Tensor> {
    match precision {
        Precision::F32 => linear_apply(x, weight, bias),
        Precision::Int8 => Ok(
            linear_stacked(x, std::slice::from_ref(weight), bias, precision)?
                .pop()
                .expect("one trial in, one tensor out"),
        ),
    }
}
