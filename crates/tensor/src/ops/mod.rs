//! Neural-network compute kernels with explicit forward and backward passes.
//!
//! The LCDA trained evaluator needs real gradient-based training (the paper
//! trains every candidate with noise injection), so every kernel here comes
//! in a `*_forward` / `*_backward` pair. Layout is NCHW throughout.

mod activation;
mod conv;
mod gemm;
mod im2col;
mod loss;
mod pool;

pub use activation::{relu_backward, relu_forward, softmax_rows};
pub use conv::{
    conv2d_backward, conv2d_forward, conv2d_forward_direct, conv2d_param_grads, Conv2dParams,
};
pub use gemm::{gemm_f32, gemm_i8, gemm_ref, quantize_symmetric};
pub use im2col::{col2im, im2col, im2col_batch, ConvGeometry};
pub use loss::{cross_entropy_loss, one_hot};
pub use pool::{maxpool2_backward, maxpool2_forward};
