//! # lcda-tensor
//!
//! A small, dependency-light dense tensor engine used by the LCDA
//! reproduction as the substrate for DNN training and inference.
//!
//! The crate provides:
//!
//! - [`Shape`] / [`Tensor`]: row-major `f32` tensors with NCHW layout for
//!   image data,
//! - [`ops`]: forward *and* backward kernels for convolution (via im2col),
//!   pooling, activations and the softmax cross-entropy loss,
//! - [`init`]: standard weight initializers (Xavier/Glorot, He, uniform),
//! - [`optim`]: the SGD-with-momentum parameter optimizer.
//!
//! Randomness (weight init, dataset synthesis) comes from the workspace's
//! one generator, `lcda_base::rng::Rng`.
//!
//! # Example
//!
//! ```
//! use lcda_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
//! let b = Tensor::from_vec(Shape::d2(3, 2), vec![1., 0., 0., 1., 1., 1.]).unwrap();
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.as_slice(), &[4., 5., 10., 11.]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod shape;
mod tensor;

pub mod init;
pub mod ops;
pub mod optim;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
