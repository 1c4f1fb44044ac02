//! # lcda-base
//!
//! The two pieces of infrastructure every other LCDA crate shares:
//!
//! - [`rng`]: the one seedable random number generator, so every
//!   experiment is reproducible from a single `u64` seed;
//! - [`json`](mod@json): the one JSON writer and parser, with the
//!   [`impl_json!`] macro that implements both for the workspace's types.
//!
//! The crate depends on `std` alone, so the workspace builds offline.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod json;
pub mod rng;
