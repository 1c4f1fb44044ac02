//! # lcda-dnn
//!
//! The DNN substrate of the LCDA reproduction: CNN layers with explicit
//! backward passes, networks assembled from an [`arch::Architecture`]
//! description, a synthetic CIFAR-10-class dataset, the paper's
//! **noise-injection training** method (§III-C) and the **Monte-Carlo**
//! accuracy evaluation under device variation.
//!
//! # Example
//!
//! ```
//! use lcda_dnn::arch::Architecture;
//! use lcda_dnn::dataset::SynthCifar;
//! use lcda_dnn::mc_eval::clean_accuracy;
//! use lcda_dnn::trainer::{Trainer, TrainConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::tiny_test(); // small 8×8, 4-class net for doc-test speed
//! let data = SynthCifar::generate_classes(64, 8, 4, 9)?;
//! let mut trainer = Trainer::new(arch.build(7)?, TrainConfig::fast_test());
//! let report = trainer.fit(&data)?;
//! assert_eq!(report.epoch_losses.len(), 2);
//! let accuracy = clean_accuracy(&mut trainer.into_network(), &data)?;
//! assert!((0.0..=1.0).contains(&accuracy));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod arch;
pub mod dataset;
pub mod layer;
pub mod mc_eval;
pub mod metrics;
pub mod network;
pub mod trainer;

pub use error::DnnError;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, DnnError>;
