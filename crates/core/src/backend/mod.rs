//! The hardware cost model.
//!
//! The paper treats the hardware cost model as an oracle (§III-C): the
//! co-design loop only ever asks "what does this candidate cost?". The
//! one model is [`cim::CimBackend`], the NeuroSim-style compute-in-memory
//! macro model the paper uses, built on an optional [`HwHierarchy`] (the
//! built-in ISAAC platform when none is given). The adapter is the
//! **only** module in `lcda-core` allowed to name `lcda_neurosim`
//! chip/mapper types. Any other cost model plugs in as an evaluator
//! through
//! [`crate::CoDesignBuilder::hardware_evaluator`] or
//! [`crate::EvalPipeline::new`].
//!
//! # Cache-fingerprint namespacing
//!
//! The memo store ([`crate::cache::CacheStore`]) keys its context on
//! the evaluator pair's fingerprints. The model's fingerprint is
//! `"cim/{digest-of-config}"` ([`backend_fingerprint`]), so a plugged-in
//! model with another name can never collide with it even if their
//! config digests did: a memoized `cim` result is structurally
//! unservable to any other model.

use crate::hwconfig::HwHierarchy;
use crate::space::DesignSpace;
use crate::{CoreError, Result};

pub mod cim;

pub use cim::CimBackend;

/// The hardware model's name: stamped into checkpoints, journals and
/// serve job specs, and the namespace prefix of its cache fingerprint.
pub const DEFAULT_BACKEND: &str = "cim";

/// Builds the namespaced fingerprint every cost model uses:
/// `"{id}/{fnv-digest(parts)}"`. The id prefix guarantees two models
/// never share a fingerprint (and therefore never share cache entries),
/// even on digest collision.
pub fn backend_fingerprint(id: &str, parts: &[&str]) -> String {
    format!("{id}/{}", crate::pipeline::stable_fingerprint(parts))
}

/// Refuses a hardware backend name other than [`DEFAULT_BACKEND`],
/// naming it: the check a checkpoint, a queued serve job or a job spec
/// naming a retired backend (`systolic`, `cim+faulty`) meets.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] naming the backend and the known one.
pub fn check_backend(name: &str) -> Result<()> {
    if name == DEFAULT_BACKEND {
        return Ok(());
    }
    Err(CoreError::InvalidConfig(format!(
        "unknown hardware backend `{name}` (known: {DEFAULT_BACKEND})"
    )))
}

/// Exists only so the benchmark package under `perf/` keeps building
/// against its current call shape
/// (`BackendRegistry::standard().parse(..)` then `.create_spec_with(..)`);
/// no other code may use it. Delete it when `perf/` builds
/// [`CimBackend`] directly.
#[derive(Debug, Clone, Copy)]
pub struct BackendRegistry;

impl BackendRegistry {
    /// The registry. For `perf/` only (see the type's docs).
    pub fn standard() -> Self {
        BackendRegistry
    }

    /// Checks a backend name with [`check_backend`]. For `perf/` only.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for any name but [`DEFAULT_BACKEND`].
    pub fn parse(&self, name: &str) -> Result<String> {
        check_backend(name)?;
        Ok(name.to_string())
    }

    /// Builds [`CimBackend`] over `space`, on `hw` when given. For
    /// `perf/` only.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown name or an invalid
    /// hierarchy.
    pub fn create_spec_with(
        &self,
        name: &str,
        space: &DesignSpace,
        hw: Option<&HwHierarchy>,
    ) -> Result<Box<CimBackend>> {
        check_backend(name)?;
        Ok(Box::new(match hw {
            Some(hw) => CimBackend::from_hierarchy(space.clone(), hw.clone())?,
            None => CimBackend::new(space.clone()),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_backends_are_refused_by_name() {
        check_backend(DEFAULT_BACKEND).unwrap();
        for name in ["fpga", "systolic", "cim+bogus", "cim@configs/hw/isaac.json"] {
            match check_backend(name) {
                Err(CoreError::InvalidConfig(msg)) => assert_eq!(
                    msg,
                    format!("unknown hardware backend `{name}` (known: cim)")
                ),
                other => panic!("{name}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn fingerprints_are_namespaced_by_id() {
        // Same digest input, different ids → different fingerprints.
        let a = backend_fingerprint("cim", &["x"]);
        let b = backend_fingerprint("stub", &["x"]);
        assert_ne!(a, b);
        assert_eq!(a.split('/').next(), Some("cim"));
    }
}
