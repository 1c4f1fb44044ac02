//! The pluggable hardware-backend layer.
//!
//! The paper treats the hardware cost model as an interchangeable oracle
//! (§III-C): the co-design loop only ever asks "what does this candidate
//! cost?". This module makes that interchangeability real. A
//! [`HardwareBackend`] is a [`HardwareCostEvaluator`] that additionally
//!
//! 1. carries a stable **backend id** (`cim`, `systolic`, …) used as the
//!    registry key *and* as the namespace prefix of its cache
//!    fingerprint, and
//! 2. exposes its full configuration as an **opaque JSON
//!    snapshot** ([`HardwareBackend::config_json`]), so run reports and
//!    fingerprints can capture every constant that shaped a result
//!    without the core crate knowing the backend's concrete types.
//!
//! Two backends ship in-tree, registered in [`BackendRegistry::standard`]:
//!
//! - [`cim::CimBackend`] — the NeuroSim-style compute-in-memory macro
//!   model the paper uses (the adapter is the **only** module in
//!   `lcda-core` allowed to name `lcda_neurosim` chip/mapper types);
//! - [`systolic::SystolicBackend`] — a from-scratch Eyeriss/TPU-style
//!   analytic digital accelerator model, the cross-architecture baseline.
//!
//! # Cache-fingerprint namespacing
//!
//! [`crate::pipeline::EvalCache`] keys its context on the evaluator
//! pair's fingerprints. Every backend fingerprint is
//! `"{id}/{digest-of-config}"`, so two backends can never collide even if
//! their config JSON happened to hash identically: a memoized result
//! produced under `cim` is structurally unservable to a `systolic` run.

use crate::evaluate::HardwareCostEvaluator;
use crate::hwconfig::HwHierarchy;
use crate::space::DesignSpace;
use crate::{CoreError, Result};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

pub mod cim;
pub mod systolic;

pub use cim::CimBackend;
pub use systolic::SystolicBackend;

/// The registry key of the backend used when none is requested — the
/// paper's compute-in-memory model.
pub const DEFAULT_BACKEND: &str = "cim";

/// A hardware cost model that can be swapped under the co-design loop.
///
/// Everything the optimizer stack touches is the [`HardwareCostEvaluator`]
/// supertrait; the extra methods exist for the registry, checkpoints and
/// cache namespacing. `Box<dyn HardwareBackend>` upcasts directly to
/// `Box<dyn HardwareCostEvaluator>`.
pub trait HardwareBackend: HardwareCostEvaluator {
    /// Stable registry key (`cim`, `systolic`). Doubles as the namespace
    /// prefix of [`HardwareCostEvaluator::fingerprint`] and as the value
    /// stamped into [`crate::Checkpoint::backend`].
    fn id(&self) -> &'static str;

    /// The backend's full configuration as an opaque JSON snapshot —
    /// every constant that shapes its results, in a form the core crate
    /// does not need concrete types to carry around.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when serialization fails.
    fn config_json(&self) -> Result<String>;

    /// The declarative hardware hierarchy this backend was built on, when
    /// it has one. Backends registered by downstream crates may return
    /// `None`. The hierarchy's [`HwHierarchy::digest`] is what joins the
    /// checkpoint stamp and the journal `hw_config` event.
    fn hierarchy(&self) -> Option<&HwHierarchy> {
        None
    }
}

/// Builds the namespaced fingerprint every backend must use:
/// `"{id}/{fnv-digest(parts)}"`. The id prefix guarantees two backends
/// never share a fingerprint (and therefore never share cache entries),
/// even on digest collision.
pub fn backend_fingerprint(id: &str, parts: &[&str]) -> String {
    format!("{id}/{}", crate::pipeline::stable_fingerprint(parts))
}

/// Constructor signature stored in the registry: backends are built from
/// the design space plus an optional hardware hierarchy — `None` means
/// the backend's built-in default platform.
pub type BackendCtor = fn(&DesignSpace, Option<&HwHierarchy>) -> Result<Box<dyn HardwareBackend>>;

/// A grammar-level failure parsing a backend spec string.
///
/// These are the *typed* errors behind `BackendSpec::from_str`; callers
/// that want a [`CoreError`] get one via `From`. Registry membership of
/// the base name is a separate, registry-level check
/// ([`BackendRegistry::parse`]) — the grammar cannot know which backends
/// are registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendSpecError {
    /// The spec was empty or started with `@` (no base backend name).
    EmptyBase {
        /// The offending spec string.
        spec: String,
    },
    /// An `@` with nothing after it (`cim@`).
    EmptyConfig {
        /// The offending spec string.
        spec: String,
    },
}

impl fmt::Display for BackendSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpecError::EmptyBase { spec } => {
                write!(f, "backend spec `{spec}` has no base backend name")
            }
            BackendSpecError::EmptyConfig { spec } => {
                write!(
                    f,
                    "backend spec `{spec}` has an empty `@` hardware config \
                     (expected a JSON file path or inline `{{…}}` blob)"
                )
            }
        }
    }
}

impl std::error::Error for BackendSpecError {}

impl From<BackendSpecError> for CoreError {
    fn from(err: BackendSpecError) -> Self {
        CoreError::InvalidConfig(err.to_string())
    }
}

/// A parsed, validated backend name: `base(@config)?`.
///
/// This replaces the ad-hoc string splitting the CLI used to do: a spec
/// parses exactly once — at the flag boundary, or at serve-job admission
/// — into a typed value, and everything downstream consumes the type.
/// Parsing validates the *grammar* (typed [`BackendSpecError`]s);
/// [`BackendRegistry::parse`] additionally validates that the base name
/// is registered and that any `@config` hardware hierarchy loads and
/// validates.
///
/// The optional `@config` suffix names the hardware hierarchy the
/// backend should be built on: a JSON file path
/// (`cim@configs/hw/isaac.json`) or an inline JSON blob
/// (`cim@{"name":…}`). Everything after the first `@` is the config
/// source, verbatim — inline blobs may contain further `@`s.
///
/// ```
/// use lcda_core::backend::BackendSpec;
/// let spec: BackendSpec = "cim".parse().unwrap();
/// assert_eq!(spec.base(), "cim");
/// assert!("@chip.json".parse::<BackendSpec>().is_err());
/// let cfg: BackendSpec = "cim@configs/hw/isaac.json".parse().unwrap();
/// assert_eq!(cfg.config(), Some("configs/hw/isaac.json"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSpec {
    base: String,
    config: Option<String>,
}

impl BackendSpec {
    /// A bare spec for a base backend on its default hardware.
    pub fn bare(base: impl Into<String>) -> Self {
        BackendSpec {
            base: base.into(),
            config: None,
        }
    }

    /// The base backend's registry name (`cim`, `systolic`, …).
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The raw `@config` hardware-config source (file path or inline
    /// JSON), when the spec carries one.
    pub fn config(&self) -> Option<&str> {
        self.config.as_deref()
    }

    /// The spec without its `@config` suffix — the canonical *identity*
    /// string stamped into checkpoints and journals. Two specs naming
    /// the same chip through different sources (a file vs. the same JSON
    /// inline) resolve to the same identity; the hierarchy *digest* is
    /// what distinguishes actual hardware differences.
    pub fn identity(&self) -> BackendSpec {
        BackendSpec::bare(self.base.clone())
    }

    /// Resolves the `@config` source into a validated [`HwHierarchy`]
    /// (`None` when the spec names the backend's default platform).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] distinguishing an unreadable
    /// file from unparseable or invalid content, always naming the
    /// source.
    pub fn hardware(&self) -> Result<Option<HwHierarchy>> {
        match &self.config {
            None => Ok(None),
            Some(source) => HwHierarchy::from_source(source).map(Some),
        }
    }
}

impl fmt::Display for BackendSpec {
    /// Renders the canonical spec string (`cim@isaac.json`),
    /// round-tripping through [`FromStr`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        if let Some(config) = &self.config {
            write!(f, "@{config}")?;
        }
        Ok(())
    }
}

impl FromStr for BackendSpec {
    type Err = BackendSpecError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        // Everything after the first `@` is the config source, so inline
        // JSON blobs may contain further `@`s.
        let (base, config) = match s.split_once('@') {
            Some((_, "")) => {
                return Err(BackendSpecError::EmptyConfig {
                    spec: s.to_string(),
                });
            }
            Some((base, config)) => (base, Some(config.to_string())),
            None => (s, None),
        };
        if base.is_empty() {
            return Err(BackendSpecError::EmptyBase {
                spec: s.to_string(),
            });
        }
        Ok(BackendSpec {
            base: base.to_string(),
            config,
        })
    }
}

/// A small name → constructor table for hardware backends.
///
/// The CLI's `--backend` flag and [`crate::CoDesignBuilder::backend`]
/// resolve through one of these; downstream crates can
/// [`register`](BackendRegistry::register) their own models without
/// touching `lcda-core`.
#[derive(Debug, Clone, Default)]
pub struct BackendRegistry {
    ctors: BTreeMap<String, BackendCtor>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        BackendRegistry::default()
    }

    /// The in-tree backends: `cim` (NeuroSim-style CiM, the default) and
    /// `systolic` (digital systolic-array baseline). Each constructor
    /// accepts an optional [`HwHierarchy`]; `None` selects the built-in
    /// preset platform ([`HwHierarchy::isaac`] /
    /// [`HwHierarchy::systolic_256`]).
    pub fn standard() -> Self {
        let mut r = BackendRegistry::empty();
        r.register("cim", |space, hw| {
            Ok(match hw {
                Some(hw) => Box::new(CimBackend::from_hierarchy(space.clone(), hw.clone())?),
                None => Box::new(CimBackend::new(space.clone())),
            })
        });
        r.register("systolic", |space, hw| {
            Ok(match hw {
                Some(hw) => Box::new(SystolicBackend::from_hierarchy(space.clone(), hw.clone())?),
                None => Box::new(SystolicBackend::new(space.clone())),
            })
        });
        r
    }

    /// Registers (or replaces) a backend constructor under a name.
    pub fn register(&mut self, name: impl Into<String>, ctor: BackendCtor) {
        self.ctors.insert(name.into(), ctor);
    }

    /// Whether a backend name is registered (exact base names only; use
    /// [`BackendRegistry::resolves`] for full specs).
    pub fn contains(&self, name: &str) -> bool {
        self.ctors.contains_key(name)
    }

    /// The registered backend names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.ctors.keys().map(String::as_str).collect()
    }

    /// Parses and fully validates a backend spec string: the grammar
    /// (via [`BackendSpec::from_str`]), registry membership of the base
    /// name, and — when the spec carries an `@config` suffix — that the
    /// hardware hierarchy loads and validates. This is the
    /// admission-time check the CLI and the serve job intake share — a
    /// spec that parses here is guaranteed to
    /// [`create`](BackendRegistry::create_spec) later (modulo backend
    /// construction failures and the config source changing underneath).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`], distinguishing the failure
    /// classes: the typed [`BackendSpecError`] message for grammar
    /// faults, the known-name listing for an unregistered base, and the
    /// [`HwHierarchy`] load error (file-not-readable vs.
    /// unparseable/invalid content, naming the offending field path) for
    /// a bad `@config`.
    pub fn parse(&self, name: &str) -> Result<BackendSpec> {
        let spec: BackendSpec = name.parse()?;
        if !self.contains(spec.base()) {
            return Err(CoreError::InvalidConfig(format!(
                "unknown hardware backend `{}` (known: {})",
                spec.base(),
                self.names().join(", ")
            )));
        }
        // Validate the hardware config at admission time so a bad file
        // or blob is reported here — not as a queued-then-failed job.
        spec.hardware()?;
        Ok(spec)
    }

    /// Whether `name` resolves through this registry: its base is
    /// registered and any `@config` hierarchy loads and validates.
    pub fn resolves(&self, name: &str) -> bool {
        self.parse(name).is_ok()
    }

    /// Instantiates the named backend over a design space.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown base name and
    /// propagates backend construction errors.
    pub fn create(&self, name: &str, space: &DesignSpace) -> Result<Box<dyn HardwareBackend>> {
        let spec = self.parse(name)?;
        self.create_spec(&spec, space)
    }

    /// Instantiates an already-parsed [`BackendSpec`] over a design
    /// space, resolving its `@config` hierarchy (if any).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the spec's base is not
    /// registered or its hardware config does not resolve, and
    /// propagates backend construction errors.
    pub fn create_spec(
        &self,
        spec: &BackendSpec,
        space: &DesignSpace,
    ) -> Result<Box<dyn HardwareBackend>> {
        self.create_spec_with(spec, space, None)
    }

    /// Instantiates an already-parsed [`BackendSpec`] over a design
    /// space on an explicitly supplied hardware hierarchy (the channel
    /// `lcda serve` job specs and the CLI `--hw-config` flag use). A
    /// spec that *also* carries an `@config` suffix is rejected — two
    /// competing hardware sources would make the resolved chip
    /// ambiguous.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unregistered base, an
    /// ambiguous double hardware config, or an invalid hierarchy, and
    /// propagates backend construction errors.
    pub fn create_spec_with(
        &self,
        spec: &BackendSpec,
        space: &DesignSpace,
        hw: Option<&HwHierarchy>,
    ) -> Result<Box<dyn HardwareBackend>> {
        if hw.is_some() && spec.config().is_some() {
            return Err(CoreError::InvalidConfig(format!(
                "backend spec `{spec}` already names a hardware config; \
                 it cannot be combined with a separate hw config"
            )));
        }
        let ctor = self.ctors.get(spec.base()).ok_or_else(|| {
            CoreError::InvalidConfig(format!(
                "unknown hardware backend `{}` (known: {})",
                spec.base(),
                self.names().join(", ")
            ))
        })?;
        let spec_hw = spec.hardware()?;
        ctor(space, hw.or(spec_hw.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_lists_both_backends() {
        let r = BackendRegistry::standard();
        assert_eq!(r.names(), vec!["cim", "systolic"]);
        assert!(r.contains(DEFAULT_BACKEND));
    }

    #[test]
    fn create_builds_the_named_backend() {
        let r = BackendRegistry::standard();
        let space = DesignSpace::nacim_cifar10();
        let cim = r.create("cim", &space).unwrap();
        let sys = r.create("systolic", &space).unwrap();
        assert_eq!(cim.id(), "cim");
        assert_eq!(sys.id(), "systolic");
        assert!(cim.fingerprint().starts_with("cim/"));
        assert!(sys.fingerprint().starts_with("systolic/"));
    }

    #[test]
    fn unknown_backend_is_a_config_error_naming_the_options() {
        let r = BackendRegistry::standard();
        let Err(err) = r.create("fpga", &DesignSpace::nacim_cifar10()) else {
            panic!("an unknown backend must be rejected");
        };
        match err {
            CoreError::InvalidConfig(msg) => {
                assert!(msg.contains("fpga"));
                assert!(msg.contains("cim, systolic"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_are_namespaced_by_id() {
        // Same digest input, different ids → different fingerprints.
        let a = backend_fingerprint("cim", &["x"]);
        let b = backend_fingerprint("systolic", &["x"]);
        assert_ne!(a, b);
        assert_eq!(a.split('/').next(), Some("cim"));
    }

    #[test]
    fn custom_backend_registration() {
        let mut r = BackendRegistry::empty();
        assert!(r.names().is_empty());
        r.register("cim", |space, _hw| {
            Ok(Box::new(CimBackend::new(space.clone())))
        });
        assert!(r.contains("cim"));
        assert!(!r.contains("systolic"));
    }

    #[test]
    fn backend_spec_parses_the_grammar_with_typed_errors() {
        let bare: BackendSpec = "cim".parse().unwrap();
        assert_eq!(bare.base(), "cim");
        assert_eq!(bare.config(), None);
        assert_eq!(bare.to_string(), "cim");
        assert_eq!(bare, BackendSpec::bare("cim"));
        // Display round-trips through FromStr.
        assert_eq!(bare.to_string().parse::<BackendSpec>().unwrap(), bare);

        assert_eq!(
            "".parse::<BackendSpec>().unwrap_err(),
            BackendSpecError::EmptyBase {
                spec: String::new()
            }
        );
        let err = "@chip.json".parse::<BackendSpec>().unwrap_err();
        assert_eq!(
            err,
            BackendSpecError::EmptyBase {
                spec: "@chip.json".to_string()
            }
        );
        // The CoreError conversion keeps the message.
        let core: CoreError = err.into();
        assert!(core.to_string().contains("no base backend name"));
    }

    #[test]
    fn config_suffix_parses_and_round_trips() {
        let spec: BackendSpec = "cim@configs/hw/isaac.json".parse().unwrap();
        assert_eq!(spec.base(), "cim");
        assert_eq!(spec.config(), Some("configs/hw/isaac.json"));
        assert_eq!(spec.to_string(), "cim@configs/hw/isaac.json");
        assert_eq!(spec.to_string().parse::<BackendSpec>().unwrap(), spec);
        assert_eq!(spec.identity(), BackendSpec::bare("cim"));

        // Inline JSON blobs keep `+`/`@` characters verbatim.
        let inline: BackendSpec = "cim@{\"a+b\":\"c@d\"}".parse().unwrap();
        assert_eq!(inline.config(), Some("{\"a+b\":\"c@d\"}"));

        assert_eq!(
            "cim@".parse::<BackendSpec>().unwrap_err(),
            BackendSpecError::EmptyConfig {
                spec: "cim@".to_string()
            }
        );
    }

    #[test]
    fn registry_parse_distinguishes_the_config_failure_classes() {
        let r = BackendRegistry::standard();
        // Unknown backend, even with a plausible config.
        let err = r.parse("fpga@chip.json").unwrap_err().to_string();
        assert!(err.contains("unknown hardware backend"), "{err}");
        // Known backend, unreadable file.
        let err = r
            .parse("cim@/nonexistent/chip.json")
            .unwrap_err()
            .to_string();
        assert!(err.contains("not readable"), "{err}");
        assert!(!err.contains("unknown hardware backend"), "{err}");
        // Known backend, invalid inline content names the field path.
        let mut bad: lcda_base::json::Value =
            lcda_base::json::from_str(&crate::hwconfig::HwHierarchy::isaac().canonical_json())
                .unwrap();
        bad["crossbar"]["rows"] = lcda_base::json!(0);
        let err = r.parse(&format!("cim@{bad}")).unwrap_err().to_string();
        assert!(err.contains("crossbar.rows"), "{err}");
    }

    #[test]
    fn inline_config_builds_a_configured_backend() {
        let r = BackendRegistry::standard();
        let space = DesignSpace::nacim_cifar10();
        let mut hw = crate::hwconfig::HwHierarchy::isaac();
        hw.chip.global_buffer_kb = 128;
        let spec = r.parse(&format!("cim@{}", hw.canonical_json())).unwrap();
        let configured = r.create_spec(&spec, &space).unwrap();
        let default = r.create("cim", &space).unwrap();
        assert_eq!(configured.hierarchy(), Some(&hw));
        assert_ne!(configured.fingerprint(), default.fingerprint());
        // The identical hierarchy inline reproduces the default exactly.
        let same = r
            .create(
                &format!(
                    "cim@{}",
                    crate::hwconfig::HwHierarchy::isaac().canonical_json()
                ),
                &space,
            )
            .unwrap();
        assert_eq!(same.fingerprint(), default.fingerprint());
    }

    #[test]
    fn explicit_hw_conflicts_with_a_config_suffix() {
        let r = BackendRegistry::standard();
        let space = DesignSpace::nacim_cifar10();
        let hw = crate::hwconfig::HwHierarchy::isaac();
        let spec = r.parse(&format!("cim@{}", hw.canonical_json())).unwrap();
        let Err(err) = r.create_spec_with(&spec, &space, Some(&hw)) else {
            panic!("an explicit hierarchy must not combine with a config suffix");
        };
        let err = err.to_string();
        assert!(err.contains("cannot be combined"), "{err}");
        // Without the suffix the explicit hierarchy is accepted.
        let spec = r.parse("cim").unwrap();
        let backend = r.create_spec_with(&spec, &space, Some(&hw)).unwrap();
        assert_eq!(backend.hierarchy(), Some(&hw));
    }

    #[test]
    fn registry_parse_validates_base_membership() {
        let r = BackendRegistry::standard();
        assert_eq!(r.parse("cim").unwrap(), BackendSpec::bare("cim"));
        let err = r.parse("fpga").unwrap_err();
        assert!(err.to_string().contains("fpga"));
        assert!(err.to_string().contains("cim, systolic"));
        // create_spec builds a parsed spec directly.
        let space = DesignSpace::nacim_cifar10();
        let spec = r.parse("systolic").unwrap();
        let backend = r.create_spec(&spec, &space).unwrap();
        assert_eq!(backend.id(), "systolic");
    }

    #[test]
    fn plus_suffixed_names_are_unknown_backends() {
        // `+` has no meaning in the grammar: it is part of an unregistered
        // name, and the error names that name in full.
        let r = BackendRegistry::standard();
        for name in ["cim+bogus", "systolic+x@chip.json"] {
            let err = r.parse(name).unwrap_err().to_string();
            let base = name.split('@').next().unwrap();
            assert!(
                err.contains(&format!("unknown hardware backend `{base}`")),
                "{err}"
            );
            assert!(!r.resolves(name));
        }
    }

    #[test]
    fn backend_boxes_upcast_to_cost_evaluators() {
        use crate::evaluate::HardwareCostEvaluator;
        let space = DesignSpace::nacim_cifar10();
        let backend = BackendRegistry::standard().create("cim", &space).unwrap();
        let mut eval: Box<dyn HardwareCostEvaluator> = backend;
        assert!(eval.cost(&space.reference_design()).unwrap().is_some());
    }
}
