//! The hardware-backend layer.
//!
//! The paper treats the hardware cost model as an oracle (§III-C): the
//! co-design loop only ever asks "what does this candidate cost?". A
//! [`HardwareBackend`] is a [`HardwareCostEvaluator`] that additionally
//!
//! 1. carries a stable **backend id** (`cim`) used as the name a spec
//!    resolves by *and* as the namespace prefix of its cache
//!    fingerprint, and
//! 2. exposes its full configuration as an **opaque JSON
//!    snapshot** ([`HardwareBackend::config_json`]), so run reports and
//!    fingerprints can capture every constant that shaped a result
//!    without the core crate knowing the backend's concrete types.
//!
//! One backend ships in-tree, resolved by [`BackendRegistry`]:
//! [`cim::CimBackend`], the NeuroSim-style compute-in-memory macro model
//! the paper uses (the adapter is the **only** module in `lcda-core`
//! allowed to name `lcda_neurosim` chip/mapper types). Any other cost
//! model plugs in as an evaluator through
//! [`crate::CoDesignBuilder::hardware_evaluator`] or
//! [`crate::EvalPipeline::new`].
//!
//! # Cache-fingerprint namespacing
//!
//! [`crate::pipeline::EvalCache`] keys its context on the evaluator
//! pair's fingerprints. Every backend fingerprint is
//! `"{id}/{digest-of-config}"` ([`backend_fingerprint`]), so two models
//! can never collide even if their config JSON happened to hash
//! identically: a memoized result produced under `cim` is structurally
//! unservable to a model with another id.

use crate::evaluate::HardwareCostEvaluator;
use crate::hwconfig::HwHierarchy;
use crate::space::DesignSpace;
use crate::{CoreError, Result};
use std::fmt;
use std::str::FromStr;

pub mod cim;

pub use cim::CimBackend;

/// The name of the backend used when none is requested — the paper's
/// compute-in-memory model, and the only one [`BackendRegistry`]
/// resolves.
pub const DEFAULT_BACKEND: &str = "cim";

/// A hardware cost model under the co-design loop.
///
/// Everything the optimizer stack touches is the [`HardwareCostEvaluator`]
/// supertrait; the extra methods exist for the registry, checkpoints and
/// cache namespacing. `Box<dyn HardwareBackend>` upcasts directly to
/// `Box<dyn HardwareCostEvaluator>`.
pub trait HardwareBackend: HardwareCostEvaluator {
    /// Stable backend name (`cim`). Doubles as the namespace
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
    /// it has one. Other implementations may return `None`. The hierarchy's [`HwHierarchy::digest`] is what joins the
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

/// A grammar-level failure parsing a backend spec string.
///
/// These are the *typed* errors behind `BackendSpec::from_str`; callers
/// that want a [`CoreError`] get one via `From`. Registry membership of
/// the base name is a separate, registry-level check
/// ([`BackendRegistry::parse`]) — the grammar does not know which
/// backends exist.
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
/// is known and that any `@config` hardware hierarchy loads and
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

    /// The base backend's name (`cim`).
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

/// Resolves backend spec strings to hardware backends.
///
/// The CLI's `--backend` flag, serve's job specs and
/// [`crate::CoDesignBuilder::backend`] resolve through this. The one
/// in-tree backend is `cim`; any other cost model plugs in as an
/// evaluator through [`crate::CoDesignBuilder::hardware_evaluator`] or
/// [`crate::EvalPipeline::new`] instead of by name.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendRegistry;

impl BackendRegistry {
    /// The in-tree registry: `cim` (NeuroSim-style CiM), built on an
    /// optional [`HwHierarchy`]; `None` selects [`HwHierarchy::isaac`].
    pub fn standard() -> Self {
        BackendRegistry
    }

    /// Parses and fully validates a backend spec string: the grammar
    /// (via [`BackendSpec::from_str`]), that the base name is known, and
    /// — when the spec carries an `@config` suffix — that the hardware
    /// hierarchy loads and validates. This is the admission-time check
    /// the CLI and the serve job intake share — a spec that parses here
    /// is guaranteed to [`create`](BackendRegistry::create_spec_with)
    /// later (modulo backend construction failures and the config source
    /// changing underneath).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`], distinguishing the failure
    /// classes: the typed [`BackendSpecError`] message for grammar
    /// faults, the known-name listing for an unknown base, and the
    /// [`HwHierarchy`] load error (file-not-readable vs.
    /// unparseable/invalid content, naming the offending field path) for
    /// a bad `@config`.
    pub fn parse(&self, name: &str) -> Result<BackendSpec> {
        let spec: BackendSpec = name.parse()?;
        known(&spec)?;
        // Validate the hardware config at admission time so a bad file
        // or blob is reported here — not as a queued-then-failed job.
        spec.hardware()?;
        Ok(spec)
    }

    /// Whether `name` resolves: its base is known and any `@config`
    /// hierarchy loads and validates.
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
        self.create_spec_with(&spec, space, None)
    }

    /// Instantiates an already-parsed [`BackendSpec`] over a design
    /// space, on an explicitly supplied hardware hierarchy (the channel
    /// `lcda serve` job specs and the CLI `--hw-config` flag use) or
    /// else the spec's own `@config` hierarchy, if any. A spec that
    /// carries an `@config` suffix *and* an explicit hierarchy is
    /// rejected — two competing hardware sources would make the
    /// resolved chip ambiguous.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown base, an
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
        known(spec)?;
        let spec_hw = spec.hardware()?;
        Ok(Box::new(match hw.or(spec_hw.as_ref()) {
            Some(hw) => CimBackend::from_hierarchy(space.clone(), hw.clone())?,
            None => CimBackend::new(space.clone()),
        }))
    }
}

/// Refuses a spec whose base is not [`DEFAULT_BACKEND`], naming it.
fn known(spec: &BackendSpec) -> Result<()> {
    if spec.base() == DEFAULT_BACKEND {
        return Ok(());
    }
    Err(CoreError::InvalidConfig(format!(
        "unknown hardware backend `{}` (known: {DEFAULT_BACKEND})",
        spec.base()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_builds_the_named_backend() {
        let r = BackendRegistry::standard();
        let cim = r
            .create(DEFAULT_BACKEND, &DesignSpace::nacim_cifar10())
            .unwrap();
        assert_eq!(cim.id(), "cim");
        assert!(cim.fingerprint().starts_with("cim/"));
        assert_eq!(cim.hierarchy(), Some(&HwHierarchy::isaac()));
    }

    #[test]
    fn unknown_backend_is_a_config_error_naming_the_options() {
        let r = BackendRegistry::standard();
        let Err(err) = r.create("fpga", &DesignSpace::nacim_cifar10()) else {
            panic!("an unknown backend must be rejected");
        };
        match err {
            CoreError::InvalidConfig(msg) => {
                assert_eq!(msg, "unknown hardware backend `fpga` (known: cim)");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
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
        let configured = r.create_spec_with(&spec, &space, None).unwrap();
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
        assert!(err.to_string().contains("known: cim"));
        // create_spec_with refuses an unknown base it is handed directly.
        let Err(err) = r.create_spec_with(
            &BackendSpec::bare("fpga"),
            &DesignSpace::nacim_cifar10(),
            None,
        ) else {
            panic!("an unknown base must not build");
        };
        assert!(err.to_string().contains("unknown hardware backend `fpga`"));
    }

    #[test]
    fn plus_suffixed_names_are_unknown_backends() {
        // `+` has no meaning in the grammar: it is part of an unknown
        // name, and the error names that name in full.
        let r = BackendRegistry::standard();
        for name in ["cim+bogus", "fpga+x@chip.json"] {
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
