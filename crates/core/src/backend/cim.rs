//! The compute-in-memory backend: the NeuroSim-style macro model of
//! §III-D behind the [`HardwareCostEvaluator`] trait.
//!
//! This module is the **only** place in `lcda-core` that names
//! `lcda_neurosim` chip/mapper types — everything else speaks
//! [`HardwareCostEvaluator`]. It owns the two pieces
//! of lowering that used to live on [`DesignSpace`]: candidate →
//! [`ChipConfig`] (the hardware half of the rollout) and candidate →
//! [`LayerWorkload`] list (the crossbar view of the network).
//!
//! # Hierarchy lowering
//!
//! Since the hardware-as-data refactor the platform is a declarative
//! [`HwHierarchy`] (the default is [`HwHierarchy::isaac`], identical to
//! the shipped `configs/hw/isaac.json` preset). The lowering rules, also
//! documented in DESIGN.md §13:
//!
//! - `chip.global_buffer_kb`, `crossbar.dac_bits`, `crossbar.adc_share`,
//!   `device.feature_nm` become the fixed [`ChipConfig`] platform
//!   constants;
//! - `crossbar.max_rc` caps simultaneously activated rows: the neurosim
//!   crossbar serializes each input cycle into `⌈rows/max_rc⌉`
//!   activation rounds (omitted → all rows fire at once);
//! - the chip/core NoC cost matrices fold into a multiplicative latency
//!   factor ([`HwHierarchy::noc_latency_factor`]) applied to the rolled-up
//!   chip latency — exactly `1.0` for single-node tiers, so trivial
//!   hierarchies reproduce the pre-refactor model bit-for-bit;
//! - the hierarchy's `crossbar` geometry and `device` cell describe the
//!   platform's *reference* array; each candidate's searched hardware
//!   knobs (`xbar_size`, `cell_bits`, `adc_bits`, `tech`) override them
//!   per evaluation — those axes are what the search explores;
//! - the `(energy, latency)` calibration stays a global constant pinned
//!   to the default ISAAC anchors, computed once per process: a
//!   per-hierarchy calibration would silently erase the real differences
//!   between chips, which are exactly what a hierarchy sweep is supposed
//!   to measure.

use super::{backend_fingerprint, DEFAULT_BACKEND};
use crate::evaluate::{HardwareCostEvaluator, HwMetrics};
use crate::hwconfig::HwHierarchy;
use crate::space::DesignSpace;
use crate::{CoreError, Result};
use lcda_llm::design::CandidateDesign;
use lcda_neurosim::chip::{Chip, ChipConfig, LatencyMode};
use lcda_neurosim::crossbar::CrossbarConfig;
use lcda_neurosim::device::DeviceTech;
use lcda_neurosim::isaac;
use lcda_neurosim::mapper::{LayerWorkload, Precision};
use lcda_neurosim::NeurosimError;
use std::sync::{Arc, OnceLock};

/// The global `(energy, latency)` calibration factors: a NeuroSim
/// evaluation of the reference network on [`ChipConfig::isaac_default`].
/// Neither input can change, so a process computes them once, on the
/// first backend it builds.
// The ISAAC default config is a compile-time constant validated by the
// neurosim crate's own tests; calibration over it cannot fail at runtime,
// so this is the one sanctioned expect in the crate (see the
// `clippy::expect_used` gate in lib.rs).
#[allow(clippy::expect_used)]
fn isaac_calibration() -> (f64, f64) {
    static CALIBRATION: OnceLock<(f64, f64)> = OnceLock::new();
    *CALIBRATION.get_or_init(|| {
        isaac::calibrate(ChipConfig::isaac_default())
            .expect("default ISAAC configuration is valid")
            .calibration
    })
}

/// A hierarchy's identity texts, rendered once when a backend is built:
/// the canonical JSON its fingerprint hashes, its digest and its summary.
#[derive(Debug)]
struct HwIdentity {
    json: String,
    digest: String,
    summary: String,
}

impl HwIdentity {
    fn of(hw: &HwHierarchy) -> Self {
        let json = hw.canonical_json();
        HwIdentity {
            digest: HwHierarchy::digest_of(&json),
            summary: hw.summary(),
            json,
        }
    }

    /// The built-in [`HwHierarchy::isaac`]'s identity, a process constant.
    fn isaac() -> Arc<Self> {
        static ISAAC: OnceLock<Arc<HwIdentity>> = OnceLock::new();
        Arc::clone(ISAAC.get_or_init(|| Arc::new(HwIdentity::of(&HwHierarchy::isaac()))))
    }
}

/// The NeuroSim-style hardware cost backend: builds the candidate's
/// calibrated chip from the declarative hierarchy and evaluates its
/// workloads.
#[derive(Debug, Clone)]
pub struct CimBackend {
    space: DesignSpace,
    hw: HwHierarchy,
    /// Latency accounting mode (the paper's FPS normalization is
    /// single-image latency, i.e. sequential). A modeling choice, not
    /// hardware — deliberately not part of the hierarchy.
    latency_mode: LatencyMode,
    /// Global `(energy, latency)` calibration factors, computed **once
    /// per process** from the default ISAAC configuration and applied to
    /// *every* candidate chip (see the module docs for why).
    calibration: (f64, f64),
    /// `hw`'s identity texts. `hw` is private and never changes, so they
    /// stay exact for the backend's whole life.
    identity: Arc<HwIdentity>,
}

impl CimBackend {
    /// Creates the backend for a design space on the paper's platform —
    /// the built-in [`HwHierarchy::isaac`] hierarchy.
    pub fn new(space: DesignSpace) -> Self {
        CimBackend {
            space,
            hw: HwHierarchy::isaac(),
            latency_mode: LatencyMode::Sequential,
            calibration: isaac_calibration(),
            identity: HwIdentity::isaac(),
        }
    }

    /// Creates the backend on an explicit hardware hierarchy (validated).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending field
    /// when the hierarchy fails [`HwHierarchy::validate`].
    pub fn from_hierarchy(space: DesignSpace, hw: HwHierarchy) -> Result<Self> {
        hw.validate()?;
        Ok(CimBackend {
            space,
            identity: Arc::new(HwIdentity::of(&hw)),
            hw,
            latency_mode: LatencyMode::Sequential,
            calibration: isaac_calibration(),
        })
    }

    /// The hardware hierarchy in use.
    pub fn hw(&self) -> &HwHierarchy {
        &self.hw
    }

    /// The hierarchy's [`HwHierarchy::digest`], rendered when the backend
    /// was built. It joins the checkpoint stamp and the journal
    /// `hw_config` event.
    pub fn digest(&self) -> &str {
        &self.identity.digest
    }

    /// The hierarchy's [`HwHierarchy::summary`], rendered when the
    /// backend was built.
    pub fn summary(&self) -> &str {
        &self.identity.summary
    }

    /// The chip configuration a candidate's hardware choice describes,
    /// calibrated to the ISAAC anchors: the hierarchy's platform
    /// constants plus the candidate's searched knobs.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for unsupported combinations (e.g. a
    /// cell precision the chosen technology cannot store).
    pub fn chip_config(&self, design: &CandidateDesign) -> Result<ChipConfig> {
        let tech = DeviceTech::parse(&design.hw.tech)?;
        let xbar = CrossbarConfig {
            rows: design.hw.xbar_size,
            cols: design.hw.xbar_size,
            cell_bits: design.hw.cell_bits,
            dac_bits: self.hw.crossbar.dac_bits,
            adc_bits: design.hw.adc_bits,
            adc_share: self.hw.crossbar.adc_share,
            tech,
            feature_nm: self.hw.device.feature_nm,
            max_rc: self.hw.crossbar.max_rc,
        };
        Ok(ChipConfig {
            xbar,
            precision: Precision::int8(),
            buffer_kb: self.hw.chip.global_buffer_kb,
            area_budget_mm2: self.space.area_budget_mm2,
            latency_mode: self.latency_mode,
            calibration: self.calibration,
        })
    }

    /// Lowers a candidate's network to this backend's workload
    /// representation: one crossbar layer description per conv/FC stage.
    ///
    /// # Errors
    ///
    /// Propagates architecture and workload validation errors.
    pub fn lower(&self, design: &CandidateDesign) -> Result<Vec<LayerWorkload>> {
        let arch = self.space.architecture(design)?;
        let mut layers = Vec::with_capacity(arch.convs.len() + 2);
        for (c_in, size, spec) in arch.conv_stages() {
            layers.push(LayerWorkload::conv(
                c_in,
                size,
                size,
                spec.channels,
                spec.kernel,
                1,
                spec.kernel / 2,
            )?);
        }
        layers.push(LayerWorkload::fc(arch.flat_features(), arch.hidden)?);
        layers.push(LayerWorkload::fc(arch.hidden, arch.classes)?);
        Ok(layers)
    }
}

impl HardwareCostEvaluator for CimBackend {
    fn cost(&mut self, design: &CandidateDesign) -> Result<Option<HwMetrics>> {
        let config = self.chip_config(design)?;
        let chip = Chip::new(config).map_err(CoreError::from)?;
        let layers = self.lower(design)?;
        match chip.evaluate_checked(&layers) {
            Ok(report) => {
                // Multi-node hierarchies pay the NoC transmission cost on
                // top of the compute roll-up; trivial topologies have a
                // factor of exactly 1.0 and skip the multiplication, so
                // the preset hierarchies stay bit-identical to the
                // pre-refactor model.
                let noc = self.hw.noc_latency_factor();
                let latency_ns = if noc == 1.0 {
                    report.latency_ns
                } else {
                    report.latency_ns * noc
                };
                Ok(Some(HwMetrics {
                    energy_pj: report.energy_pj,
                    latency_ns,
                    area_mm2: report.area_mm2,
                    leakage_uw: report.leakage_uw,
                }))
            }
            Err(NeurosimError::ConstraintViolation { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn name(&self) -> &'static str {
        DEFAULT_BACKEND
    }

    fn fingerprint(&self) -> String {
        // The space carries everything design-dependent (the chip-config
        // mapping, workloads, area budget); the hierarchy carries the
        // platform. Its canonical JSON joins the digest, so two different
        // chips can never share memo entries.
        let space = crate::identity::space_json(&self.space);
        backend_fingerprint(DEFAULT_BACKEND, &[&space, &self.identity.json])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_design_is_valid_and_on_anchor() {
        let space = DesignSpace::nacim_cifar10();
        let mut eval = CimBackend::new(space.clone());
        let m = eval
            .cost(&space.reference_design())
            .unwrap()
            .expect("reference must fit the area budget");
        // Calibration pins the reference to the ISAAC anchors.
        assert!(
            (m.energy_pj - 8.0e7).abs() / 8.0e7 < 1e-9,
            "{}",
            m.energy_pj
        );
        let fps = m.fps().unwrap();
        assert!((fps - 1600.0).abs() / 1600.0 < 1e-9, "{fps}");
        assert!(m.area_mm2 > 0.0 && m.area_mm2 < space.area_budget_mm2);
    }

    #[test]
    fn bigger_designs_cost_more() {
        let space = DesignSpace::nacim_cifar10();
        let mut eval = CimBackend::new(space.clone());
        let small = {
            let mut d = space.reference_design();
            for c in &mut d.conv {
                c.channels = 16;
            }
            d
        };
        let ms = eval.cost(&small).unwrap().unwrap();
        let mr = eval.cost(&space.reference_design()).unwrap().unwrap();
        assert!(ms.energy_pj < mr.energy_pj);
        assert!(ms.area_mm2 < mr.area_mm2);
    }

    #[test]
    fn oversized_design_violates_budget() {
        let mut space = DesignSpace::nacim_cifar10();
        space.area_budget_mm2 = 0.001;
        let mut eval = CimBackend::new(space.clone());
        assert!(eval.cost(&space.reference_design()).unwrap().is_none());
    }

    #[test]
    fn malformed_design_is_an_error_not_invalid() {
        let space = DesignSpace::nacim_cifar10();
        let mut eval = CimBackend::new(space.clone());
        let mut d = space.reference_design();
        d.hw.tech = "nonsense".into();
        assert!(eval.cost(&d).is_err());
    }

    #[test]
    fn reference_lowering_matches_the_isaac_network() {
        let space = DesignSpace::nacim_cifar10();
        let backend = CimBackend::new(space.clone());
        let d = space.reference_design();
        let layers = backend.lower(&d).unwrap();
        assert_eq!(layers.len(), 8);
        assert_eq!(layers, lcda_neurosim::isaac::reference_network());
        let chip = backend.chip_config(&d).unwrap();
        assert_eq!(chip.xbar.rows, 128);
        assert_ne!(chip.calibration, (1.0, 1.0));
    }

    #[test]
    fn hw_variants_convert() {
        let space = DesignSpace::nacim_cifar10();
        let backend = CimBackend::new(space.clone());
        let mut d = space.reference_design();
        d.hw.xbar_size = 256;
        d.hw.adc_bits = 4;
        d.hw.cell_bits = 4;
        d.hw.tech = "fefet".to_string();
        let chip = backend.chip_config(&d).unwrap();
        assert_eq!(chip.xbar.rows, 256);
        assert_eq!(chip.xbar.adc_bits, 4);
    }

    #[test]
    fn workload_rows_track_kernels() {
        let space = DesignSpace::nacim_cifar10();
        let backend = CimBackend::new(space.clone());
        let mut d = space.reference_design();
        d.conv[1].kernel = 7;
        let layers = backend.lower(&d).unwrap();
        if let LayerWorkload::Conv { kernel, c_in, .. } = layers[1] {
            assert_eq!(kernel, 7);
            assert_eq!(c_in, 32);
        } else {
            panic!("layer 1 should be conv");
        }
    }

    #[test]
    fn default_equals_builtin_isaac_hierarchy() {
        // The golden-equivalence guarantee at the unit level: `new` and
        // `from_hierarchy(isaac)` are the same backend — same platform
        // constants, same fingerprint, same metrics.
        let space = DesignSpace::nacim_cifar10();
        let mut a = CimBackend::new(space.clone());
        let mut b = CimBackend::from_hierarchy(space.clone(), HwHierarchy::isaac()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let d = space.reference_design();
        assert_eq!(a.cost(&d).unwrap(), b.cost(&d).unwrap());
        assert_eq!(a.hw(), b.hw());
        assert_eq!(a.hw(), &HwHierarchy::isaac());
    }

    #[test]
    fn fingerprint_is_namespaced_and_hierarchy_sensitive() {
        let space = DesignSpace::nacim_cifar10();
        let a = CimBackend::new(space.clone());
        assert!(a.fingerprint().starts_with("cim/"));
        let mut hw = HwHierarchy::isaac();
        hw.chip.global_buffer_kb = 128;
        let b = CimBackend::from_hierarchy(space, hw).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn invalid_hierarchy_is_rejected_at_construction() {
        let mut hw = HwHierarchy::isaac();
        hw.crossbar.rows = 0;
        let err = CimBackend::from_hierarchy(DesignSpace::nacim_cifar10(), hw).unwrap_err();
        assert!(err.to_string().contains("crossbar.rows"), "{err}");
    }

    #[test]
    fn buffer_and_periphery_come_from_the_hierarchy() {
        let space = DesignSpace::nacim_cifar10();
        let mut hw = HwHierarchy::isaac();
        hw.chip.global_buffer_kb = 128;
        hw.crossbar.dac_bits = 2;
        let backend = CimBackend::from_hierarchy(space.clone(), hw).unwrap();
        let chip = backend.chip_config(&space.reference_design()).unwrap();
        assert_eq!(chip.buffer_kb, 128);
        assert_eq!(chip.xbar.dac_bits, 2);
    }

    #[test]
    fn max_rc_serializes_activation_and_slows_the_chip() {
        let space = DesignSpace::nacim_cifar10();
        let d = space.reference_design();
        let mut unlimited = CimBackend::new(space.clone());
        let mut hw = HwHierarchy::isaac();
        hw.crossbar.max_rc = Some(32); // 128 rows / 32 → 4 rounds
        let mut limited = CimBackend::from_hierarchy(space, hw).unwrap();
        let mu = unlimited.cost(&d).unwrap().unwrap();
        let ml = limited.cost(&d).unwrap().unwrap();
        assert!(
            ml.latency_ns > mu.latency_ns,
            "activation-limited chip must be slower: {} vs {}",
            ml.latency_ns,
            mu.latency_ns
        );
        // Energy is first-order unchanged: the same total charge is
        // delivered, just over more rounds.
        assert_eq!(ml.energy_pj, mu.energy_pj);
    }

    #[test]
    fn multi_core_noc_cost_stretches_latency() {
        let space = DesignSpace::nacim_cifar10();
        let d = space.reference_design();
        let mut single = CimBackend::new(space.clone());
        let mut hw = HwHierarchy::isaac();
        hw.chip.cores = [2, 1];
        hw.chip.noc.cost = vec![vec![0.0, 0.5], vec![0.5, 0.0]];
        let mut meshed = CimBackend::from_hierarchy(space, hw.clone()).unwrap();
        let ms = single.cost(&d).unwrap().unwrap();
        let mm = meshed.cost(&d).unwrap().unwrap();
        let factor = hw.noc_latency_factor();
        assert!((mm.latency_ns - ms.latency_ns * factor).abs() < 1e-6);
        assert_eq!(mm.energy_pj, ms.energy_pj);
    }
}
