//! Declarative hardware hierarchy: chips as data, not code.
//!
//! CIM-MLC models a compute-in-memory DNN accelerator as a four-tier
//! hierarchy — **chip → core → crossbar → device** — described by a small
//! set of parameters (core/crossbar grids, NoC kinds and cost matrices,
//! buffer sizes, bus bandwidths, cell precision, `MaxRC` activation
//! limits). [`HwHierarchy`] is that abstraction as a typed, JSON-loaded
//! value: a JSON file (`--hw-config`) or serve's `hw` object parses
//! with `deny_unknown_fields`, passes [`HwHierarchy::validate`], and then
//! *configures* the backend instead of the backend compiling its chip in.
//!
//! [`crate::backend::CimBackend`] lowers the chip/crossbar/device tiers
//! into its NeuroSim [`ChipConfig`] platform constants (buffers, DAC
//! bits, ADC sharing, feature size, `MaxRC`, NoC latency factor).
//!
//! The shipped preset `configs/hw/isaac.json` reproduces the previously
//! hard-coded defaults bit-for-bit — guarded by a golden-equivalence
//! test — and the hierarchy's [`digest`](HwHierarchy::digest) joins every
//! backend cache
//! fingerprint, checkpoint stamp, and journal `hw_config` event, so two
//! different chips can never share memoized results or resume each
//! other's checkpoints.
//!
//! [`ChipConfig`]: lcda_neurosim::chip::ChipConfig

use crate::pipeline::stable_fingerprint;
use crate::{CoreError, Result};
use std::path::Path;

/// The network-on-chip topology connecting the nodes of a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocKind {
    /// 2-D mesh.
    Mesh,
    /// H-tree (ISAAC-style reduction tree).
    HTree,
    /// Shared bus.
    Bus,
}

lcda_base::impl_json!(
    #[snake_case]
    enum NocKind {
        Mesh,
        HTree,
        Bus,
    }
);

impl NocKind {
    /// The kind's canonical (snake_case) name.
    pub fn name(self) -> &'static str {
        match self {
            NocKind::Mesh => "mesh",
            NocKind::HTree => "h_tree",
            NocKind::Bus => "bus",
        }
    }
}

/// A tier's NoC: topology kind plus the pairwise transmission-cost
/// matrix (`cost[i][j]` = relative cost of moving data from node `i` to
/// node `j`; the CIM-MLC `CoreNocCost`/`XBNocCost` parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct NocSpec {
    /// Topology kind.
    pub kind: NocKind,
    /// Square pairwise cost matrix, one row/column per node of the tier.
    pub cost: Vec<Vec<f64>>,
}

lcda_base::impl_json!(#[deny_unknown_fields] struct NocSpec { kind, cost });

impl NocSpec {
    /// A trivial single-node NoC (no communication modeled).
    pub fn single(kind: NocKind) -> Self {
        NocSpec {
            kind,
            cost: vec![vec![0.0]],
        }
    }

    /// Mean off-diagonal cost: the average hop cost between distinct
    /// nodes, `0.0` for a single-node tier. This is the quantity the
    /// backends fold into their latency model.
    pub fn mean_hop_cost(&self) -> f64 {
        let n = self.cost.len();
        if n < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (i, row) in self.cost.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                if i != j {
                    sum += c;
                }
            }
        }
        sum / (n * (n - 1)) as f64
    }

    /// Validates shape (square, one node per `nodes`) and entries
    /// (finite, non-negative). `path` names the offending field in
    /// errors (`chip.noc` / `core.noc`).
    fn validate(&self, path: &str, nodes: u64) -> Result<()> {
        let n = self.cost.len() as u64;
        if n != nodes {
            return Err(CoreError::InvalidConfig(format!(
                "{path}.cost must have one row per node: got {n} rows for {nodes} nodes"
            )));
        }
        for (i, row) in self.cost.iter().enumerate() {
            if row.len() as u64 != nodes {
                return Err(CoreError::InvalidConfig(format!(
                    "{path}.cost must be square: row {i} has {} entries, expected {nodes}",
                    row.len()
                )));
            }
            for (j, c) in row.iter().enumerate() {
                if !c.is_finite() || *c < 0.0 {
                    return Err(CoreError::InvalidConfig(format!(
                        "{path}.cost[{i}][{j}] must be finite and non-negative, got {c}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Chip tier: the grid of cores and the resources they share
/// (CIM-MLC `CoreNum` / `CoreNoc` / `CoreNocCost` / `GBBuf` / `CoreBus`
/// / `CoreALU`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipTier {
    /// Cores per chip, `[rows, cols]`.
    pub cores: [u32; 2],
    /// Inter-core NoC.
    pub noc: NocSpec,
    /// Global buffer capacity, KB.
    pub global_buffer_kb: u32,
    /// Global buffer bandwidth, GB/s.
    pub bus_gb_s: f64,
    /// Chip-level ALU throughput, Gop/s.
    pub alu_gops: f64,
}

lcda_base::impl_json!(#[deny_unknown_fields] struct ChipTier {
    cores, noc, global_buffer_kb, bus_gb_s, alu_gops,
});

/// Core tier: the grid of crossbars inside one core and their local
/// resources (CIM-MLC `XBNum` / `XBNoc` / `XBNocCost` / `LCBuf` /
/// `XBbus` / `XBALU`).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreTier {
    /// Crossbars per core, `[rows, cols]`.
    pub crossbars: [u32; 2],
    /// Inter-crossbar NoC.
    pub noc: NocSpec,
    /// Local buffer capacity, KB.
    pub local_buffer_kb: u32,
    /// Local buffer bandwidth, GB/s.
    pub bus_gb_s: f64,
    /// Per-core ALU throughput, Gop/s.
    pub alu_gops: f64,
}

lcda_base::impl_json!(#[deny_unknown_fields] struct CoreTier {
    crossbars, noc, local_buffer_kb, bus_gb_s, alu_gops,
});

/// Crossbar tier: the array geometry and mixed-signal periphery
/// (CIM-MLC `XBSize` / `MaxRC`, plus the DAC/ADC configuration the
/// paper's platform holds fixed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarTier {
    /// Array rows (cells per column).
    pub rows: u32,
    /// Array columns (cells per row).
    pub cols: u32,
    /// DAC resolution, bits.
    pub dac_bits: u8,
    /// ADC resolution, bits.
    pub adc_bits: u8,
    /// Columns sharing one ADC.
    pub adc_share: u32,
    /// `MaxRC`: maximum rows activated simultaneously. Omitted (`null`)
    /// means all rows fire at once; a limit below `rows` serializes the
    /// activation into `ceil(rows / max_rc)` rounds per input cycle.
    pub max_rc: Option<u32>,
}

lcda_base::impl_json!(#[deny_unknown_fields] struct CrossbarTier {
    rows,
    cols,
    dac_bits,
    adc_bits,
    adc_share,
    #[skip_if = Option::is_none] max_rc,
});

/// Device tier: the memory cell (CIM-MLC `Type` / `Precision`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTier {
    /// Device technology name (`rram`, `sram`, `fefet`, …), resolved
    /// against the CiM backend's device library.
    pub tech: String,
    /// Cell storage precision, bits.
    pub cell_bits: u8,
    /// Technology feature size, nm.
    pub feature_nm: f64,
}

lcda_base::impl_json!(#[deny_unknown_fields] struct DeviceTier { tech, cell_bits, feature_nm });

/// The full four-tier hardware description. See the [module docs](self)
/// for how the `cim` backend lowers it.
#[derive(Debug, Clone, PartialEq)]
pub struct HwHierarchy {
    /// Human-readable hierarchy name (`isaac`, …).
    pub name: String,
    /// Chip tier.
    pub chip: ChipTier,
    /// Core tier.
    pub core: CoreTier,
    /// Crossbar tier.
    pub crossbar: CrossbarTier,
    /// Device tier.
    pub device: DeviceTier,
}

lcda_base::impl_json!(#[deny_unknown_fields] struct HwHierarchy {
    name, chip, core, crossbar, device,
});

/// Checks a strictly positive, finite f64 parameter; `path` names the
/// field in the error.
fn check_positive(path: &str, v: f64) -> Result<()> {
    if !v.is_finite() || v <= 0.0 {
        return Err(CoreError::InvalidConfig(format!(
            "{path} must be finite and positive, got {v}"
        )));
    }
    Ok(())
}

impl HwHierarchy {
    /// The built-in ISAAC hierarchy — the paper's CiM platform. Equal to
    /// the shipped `configs/hw/isaac.json` preset (golden-equivalence
    /// tested) and to the constants [`crate::backend::CimBackend`] used
    /// to hard-code.
    pub fn isaac() -> Self {
        HwHierarchy {
            name: "isaac".to_string(),
            chip: ChipTier {
                cores: [1, 1],
                noc: NocSpec::single(NocKind::Mesh),
                global_buffer_kb: 64,
                bus_gb_s: 12.8,
                alu_gops: 1.28,
            },
            core: CoreTier {
                crossbars: [1, 1],
                noc: NocSpec::single(NocKind::HTree),
                local_buffer_kb: 2,
                bus_gb_s: 3.2,
                alu_gops: 0.64,
            },
            crossbar: CrossbarTier {
                rows: 128,
                cols: 128,
                dac_bits: 1,
                adc_bits: 8,
                adc_share: 8,
                max_rc: None,
            },
            device: DeviceTier {
                tech: "rram".to_string(),
                cell_bits: 2,
                feature_nm: 32.0,
            },
        }
    }

    /// Exhaustive validation. Every violation is a
    /// [`CoreError::InvalidConfig`] naming the offending field path
    /// (`chip.noc.cost`, `crossbar.rows`, …).
    ///
    /// # Errors
    ///
    /// The first violation found, so a rejected config points at one
    /// concrete problem.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(CoreError::InvalidConfig(
                "name must not be empty".to_string(),
            ));
        }
        if self.chip.cores[0] == 0 || self.chip.cores[1] == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "chip.cores must be nonzero in both dimensions, got [{}, {}]",
                self.chip.cores[0], self.chip.cores[1]
            )));
        }
        let core_nodes = u64::from(self.chip.cores[0]) * u64::from(self.chip.cores[1]);
        self.chip.noc.validate("chip.noc", core_nodes)?;
        if self.chip.global_buffer_kb == 0 {
            return Err(CoreError::InvalidConfig(
                "chip.global_buffer_kb must be positive".to_string(),
            ));
        }
        check_positive("chip.bus_gb_s", self.chip.bus_gb_s)?;
        check_positive("chip.alu_gops", self.chip.alu_gops)?;

        if self.core.crossbars[0] == 0 || self.core.crossbars[1] == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "core.crossbars must be nonzero in both dimensions, got [{}, {}]",
                self.core.crossbars[0], self.core.crossbars[1]
            )));
        }
        let xbar_nodes = u64::from(self.core.crossbars[0]) * u64::from(self.core.crossbars[1]);
        self.core.noc.validate("core.noc", xbar_nodes)?;
        if self.core.local_buffer_kb == 0 {
            return Err(CoreError::InvalidConfig(
                "core.local_buffer_kb must be positive".to_string(),
            ));
        }
        check_positive("core.bus_gb_s", self.core.bus_gb_s)?;
        check_positive("core.alu_gops", self.core.alu_gops)?;

        if self.crossbar.rows == 0 {
            return Err(CoreError::InvalidConfig(
                "crossbar.rows must be positive".to_string(),
            ));
        }
        if self.crossbar.cols == 0 {
            return Err(CoreError::InvalidConfig(
                "crossbar.cols must be positive".to_string(),
            ));
        }
        if self.crossbar.dac_bits == 0 {
            return Err(CoreError::InvalidConfig(
                "crossbar.dac_bits must be positive".to_string(),
            ));
        }
        if self.crossbar.adc_bits == 0 {
            return Err(CoreError::InvalidConfig(
                "crossbar.adc_bits must be positive".to_string(),
            ));
        }
        if self.crossbar.adc_share == 0
            || !self.crossbar.cols.is_multiple_of(self.crossbar.adc_share)
        {
            return Err(CoreError::InvalidConfig(format!(
                "crossbar.adc_share {} must divide crossbar.cols {}",
                self.crossbar.adc_share, self.crossbar.cols
            )));
        }
        if let Some(max_rc) = self.crossbar.max_rc {
            if max_rc == 0 || max_rc > self.crossbar.rows {
                return Err(CoreError::InvalidConfig(format!(
                    "crossbar.max_rc must be in 1..=crossbar.rows ({}), got {max_rc}",
                    self.crossbar.rows
                )));
            }
        }

        if self.device.tech.is_empty() {
            return Err(CoreError::InvalidConfig(
                "device.tech must not be empty".to_string(),
            ));
        }
        if self.device.cell_bits == 0 {
            return Err(CoreError::InvalidConfig(
                "device.cell_bits must be positive".to_string(),
            ));
        }
        check_positive("device.feature_nm", self.device.feature_nm)
    }

    /// Parses and validates a hierarchy from JSON text. A `"epsodes"`
    /// style typo anywhere in the document is rejected, not ignored
    /// (`deny_unknown_fields` on every tier).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] carrying the parse error (which
    /// names the unknown/missing field) or the validation error.
    pub fn from_json(text: &str) -> Result<Self> {
        let hw: HwHierarchy = lcda_base::json::from_str(text)
            .map_err(|e| CoreError::InvalidConfig(format!("invalid hardware config: {e}")))?;
        hw.validate()?;
        Ok(hw)
    }

    /// Loads and validates a hierarchy from a JSON file. A missing file
    /// is reported distinctly from an unparseable or invalid one.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the path and whether it was
    /// unreadable, unparseable, or invalid.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            CoreError::InvalidConfig(format!(
                "hardware config `{}` not readable: {e}",
                path.display()
            ))
        })?;
        Self::from_json(&text).map_err(|e| {
            CoreError::InvalidConfig(format!("hardware config `{}`: {e}", path.display()))
        })
    }

    /// The canonical JSON form the digest and fingerprints hash over.
    /// Field order is the struct's declaration order, so equal values
    /// always serialize identically.
    pub fn canonical_json(&self) -> String {
        lcda_base::json::to_string(self)
    }

    /// The hierarchy's stable content digest. Joins backend cache
    /// fingerprints, the checkpoint stamp, and the journal `hw_config`
    /// event: two different hierarchies can never share any of them.
    pub fn digest(&self) -> String {
        Self::digest_of(&self.canonical_json())
    }

    /// [`HwHierarchy::digest`] from an already rendered
    /// [`HwHierarchy::canonical_json`].
    pub(crate) fn digest_of(canonical_json: &str) -> String {
        stable_fingerprint(&[canonical_json])
    }

    /// One-line tier summary for journals and reports.
    pub fn summary(&self) -> String {
        format!(
            "{}: {}x{} cores ({}) · {}x{} xbars ({}) · {}x{} cells · {} {}b @ {}nm",
            self.name,
            self.chip.cores[0],
            self.chip.cores[1],
            self.chip.noc.kind.name(),
            self.core.crossbars[0],
            self.core.crossbars[1],
            self.core.noc.kind.name(),
            self.crossbar.rows,
            self.crossbar.cols,
            self.device.tech,
            self.device.cell_bits,
            self.device.feature_nm,
        )
    }

    /// The multiplicative latency factor the NoC topology adds on top of
    /// the compute roll-up: `(1 + mean inter-core hop cost) · (1 + mean
    /// inter-crossbar hop cost)`. Exactly `1.0` for single-node tiers or
    /// all-zero cost matrices, so trivial hierarchies reproduce the
    /// un-refactored cost models bit-for-bit.
    pub fn noc_latency_factor(&self) -> f64 {
        (1.0 + self.chip.noc.mean_hop_cost()) * (1.0 + self.core.noc.mean_hop_cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_hierarchies_validate() {
        HwHierarchy::isaac().validate().unwrap();
    }

    #[test]
    fn canonical_json_roundtrips_and_digest_is_stable() {
        let hw = HwHierarchy::isaac();
        let back = HwHierarchy::from_json(&hw.canonical_json()).unwrap();
        assert_eq!(back, hw);
        assert_eq!(back.digest(), hw.digest());
    }

    #[test]
    fn any_field_change_moves_the_digest() {
        let base = HwHierarchy::isaac();
        let mut buf = base.clone();
        buf.chip.global_buffer_kb = 128;
        assert_ne!(buf.digest(), base.digest());
        let mut rc = base.clone();
        rc.crossbar.max_rc = Some(64);
        assert_ne!(rc.digest(), base.digest());
    }

    #[test]
    fn non_square_noc_cost_matrix_is_rejected_naming_the_path() {
        let mut hw = HwHierarchy::isaac();
        hw.chip.cores = [2, 1];
        hw.chip.noc.cost = vec![vec![0.0, 1.0], vec![1.0]];
        let err = hw.validate().unwrap_err().to_string();
        assert!(err.contains("chip.noc.cost"), "{err}");
        assert!(err.contains("square"), "{err}");
    }

    #[test]
    fn noc_cost_dimension_must_match_node_count() {
        let mut hw = HwHierarchy::isaac();
        hw.chip.cores = [2, 2];
        // 4 nodes but a 1x1 matrix.
        let err = hw.validate().unwrap_err().to_string();
        assert!(err.contains("chip.noc.cost"), "{err}");
        assert!(err.contains("4 nodes"), "{err}");
    }

    #[test]
    fn zero_crossbar_rows_are_rejected() {
        let mut hw = HwHierarchy::isaac();
        hw.crossbar.rows = 0;
        let err = hw.validate().unwrap_err().to_string();
        assert!(err.contains("crossbar.rows"), "{err}");
    }

    #[test]
    fn negative_bandwidth_is_rejected_naming_the_path() {
        let mut hw = HwHierarchy::isaac();
        hw.chip.bus_gb_s = -1.0;
        let err = hw.validate().unwrap_err().to_string();
        assert!(err.contains("chip.bus_gb_s"), "{err}");
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        let mut hw = HwHierarchy::isaac();
        hw.device.feature_nm = f64::NAN;
        let err = hw.validate().unwrap_err().to_string();
        assert!(err.contains("device.feature_nm"), "{err}");
    }

    #[test]
    fn unknown_field_is_rejected_at_parse_time() {
        let isaac = || -> lcda_base::json::Value {
            lcda_base::json::from_str(&HwHierarchy::isaac().canonical_json()).unwrap()
        };
        let mut typo = isaac();
        typo["crossbar"]["rws"] = lcda_base::json!(64);
        // The `digital` cost section older presets carried is an unknown
        // field: refused, never ignored while it moves the digest.
        let mut digital = isaac();
        digital["digital"] = lcda_base::json!({
            "clock_ghz": 1.0,
            "mac_energy_pj": 0.3
        });
        for (doc, field) in [(typo, "rws"), (digital, "digital")] {
            let err = HwHierarchy::from_json(&doc.to_string())
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("unknown field `{field}`")), "{err}");
        }
    }

    #[test]
    fn max_rc_must_fit_the_array() {
        let mut hw = HwHierarchy::isaac();
        hw.crossbar.max_rc = Some(0);
        assert!(hw.validate().is_err());
        hw.crossbar.max_rc = Some(256);
        let err = hw.validate().unwrap_err().to_string();
        assert!(err.contains("crossbar.max_rc"), "{err}");
        hw.crossbar.max_rc = Some(128);
        hw.validate().unwrap();
    }

    #[test]
    fn adc_share_must_divide_cols() {
        let mut hw = HwHierarchy::isaac();
        hw.crossbar.adc_share = 7;
        let err = hw.validate().unwrap_err().to_string();
        assert!(err.contains("crossbar.adc_share"), "{err}");
    }

    #[test]
    fn missing_file_is_reported_distinctly_from_invalid_content() {
        let missing = HwHierarchy::load(Path::new("/nonexistent/chip.json"))
            .unwrap_err()
            .to_string();
        assert!(missing.contains("not readable"), "{missing}");
        let dir = std::env::temp_dir().join("lcda-hwconfig-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let invalid = HwHierarchy::load(&bad).unwrap_err().to_string();
        assert!(invalid.contains("bad.json"), "{invalid}");
        assert!(!invalid.contains("not readable"), "{invalid}");
    }

    #[test]
    fn canonical_json_round_trips() {
        let hw = HwHierarchy::from_json(&HwHierarchy::isaac().canonical_json()).unwrap();
        assert_eq!(hw, HwHierarchy::isaac());
    }

    #[test]
    fn trivial_topologies_have_unit_noc_factor() {
        assert_eq!(HwHierarchy::isaac().noc_latency_factor(), 1.0);
        let mut hw = HwHierarchy::isaac();
        hw.chip.cores = [2, 1];
        hw.chip.noc.cost = vec![vec![0.0, 0.5], vec![0.5, 0.0]];
        assert!(hw.noc_latency_factor() > 1.0);
        assert!((hw.noc_latency_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summary_names_the_tiers() {
        let s = HwHierarchy::isaac().summary();
        assert!(s.contains("isaac"), "{s}");
        assert!(s.contains("128x128"), "{s}");
        assert!(s.contains("rram"), "{s}");
    }
}
