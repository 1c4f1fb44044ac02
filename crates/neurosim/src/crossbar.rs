//! The crossbar array macro model.
//!
//! A crossbar performs one analog matrix-vector multiplication per
//! activation: inputs are applied on word lines via DACs, currents sum on
//! bit lines per Kirchhoff's law, and shared ADCs digitize the column
//! outputs. This module models the latency, energy, area and leakage of a
//! single array plus its mixed-signal periphery.

use crate::components::{Adc, Dac, ShiftAdd};
use crate::device::{DeviceParams, DeviceTech};
use crate::{NeurosimError, Result};

/// Per-component energy of one crossbar activation, picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArrayEnergyBreakdown {
    /// Word-line driver (DAC) energy.
    pub driver_pj: f64,
    /// Analog cell-read energy (Kirchhoff summation).
    pub cells_pj: f64,
    /// ADC conversion energy.
    pub adc_pj: f64,
    /// Per-column shift-and-add energy.
    pub shift_add_pj: f64,
}

lcda_base::impl_json!(struct ArrayEnergyBreakdown { driver_pj, cells_pj, adc_pj, shift_add_pj });

impl ArrayEnergyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.driver_pj + self.cells_pj + self.adc_pj + self.shift_add_pj
    }

    /// Accumulates another breakdown, optionally scaled.
    pub fn accumulate(&mut self, other: &ArrayEnergyBreakdown, scale: f64) {
        self.driver_pj += other.driver_pj * scale;
        self.cells_pj += other.cells_pj * scale;
        self.adc_pj += other.adc_pj * scale;
        self.shift_add_pj += other.shift_add_pj * scale;
    }
}

/// Configuration of one crossbar array and its periphery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Word lines (rows). The LCDA hardware space explores {64, 128, 256}.
    pub rows: u32,
    /// Bit lines (columns).
    pub cols: u32,
    /// Bits stored per cell (weight bit-slicing divides weight bits by
    /// this).
    pub cell_bits: u8,
    /// Word-line DAC resolution (inputs are streamed in chunks of this
    /// many bits).
    pub dac_bits: u8,
    /// ADC resolution on the bit lines.
    pub adc_bits: u8,
    /// Columns sharing one ADC (mux factor). 8 in ISAAC.
    pub adc_share: u32,
    /// Cell technology.
    pub tech: DeviceTech,
    /// Process feature size, nanometres.
    pub feature_nm: f64,
    /// Maximum word lines activated simultaneously (the CIM-MLC `MaxRC`
    /// parameter). `None` — the default, and the wire format of configs
    /// predating the field — means the full array fires at once; a limit
    /// below `rows` serializes each input cycle into
    /// [`CrossbarConfig::activation_rounds`] sequential rounds.
    pub max_rc: Option<u32>,
}

lcda_base::impl_json!(struct CrossbarConfig {
    rows,
    cols,
    cell_bits,
    dac_bits,
    adc_bits,
    adc_share,
    tech,
    feature_nm,
    #[skip_if = Option::is_none] max_rc,
});

impl CrossbarConfig {
    /// The ISAAC-style default: 128×128 RRAM array, 2-bit cells, 1-bit
    /// DACs, 8-bit ADC shared by 8 columns, 32 nm.
    pub fn isaac_default() -> Self {
        CrossbarConfig {
            rows: 128,
            cols: 128,
            cell_bits: 2,
            dac_bits: 1,
            adc_bits: 8,
            adc_share: 8,
            tech: DeviceTech::Rram,
            feature_nm: 32.0,
            max_rc: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NeurosimError::InvalidConfig`] for zero sizes, unsupported
    /// cell precision, or an ADC share that does not divide the columns.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(NeurosimError::InvalidConfig(
                "crossbar must have positive dimensions".to_string(),
            ));
        }
        if self.adc_share == 0 || !self.cols.is_multiple_of(self.adc_share) {
            return Err(NeurosimError::InvalidConfig(format!(
                "adc_share {} must divide cols {}",
                self.adc_share, self.cols
            )));
        }
        if self.feature_nm <= 0.0 {
            return Err(NeurosimError::InvalidConfig(
                "feature size must be positive".to_string(),
            ));
        }
        if let Some(max_rc) = self.max_rc {
            if max_rc == 0 || max_rc > self.rows {
                return Err(NeurosimError::InvalidConfig(format!(
                    "max_rc {} must be in 1..=rows ({})",
                    max_rc, self.rows
                )));
            }
        }
        self.params().check_cell_bits(self.cell_bits)?;
        Adc::new(self.adc_bits)?;
        Dac::new(self.dac_bits)?;
        Ok(())
    }

    /// Device parameters of the configured technology.
    pub fn params(&self) -> DeviceParams {
        self.tech.params()
    }

    /// Number of ADCs instantiated per array.
    pub fn adcs_per_array(&self) -> u32 {
        self.cols / self.adc_share
    }

    /// The ADC model.
    pub fn adc(&self) -> Adc {
        Adc {
            bits: self.adc_bits,
        }
    }

    /// The DAC model.
    pub fn dac(&self) -> Dac {
        Dac {
            bits: self.dac_bits,
        }
    }

    /// Sequential activation rounds needed to drive the array's rows
    /// under the `max_rc` simultaneous-activation limit: `⌈rows/max_rc⌉`,
    /// or 1 when unlimited. Each input-bit cycle repeats its analog read
    /// once per round.
    pub fn activation_rounds(&self) -> u32 {
        match self.max_rc {
            Some(max_rc) if max_rc > 0 => self.rows.div_ceil(max_rc),
            _ => 1,
        }
    }

    /// Latency of one array activation (one input-bit cycle), in
    /// nanoseconds: analog read pulse plus the serialized ADC sweep over
    /// the columns actually in use.
    pub fn activation_latency_ns(&self, used_cols: u32) -> f64 {
        let used = used_cols.min(self.cols).max(1);
        // Columns sharing an ADC are converted sequentially.
        let sweeps = (used as f64 / self.adcs_per_array() as f64).ceil();
        self.params().read_pulse_ns + sweeps * self.adc().latency_ns()
    }

    /// Dynamic energy of one array activation, picojoules, for the given
    /// numbers of rows driven and columns read.
    pub fn activation_energy_pj(&self, used_rows: u32, used_cols: u32) -> f64 {
        self.activation_energy_breakdown(used_rows, used_cols)
            .total()
    }

    /// Component-wise energy of one array activation: word-line drivers,
    /// cell reads, ADC conversions and per-column shift-and-add.
    pub fn activation_energy_breakdown(
        &self,
        used_rows: u32,
        used_cols: u32,
    ) -> ArrayEnergyBreakdown {
        let rows = used_rows.min(self.rows) as f64;
        let cols = used_cols.min(self.cols) as f64;
        let p = self.params();
        ArrayEnergyBreakdown {
            driver_pj: rows * self.dac().energy_pj(),
            cells_pj: rows * cols * p.read_energy_pj(),
            adc_pj: cols * self.adc().energy_pj(),
            shift_add_pj: cols * ShiftAdd.energy_pj(),
        }
    }

    /// Area of one array including periphery, mm².
    pub fn array_area_mm2(&self) -> f64 {
        let p = self.params();
        let cells = self.rows as f64 * self.cols as f64 * p.cell_area_mm2(self.feature_nm);
        let dacs = self.rows as f64 * self.dac().area_mm2();
        let adcs = self.adcs_per_array() as f64 * self.adc().area_mm2();
        let sa = ShiftAdd.area_mm2();
        cells + dacs + adcs + sa
    }

    /// Leakage of one array, microwatts (cells + ADCs).
    pub fn array_leakage_uw(&self) -> f64 {
        let p = self.params();
        let cells = self.rows as f64 * self.cols as f64 * p.leakage_nw_per_cell * 1e-3;
        let adcs = self.adcs_per_array() as f64 * self.adc().leakage_uw();
        cells + adcs
    }
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig::isaac_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CrossbarConfig::isaac_default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = CrossbarConfig::isaac_default();
        c.rows = 0;
        assert!(c.validate().is_err());

        let mut c = CrossbarConfig::isaac_default();
        c.adc_share = 7; // does not divide 128
        assert!(c.validate().is_err());

        let mut c = CrossbarConfig::isaac_default();
        c.cell_bits = 6; // RRAM max 4
        assert!(c.validate().is_err());

        let mut c = CrossbarConfig::isaac_default();
        c.tech = DeviceTech::SttMram;
        c.cell_bits = 2; // STT is single-bit
        assert!(c.validate().is_err());
    }

    #[test]
    fn max_rc_bounds_and_rounds() {
        let mut c = CrossbarConfig::isaac_default();
        assert_eq!(c.activation_rounds(), 1);
        c.max_rc = Some(0);
        assert!(c.validate().is_err());
        c.max_rc = Some(129); // above rows
        assert!(c.validate().is_err());
        c.max_rc = Some(128);
        c.validate().unwrap();
        assert_eq!(c.activation_rounds(), 1);
        c.max_rc = Some(32);
        c.validate().unwrap();
        assert_eq!(c.activation_rounds(), 4);
        c.max_rc = Some(100);
        assert_eq!(c.activation_rounds(), 2);
    }

    #[test]
    fn max_rc_is_optional_on_the_wire() {
        // Configs serialized before the field existed deserialize with
        // max_rc = None, and a None round-trips invisibly.
        let c = CrossbarConfig::isaac_default();
        let json = lcda_base::json::to_string(&c);
        assert!(!json.contains("max_rc"), "{json}");
        let back: CrossbarConfig = lcda_base::json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.max_rc, None);
    }

    #[test]
    fn latency_grows_with_used_cols() {
        let c = CrossbarConfig::isaac_default();
        assert!(c.activation_latency_ns(128) > c.activation_latency_ns(16));
    }

    #[test]
    fn latency_counts_adc_sweeps() {
        let c = CrossbarConfig::isaac_default();
        // 16 ADCs; 128 used columns → 8 sequential sweeps of 8 ns each.
        let expected = c.params().read_pulse_ns + 8.0 * 8.0;
        assert!((c.activation_latency_ns(128) - expected).abs() < 1e-9);
        // 16 used columns → a single sweep.
        let expected1 = c.params().read_pulse_ns + 8.0;
        assert!((c.activation_latency_ns(16) - expected1).abs() < 1e-9);
    }

    #[test]
    fn energy_monotone_in_usage() {
        let c = CrossbarConfig::isaac_default();
        assert!(c.activation_energy_pj(128, 128) > c.activation_energy_pj(64, 128));
        assert!(c.activation_energy_pj(128, 128) > c.activation_energy_pj(128, 64));
    }

    #[test]
    fn higher_adc_resolution_costs_energy_and_latency() {
        let base = CrossbarConfig::isaac_default();
        let mut hi = base;
        hi.adc_bits = 10;
        assert!(hi.activation_energy_pj(128, 128) > base.activation_energy_pj(128, 128));
        assert!(hi.activation_latency_ns(128) > base.activation_latency_ns(128));
    }

    #[test]
    fn bigger_arrays_cost_more_area() {
        let base = CrossbarConfig::isaac_default();
        let mut big = base;
        big.rows = 256;
        big.cols = 256;
        assert!(big.array_area_mm2() > base.array_area_mm2());
    }

    #[test]
    fn sram_arrays_leak_nvm_barely() {
        let rram = CrossbarConfig::isaac_default();
        let mut sram = rram;
        sram.tech = DeviceTech::Sram;
        sram.cell_bits = 1;
        assert!(sram.array_leakage_uw() > rram.array_leakage_uw());
    }

    #[test]
    fn usage_clamped_to_physical_size() {
        let c = CrossbarConfig::isaac_default();
        assert_eq!(
            c.activation_energy_pj(10_000, 10_000),
            c.activation_energy_pj(128, 128)
        );
    }
}
