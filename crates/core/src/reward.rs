//! The paper's reward functions (Eq. 1 and Eq. 2).

use crate::evaluate::HwMetrics;

/// Reward assigned to designs whose hardware is invalid (area over
/// budget): "the performance I give you will be −1" (Algorithm 1).
pub const INVALID_REWARD: f64 = -1.0;

/// Eq. 1's normalization: energy of the original ISAAC design, pJ.
pub const ENERGY_NORM_PJ: f64 = 8.0e7;

/// Eq. 2's normalization: throughput of the original ISAAC design, FPS.
pub const FPS_NORM: f64 = 1600.0;

/// The multi-objective trade-off being optimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// §IV-A: `reward = accuracy − sqrt(energy / 8e7)` (Eq. 1).
    #[default]
    AccuracyEnergy,
    /// §IV-B: `reward = accuracy + (1/latency) · (1/1600)` with `1/latency`
    /// in FPS (Eq. 2).
    AccuracyLatency,
}

lcda_base::impl_json!(
    enum Objective {
        AccuracyEnergy,
        AccuracyLatency,
    }
);

impl Objective {
    /// Computes the scalar reward for a valid design.
    pub fn reward(self, accuracy: f64, hw: &HwMetrics) -> f64 {
        match self {
            Objective::AccuracyEnergy => accuracy - (hw.energy_pj / ENERGY_NORM_PJ).sqrt(),
            Objective::AccuracyLatency => {
                let fps = 1.0e9 / hw.latency_ns;
                accuracy + fps / FPS_NORM
            }
        }
    }

    /// The prompt framing this objective corresponds to.
    pub fn prompt_objective(self) -> lcda_llm::prompt::PromptObjective {
        match self {
            Objective::AccuracyEnergy => lcda_llm::prompt::PromptObjective::AccuracyEnergy,
            Objective::AccuracyLatency => lcda_llm::prompt::PromptObjective::AccuracyLatency,
        }
    }

    /// Resolves an objective's short name (`energy` / `latency`) — the
    /// one name table the CLI and serve job admission share.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] naming the unknown objective.
    pub fn from_name(name: &str) -> crate::Result<Self> {
        match name {
            "energy" => Ok(Objective::AccuracyEnergy),
            "latency" => Ok(Objective::AccuracyLatency),
            other => Err(crate::CoreError::InvalidConfig(format!(
                "unknown objective `{other}` (energy|latency)"
            ))),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Objective::AccuracyEnergy => "accuracy-energy",
            Objective::AccuracyLatency => "accuracy-latency",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw(energy_pj: f64, latency_ns: f64) -> HwMetrics {
        HwMetrics {
            energy_pj,
            latency_ns,
            area_mm2: 1.0,
            leakage_uw: 0.0,
        }
    }

    #[test]
    fn objective_names_resolve() {
        assert_eq!(
            Objective::from_name("energy").unwrap(),
            Objective::AccuracyEnergy
        );
        assert_eq!(
            Objective::from_name("latency").unwrap(),
            Objective::AccuracyLatency
        );
        let err = Objective::from_name("area").unwrap_err().to_string();
        assert!(err.contains("unknown objective `area`"), "{err}");
    }

    #[test]
    fn eq1_at_isaac_reference() {
        // Energy exactly at the normalization constant → penalty 1.
        let r = Objective::AccuracyEnergy.reward(0.9, &hw(8.0e7, 1.0));
        assert!((r - (0.9 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn eq1_lower_energy_is_better() {
        let hi = Objective::AccuracyEnergy.reward(0.9, &hw(8.0e7, 1.0));
        let lo = Objective::AccuracyEnergy.reward(0.9, &hw(2.0e7, 1.0));
        assert!(lo > hi);
        // sqrt: quartering energy halves the penalty.
        assert!((lo - (0.9 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn eq2_at_isaac_reference() {
        // 1600 FPS = 625000 ns → bonus exactly 1.
        let r = Objective::AccuracyLatency.reward(0.9, &hw(1.0, 625_000.0));
        assert!((r - 1.9).abs() < 1e-9);
    }

    #[test]
    fn eq2_lower_latency_is_better() {
        let slow = Objective::AccuracyLatency.reward(0.9, &hw(1.0, 1_250_000.0));
        let fast = Objective::AccuracyLatency.reward(0.9, &hw(1.0, 312_500.0));
        assert!(fast > slow);
        assert!((slow - (0.9 + 0.5)).abs() < 1e-9);
        assert!((fast - (0.9 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn accuracy_monotone_for_both() {
        for obj in [Objective::AccuracyEnergy, Objective::AccuracyLatency] {
            let m = hw(4.0e7, 500_000.0);
            assert!(obj.reward(0.9, &m) > obj.reward(0.5, &m));
        }
    }

    #[test]
    fn objective_names() {
        assert_eq!(Objective::AccuracyEnergy.name(), "accuracy-energy");
        assert_eq!(Objective::AccuracyLatency.name(), "accuracy-latency");
    }
}
