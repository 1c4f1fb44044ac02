//! The design generator (§III-B): from parsed candidates to concrete DNN
//! architectures, plus the backend-agnostic platform constraints.
//!
//! Backend-specific lowering (chip configs, crossbar workloads, GEMM
//! tiles) lives with the backends in [`crate::backend`]; this module only
//! knows the search space and the shared platform contract (the area
//! budget every backend must respect).

use crate::Result;
use lcda_dnn::arch::{Architecture, ConvSpec};
use lcda_llm::design::{CandidateDesign, DesignChoices};
use lcda_neurosim::device::DeviceTech;
use lcda_variation::{VariationConfig, WriteVerifyConfig};

/// The full co-design search problem: the searchable choices plus the
/// fixed backbone and platform constraints of §IV.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// The searchable options (software rollout + hardware).
    pub choices: DesignChoices,
    /// Input channels (3).
    pub in_channels: u32,
    /// Input spatial size (32).
    pub in_size: u32,
    /// FC hidden width, fixed at 1024 in the paper.
    pub hidden: u32,
    /// Output classes (10).
    pub classes: u32,
    /// Pooling cadence (after every 2 convolutions).
    pub pool_every: u32,
    /// Platform area budget, mm²; designs above it are invalid and score
    /// −1 (the prompt's contract). Every hardware backend enforces it
    /// against its own area model.
    pub area_budget_mm2: f64,
    /// Optional write-verify programming (SWIM, the paper's reference
    /// \[5\]): when set, every candidate's NVM cells are programmed with
    /// a verify loop, tightening conductances at extra write cost.
    pub write_verify: Option<WriteVerifyConfig>,
}

lcda_base::impl_json!(struct DesignSpace {
    choices, in_channels, in_size, hidden, classes, pool_every, area_budget_mm2, write_verify,
});

impl DesignSpace {
    /// The NACIM CIFAR-10 search problem used throughout the paper.
    pub fn nacim_cifar10() -> Self {
        DesignSpace {
            choices: DesignChoices::nacim_default(),
            in_channels: 3,
            in_size: 32,
            hidden: 1024,
            classes: 10,
            pool_every: 2,
            area_budget_mm2: 12.0,
            write_verify: None,
        }
    }

    /// A tiny space for fast tests (2 conv layers on 8×8 input).
    pub fn tiny_test() -> Self {
        DesignSpace {
            choices: DesignChoices::tiny_test(),
            in_channels: 3,
            in_size: 8,
            hidden: 16,
            classes: 4,
            pool_every: 2,
            area_budget_mm2: 12.0,
            write_verify: None,
        }
    }

    /// The trainable architecture a candidate describes.
    ///
    /// # Errors
    ///
    /// Returns architecture validation errors (e.g. a kernel too large for
    /// the shrinking spatial plane).
    pub fn architecture(&self, design: &CandidateDesign) -> Result<Architecture> {
        let arch = Architecture {
            in_channels: self.in_channels,
            in_size: self.in_size,
            convs: design
                .conv
                .iter()
                .map(|c| ConvSpec::new(c.channels, c.kernel))
                .collect(),
            hidden: self.hidden,
            classes: self.classes,
            pool_every: self.pool_every,
        };
        arch.validate()?;
        Ok(arch)
    }

    /// The device-variation corner this candidate's technology exhibits.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown technology names.
    pub fn variation(&self, design: &CandidateDesign) -> Result<VariationConfig> {
        let mut config = DeviceTech::parse(&design.hw.tech)?.variation_config();
        config.write_verify = self.write_verify;
        Ok(config)
    }

    /// Returns a copy of this space with write-verify programming enabled
    /// for every candidate.
    pub fn with_write_verify(mut self, wv: WriteVerifyConfig) -> Self {
        self.write_verify = Some(wv);
        self
    }

    /// Validates that a candidate is inside this space.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Llm`] (out-of-space) when it is not.
    pub fn contains(&self, design: &CandidateDesign) -> Result<()> {
        self.choices.contains(design)?;
        Ok(())
    }

    /// The paper's reference design in this space.
    pub fn reference_design(&self) -> CandidateDesign {
        CandidateDesign::reference()
    }
}

impl Default for DesignSpace {
    fn default() -> Self {
        DesignSpace::nacim_cifar10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_design_converts() {
        let space = DesignSpace::nacim_cifar10();
        let d = space.reference_design();
        space.contains(&d).unwrap();
        let arch = space.architecture(&d).unwrap();
        assert_eq!(arch.convs.len(), 6);
    }

    #[test]
    fn variation_tracks_technology() {
        let space = DesignSpace::nacim_cifar10();
        let mut d = space.reference_design();
        d.hw.tech = "fefet".to_string();
        let v = space.variation(&d).unwrap();
        assert_eq!(v, lcda_variation::VariationConfig::fefet_moderate());
    }

    #[test]
    fn unknown_tech_rejected() {
        let space = DesignSpace::nacim_cifar10();
        let mut d = space.reference_design();
        d.hw.tech = "unobtainium".to_string();
        assert!(space.variation(&d).is_err());
    }

    #[test]
    fn out_of_space_design_rejected() {
        let space = DesignSpace::nacim_cifar10();
        let mut d = space.reference_design();
        d.conv[0].channels = 12345;
        assert!(space.contains(&d).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let space = DesignSpace::nacim_cifar10();
        let json = lcda_base::json::to_string(&space);
        let back: DesignSpace = lcda_base::json::from_str(&json).unwrap();
        assert_eq!(space, back);
    }

    #[test]
    fn pre_backend_space_json_still_loads() {
        // Serialized spaces from before the backend split carried a
        // `calibration` field; unknown fields are ignored on load.
        let json = lcda_base::json::to_string(&DesignSpace::nacim_cifar10());
        let legacy = json.replacen('{', "{\"calibration\":[0.5,0.5],", 1);
        let back: DesignSpace = lcda_base::json::from_str(&legacy).unwrap();
        assert_eq!(back, DesignSpace::nacim_cifar10());
    }
}
