//! The design vocabulary shared by the prompt, the parser, the optimizers
//! and the co-design loop.
//!
//! A *design choices* value describes the NACIM search space (§IV): six
//! convolution stages each picking `(out_channels, kernel)`, plus the
//! hardware hyper-parameters (crossbar size, ADC resolution, cell
//! precision, device technology). A *candidate design* is one point of
//! that space. Candidates also admit a flat index encoding
//! ([`DesignChoices::encode`] / [`DesignChoices::decode`]) which is what
//! the RL and genetic optimizers manipulate.

use crate::{LlmError, Result};
use std::fmt;

/// The searchable design space (the `Choices` input of Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignChoices {
    /// Options for each conv stage's output channels.
    pub channel_options: Vec<u32>,
    /// Options for each conv stage's kernel size.
    pub kernel_options: Vec<u32>,
    /// Number of convolution stages (6 in the paper).
    pub num_conv_layers: usize,
    /// Crossbar size options (square arrays).
    pub xbar_options: Vec<u32>,
    /// ADC resolution options, bits.
    pub adc_options: Vec<u8>,
    /// Cell precision options, bits per device.
    pub cell_options: Vec<u8>,
    /// Device technology options (names as in
    /// `lcda_neurosim::device::DeviceTech::name`).
    pub tech_options: Vec<String>,
}

lcda_base::impl_json!(struct DesignChoices {
    channel_options, kernel_options, num_conv_layers, xbar_options, adc_options, cell_options,
    tech_options,
});

impl DesignChoices {
    /// The NACIM search space used throughout the paper's evaluation.
    pub fn nacim_default() -> Self {
        DesignChoices {
            channel_options: vec![16, 24, 32, 48, 64, 96, 128],
            kernel_options: vec![1, 3, 5, 7],
            num_conv_layers: 6,
            xbar_options: vec![64, 128, 256],
            adc_options: vec![4, 6, 8],
            cell_options: vec![1, 2, 4],
            tech_options: vec!["rram".to_string(), "fefet".to_string()],
        }
    }

    /// A deliberately tiny space for fast tests.
    pub fn tiny_test() -> Self {
        DesignChoices {
            channel_options: vec![4, 8],
            kernel_options: vec![1, 3],
            num_conv_layers: 2,
            xbar_options: vec![64],
            adc_options: vec![4],
            cell_options: vec![2],
            tech_options: vec!["rram".to_string()],
        }
    }

    /// Validates non-emptiness of every option list.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidChoices`] when any option list is empty.
    pub fn validate(&self) -> Result<()> {
        if self.num_conv_layers == 0 {
            return Err(LlmError::InvalidChoices("zero conv layers".into()));
        }
        for (name, len) in [
            ("channel_options", self.channel_options.len()),
            ("kernel_options", self.kernel_options.len()),
            ("xbar_options", self.xbar_options.len()),
            ("adc_options", self.adc_options.len()),
            ("cell_options", self.cell_options.len()),
            ("tech_options", self.tech_options.len()),
        ] {
            if len == 0 {
                return Err(LlmError::InvalidChoices(format!("{name} is empty")));
            }
        }
        Ok(())
    }

    /// Number of decision slots in the flat index encoding:
    /// `2 · layers + 4` (channels and kernel per layer, then crossbar,
    /// ADC, cell, technology).
    pub fn slot_count(&self) -> usize {
        2 * self.num_conv_layers + 4
    }

    /// Number of options available in decision slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot >= slot_count()`.
    pub fn slot_options(&self, slot: usize) -> usize {
        let n = self.num_conv_layers;
        match slot {
            s if s < 2 * n => {
                if s % 2 == 0 {
                    self.channel_options.len()
                } else {
                    self.kernel_options.len()
                }
            }
            s if s == 2 * n => self.xbar_options.len(),
            s if s == 2 * n + 1 => self.adc_options.len(),
            s if s == 2 * n + 2 => self.cell_options.len(),
            s if s == 2 * n + 3 => self.tech_options.len(),
            s => panic!("slot {s} out of range {}", self.slot_count()),
        }
    }

    /// Total number of designs in the space.
    pub fn space_size(&self) -> u128 {
        let mut total = 1u128;
        for slot in 0..self.slot_count() {
            total *= self.slot_options(slot) as u128;
        }
        total
    }

    /// Decodes a flat index vector into a candidate design.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::OutOfSpace`] for wrong length or out-of-range
    /// indices.
    pub fn decode(&self, indices: &[usize]) -> Result<CandidateDesign> {
        if indices.len() != self.slot_count() {
            return Err(LlmError::OutOfSpace(format!(
                "expected {} indices, got {}",
                self.slot_count(),
                indices.len()
            )));
        }
        for (slot, &i) in indices.iter().enumerate() {
            if i >= self.slot_options(slot) {
                return Err(LlmError::OutOfSpace(format!(
                    "slot {slot} index {i} out of {}",
                    self.slot_options(slot)
                )));
            }
        }
        let n = self.num_conv_layers;
        let conv = (0..n)
            .map(|l| ConvChoice {
                channels: self.channel_options[indices[2 * l]],
                kernel: self.kernel_options[indices[2 * l + 1]],
            })
            .collect();
        Ok(CandidateDesign {
            conv,
            hw: HwChoice {
                xbar_size: self.xbar_options[indices[2 * n]],
                adc_bits: self.adc_options[indices[2 * n + 1]],
                cell_bits: self.cell_options[indices[2 * n + 2]],
                tech: self.tech_options[indices[2 * n + 3]].clone(),
            },
        })
    }

    /// Encodes a candidate design back into flat indices.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::OutOfSpace`] when the design uses options not
    /// present in this space.
    pub fn encode(&self, design: &CandidateDesign) -> Result<Vec<usize>> {
        if design.conv.len() != self.num_conv_layers {
            return Err(LlmError::OutOfSpace(format!(
                "design has {} conv layers, space has {}",
                design.conv.len(),
                self.num_conv_layers
            )));
        }
        let find = |options: &[u32], v: u32, what: &str| -> Result<usize> {
            options
                .iter()
                .position(|&o| o == v)
                .ok_or_else(|| LlmError::OutOfSpace(format!("{what} {v} not in {options:?}")))
        };
        let mut out = Vec::with_capacity(self.slot_count());
        for c in &design.conv {
            out.push(find(&self.channel_options, c.channels, "channels")?);
            out.push(find(&self.kernel_options, c.kernel, "kernel")?);
        }
        out.push(find(&self.xbar_options, design.hw.xbar_size, "xbar")?);
        out.push(
            self.adc_options
                .iter()
                .position(|&o| o == design.hw.adc_bits)
                .ok_or_else(|| {
                    LlmError::OutOfSpace(format!("adc {} not available", design.hw.adc_bits))
                })?,
        );
        out.push(
            self.cell_options
                .iter()
                .position(|&o| o == design.hw.cell_bits)
                .ok_or_else(|| {
                    LlmError::OutOfSpace(format!("cell {} not available", design.hw.cell_bits))
                })?,
        );
        out.push(
            self.tech_options
                .iter()
                .position(|o| o == &design.hw.tech)
                .ok_or_else(|| {
                    LlmError::OutOfSpace(format!("tech {} not available", design.hw.tech))
                })?,
        );
        Ok(out)
    }

    /// Checks that a design lies in this space.
    ///
    /// # Errors
    ///
    /// Same as [`DesignChoices::encode`].
    pub fn contains(&self, design: &CandidateDesign) -> Result<()> {
        self.encode(design).map(|_| ())
    }
}

impl Default for DesignChoices {
    fn default() -> Self {
        DesignChoices::nacim_default()
    }
}

/// One convolution stage's searched pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvChoice {
    /// Output channels.
    pub channels: u32,
    /// Square kernel side.
    pub kernel: u32,
}

lcda_base::impl_json!(struct ConvChoice { channels, kernel });

/// The hardware half of a candidate design.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HwChoice {
    /// Crossbar rows = columns.
    pub xbar_size: u32,
    /// ADC resolution, bits.
    pub adc_bits: u8,
    /// Cell precision, bits per device.
    pub cell_bits: u8,
    /// Device technology name.
    pub tech: String,
}

lcda_base::impl_json!(struct HwChoice { xbar_size, adc_bits, cell_bits, tech });

/// A full candidate design: the DNN rollout plus hardware
/// hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CandidateDesign {
    /// Per-stage `(channels, kernel)` choices.
    pub conv: Vec<ConvChoice>,
    /// Hardware hyper-parameters.
    pub hw: HwChoice,
}

lcda_base::impl_json!(struct CandidateDesign { conv, hw });

impl CandidateDesign {
    /// The paper's reference rollout on default hardware.
    pub fn reference() -> Self {
        CandidateDesign {
            conv: [(32, 3), (32, 3), (64, 3), (64, 3), (128, 3), (128, 3)]
                .iter()
                .map(|&(c, k)| ConvChoice {
                    channels: c,
                    kernel: k,
                })
                .collect(),
            hw: HwChoice {
                xbar_size: 128,
                adc_bits: 8,
                cell_bits: 2,
                tech: "rram".to_string(),
            },
        }
    }

    /// Renders the design in the paper's response format:
    /// `[[32,3],[32,3],…] | hw: [128,8,2,rram]`.
    pub fn to_response_text(&self) -> String {
        // "[ccc,k]," per stage plus the hardware tail, so the text is
        // written into one allocation.
        let mut text = String::with_capacity(8 * self.conv.len() + 32);
        // Writing into a `String` cannot fail.
        let _ = self.write_response_text(&mut text);
        text
    }

    /// Writes [`CandidateDesign::to_response_text`] into `out`.
    fn write_response_text(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_char('[')?;
        for (i, c) in self.conv.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write!(out, "[{},{}]", c.channels, c.kernel)?;
        }
        let hw = &self.hw;
        write!(
            out,
            "] | hw: [{},{},{},{}]",
            hw.xbar_size, hw.adc_bits, hw.cell_bits, hw.tech
        )
    }
}

impl fmt::Display for CandidateDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_response_text(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nacim_space_size() {
        let c = DesignChoices::nacim_default();
        c.validate().unwrap();
        assert_eq!(c.slot_count(), 16);
        // (7·4)^6 · 3 · 3 · 3 · 2
        let expected = 28u128.pow(6) * 54;
        assert_eq!(c.space_size(), expected);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = DesignChoices::nacim_default();
        let d = CandidateDesign::reference();
        let idx = c.encode(&d).unwrap();
        let back = c.decode(&idx).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn decode_validates() {
        let c = DesignChoices::tiny_test();
        assert!(c.decode(&[0; 3]).is_err()); // wrong length
        let mut idx = vec![0usize; c.slot_count()];
        idx[0] = 99;
        assert!(c.decode(&idx).is_err());
    }

    #[test]
    fn encode_rejects_foreign_options() {
        let c = DesignChoices::tiny_test();
        let mut d = c.decode(&vec![0; c.slot_count()]).unwrap();
        d.conv[0].channels = 999;
        assert!(c.encode(&d).is_err());
        assert!(c.contains(&d).is_err());
    }

    #[test]
    fn empty_options_rejected() {
        let mut c = DesignChoices::nacim_default();
        c.kernel_options.clear();
        assert!(c.validate().is_err());
        let mut c = DesignChoices::nacim_default();
        c.num_conv_layers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn response_text_format() {
        let d = CandidateDesign::reference();
        let s = d.to_response_text();
        assert_eq!(
            s,
            "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]] | hw: [128,8,2,rram]"
        );
        assert_eq!(format!("{d}"), s);
        assert!(
            s.capacity() <= 8 * d.conv.len() + 32,
            "one allocation, never grown"
        );
        let empty = CandidateDesign {
            conv: Vec::new(),
            ..d
        };
        assert_eq!(empty.to_response_text(), "[] | hw: [128,8,2,rram]");
    }

    #[test]
    fn slot_options_layout() {
        let c = DesignChoices::nacim_default();
        assert_eq!(c.slot_options(0), 7); // channels
        assert_eq!(c.slot_options(1), 4); // kernel
        assert_eq!(c.slot_options(12), 3); // xbar
        assert_eq!(c.slot_options(13), 3); // adc
        assert_eq!(c.slot_options(14), 3); // cell
        assert_eq!(c.slot_options(15), 2); // tech
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_out_of_range_panics() {
        DesignChoices::nacim_default().slot_options(16);
    }

    #[test]
    fn json_roundtrip() {
        let d = CandidateDesign::reference();
        let json = lcda_base::json::to_string(&d);
        let back: CandidateDesign = lcda_base::json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
