//! Architecture descriptions: the "rollout" made concrete.
//!
//! The NACIM/LCDA search space fixes the backbone (six convolution layers,
//! two fully-connected layers, hidden size 1024, CIFAR-shaped input) and
//! searches each convolution's `(out_channels, kernel)` pair. An
//! [`Architecture`] is that description, independent of both the tensor
//! engine (it can [`Architecture::build`] a trainable [`Network`]) and the
//! hardware model (`lcda-core` converts it to crossbar workloads).

use crate::layer::{Conv2dLayer, Layer, LinearLayer};
use crate::network::Network;
use crate::{DnnError, Result};
use lcda_base::rng::Rng;
use lcda_tensor::ops::ConvGeometry;

/// One convolution stage: `(out_channels, kernel)` — the paper's rollout
/// "number pair".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Output channels.
    pub channels: u32,
    /// Square kernel side.
    pub kernel: u32,
}

lcda_base::impl_json!(struct ConvSpec { channels, kernel });

impl ConvSpec {
    /// Creates a spec.
    pub fn new(channels: u32, kernel: u32) -> Self {
        ConvSpec { channels, kernel }
    }
}

/// A complete network description in the LCDA search space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Architecture {
    /// Input channels (3 for CIFAR).
    pub in_channels: u32,
    /// Input spatial size (32 for CIFAR).
    pub in_size: u32,
    /// The searched convolution stages; 2×2 max pooling follows every
    /// second stage.
    pub convs: Vec<ConvSpec>,
    /// Hidden width of the penultimate fully-connected layer (1024 in the
    /// paper).
    pub hidden: u32,
    /// Output classes (10 for CIFAR-10).
    pub classes: u32,
    /// Insert a pooling layer after every `pool_every` convolutions.
    pub pool_every: u32,
}

lcda_base::impl_json!(struct Architecture {
    in_channels, in_size, convs, hidden, classes, pool_every,
});

impl Architecture {
    /// The paper's backbone with a given list of conv specs.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidArchitecture`] for an empty conv list or
    /// zero-valued fields.
    pub fn cifar10(convs: Vec<ConvSpec>) -> Result<Self> {
        let arch = Architecture {
            in_channels: 3,
            in_size: 32,
            convs,
            hidden: 1024,
            classes: 10,
            pool_every: 2,
        };
        arch.validate()?;
        Ok(arch)
    }

    /// The reference rollout from the paper's prompt template:
    /// `[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]`.
    pub fn reference() -> Self {
        Architecture::cifar10(vec![
            ConvSpec::new(32, 3),
            ConvSpec::new(32, 3),
            ConvSpec::new(64, 3),
            ConvSpec::new(64, 3),
            ConvSpec::new(128, 3),
            ConvSpec::new(128, 3),
        ])
        .expect("reference architecture is valid")
    }

    /// A deliberately tiny architecture for fast unit/doc tests.
    pub fn tiny_test() -> Self {
        Architecture {
            in_channels: 3,
            in_size: 8,
            convs: vec![ConvSpec::new(4, 3), ConvSpec::new(8, 3)],
            hidden: 16,
            classes: 4,
            pool_every: 2,
        }
    }

    /// Validates dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidArchitecture`] when any field is zero,
    /// when a kernel is even or larger than the current spatial plane, or
    /// when pooling shrinks the plane away entirely.
    pub fn validate(&self) -> Result<()> {
        if self.convs.is_empty() {
            return Err(DnnError::InvalidArchitecture(
                "at least one conv stage required".to_string(),
            ));
        }
        if self.in_channels == 0
            || self.in_size == 0
            || self.hidden == 0
            || self.classes == 0
            || self.pool_every == 0
        {
            return Err(DnnError::InvalidArchitecture(
                "dimensions must be positive".to_string(),
            ));
        }
        let mut size = self.in_size;
        for (i, c) in self.convs.iter().enumerate() {
            if c.channels == 0 {
                return Err(DnnError::InvalidArchitecture(format!(
                    "conv {i} has zero channels"
                )));
            }
            if c.kernel == 0 || c.kernel % 2 == 0 {
                return Err(DnnError::InvalidArchitecture(format!(
                    "conv {i} kernel must be odd and positive, got {}",
                    c.kernel
                )));
            }
            if c.kernel > size + 2 * (c.kernel / 2) {
                return Err(DnnError::InvalidArchitecture(format!(
                    "conv {i} kernel {} exceeds plane {size}",
                    c.kernel
                )));
            }
            if (i as u32 + 1).is_multiple_of(self.pool_every) {
                size /= 2;
                if size == 0 {
                    return Err(DnnError::InvalidArchitecture(format!(
                        "pooling after conv {i} empties the spatial plane"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Spatial size after all conv/pool stages.
    pub fn final_spatial(&self) -> u32 {
        let mut size = self.in_size;
        for i in 0..self.convs.len() as u32 {
            if (i + 1) % self.pool_every == 0 {
                size /= 2;
            }
        }
        size.max(1)
    }

    /// Flattened feature count entering the first FC layer.
    pub fn flat_features(&self) -> u32 {
        let last_c = self.convs.last().map(|c| c.channels).unwrap_or(0);
        last_c * self.final_spatial() * self.final_spatial()
    }

    /// Total weight count (conv + fc), the main driver of model capacity.
    pub fn weight_count(&self) -> u64 {
        let mut c_in = self.in_channels as u64;
        let mut total = 0u64;
        for c in &self.convs {
            total += c_in * u64::from(c.kernel) * u64::from(c.kernel) * u64::from(c.channels);
            c_in = u64::from(c.channels);
        }
        total += u64::from(self.flat_features()) * u64::from(self.hidden);
        total += u64::from(self.hidden) * u64::from(self.classes);
        total
    }

    /// Per-stage `(c_in, spatial, spec)` iteration used by both the
    /// network builder and the hardware workload conversion.
    pub fn conv_stages(&self) -> Vec<(u32, u32, ConvSpec)> {
        let mut out = Vec::with_capacity(self.convs.len());
        let mut c_in = self.in_channels;
        let mut size = self.in_size;
        for (i, &spec) in self.convs.iter().enumerate() {
            out.push((c_in, size, spec));
            c_in = spec.channels;
            if (i as u32 + 1).is_multiple_of(self.pool_every) {
                size /= 2;
            }
        }
        out
    }

    /// Builds a trainable network with weights drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates validation and tensor-shape errors.
    pub fn build(&self, seed: u64) -> Result<Network> {
        self.validate()?;
        let mut rng = Rng::new(seed);
        let mut layers = Vec::new();
        for (i, (c_in, size, spec)) in self.conv_stages().into_iter().enumerate() {
            let geom = ConvGeometry::new(
                c_in as usize,
                size as usize,
                size as usize,
                spec.kernel as usize,
                1,
                (spec.kernel / 2) as usize,
            )?;
            layers.push(Layer::Conv2d(Conv2dLayer::new(
                geom,
                spec.channels as usize,
                &mut rng,
            )?));
            layers.push(Layer::relu());
            if (i as u32 + 1).is_multiple_of(self.pool_every) {
                layers.push(Layer::maxpool2());
            }
        }
        layers.push(Layer::flatten());
        layers.push(Layer::Linear(LinearLayer::new(
            self.flat_features() as usize,
            self.hidden as usize,
            &mut rng,
        )));
        layers.push(Layer::relu());
        layers.push(Layer::Linear(LinearLayer::new(
            self.hidden as usize,
            self.classes as usize,
            &mut rng,
        )));
        Ok(Network::new(layers))
    }
}

impl Default for Architecture {
    fn default() -> Self {
        Architecture::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcda_tensor::{Shape, Tensor};

    #[test]
    fn reference_is_valid() {
        let a = Architecture::reference();
        a.validate().unwrap();
        assert_eq!(a.convs.len(), 6);
        assert_eq!(a.hidden, 1024);
        // 32 → 16 → 8 → 4 after three pools.
        assert_eq!(a.final_spatial(), 4);
        assert_eq!(a.flat_features(), 128 * 16);
    }

    #[test]
    fn weight_count_reference() {
        let a = Architecture::reference();
        let conv =
            3 * 9 * 32 + 32 * 9 * 32 + 32 * 9 * 64 + 64 * 9 * 64 + 64 * 9 * 128 + 128 * 9 * 128;
        let fc = 2048 * 1024 + 1024 * 10;
        assert_eq!(a.weight_count(), (conv + fc) as u64);
    }

    #[test]
    fn invalid_architectures_rejected() {
        assert!(Architecture::cifar10(vec![]).is_err());
        assert!(Architecture::cifar10(vec![ConvSpec::new(0, 3)]).is_err());
        assert!(Architecture::cifar10(vec![ConvSpec::new(16, 4)]).is_err());
        assert!(Architecture::cifar10(vec![ConvSpec::new(16, 0)]).is_err());
        // Too many pools empty the plane: 10 stages of pooling on 32px.
        let many = vec![ConvSpec::new(8, 3); 12];
        let mut a = Architecture::cifar10(many).unwrap_err();
        // ^ validate fails inside cifar10
        if let DnnError::InvalidArchitecture(msg) = &mut a {
            assert!(msg.contains("empties"));
        } else {
            panic!("wrong error kind: {a:?}");
        }
    }

    #[test]
    fn build_and_forward_tiny() {
        let a = Architecture::tiny_test();
        let mut net = a.build(3).unwrap();
        let x = Tensor::ones(Shape::d4(2, 3, 8, 8));
        let logits = net.forward(&x).unwrap();
        assert_eq!(logits.shape().dims(), &[2, 4]);
    }

    #[test]
    fn conv_stages_track_channels_and_size() {
        let a = Architecture::reference();
        let stages = a.conv_stages();
        assert_eq!(stages[0], (3, 32, ConvSpec::new(32, 3)));
        assert_eq!(stages[2], (32, 16, ConvSpec::new(64, 3)));
        assert_eq!(stages[5], (128, 8, ConvSpec::new(128, 3)));
    }

    #[test]
    fn deterministic_build() {
        let a = Architecture::tiny_test();
        let n1 = a.build(5).unwrap();
        let n2 = a.build(5).unwrap();
        assert_eq!(n1.snapshot_weights(), n2.snapshot_weights());
    }

    #[test]
    fn json_roundtrip() {
        let a = Architecture::reference();
        let json = lcda_base::json::to_string(&a);
        let b: Architecture = lcda_base::json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }
}
