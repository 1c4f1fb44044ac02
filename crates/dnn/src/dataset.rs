//! `SynthCifar`: a deterministic, procedurally generated stand-in for
//! CIFAR-10.
//!
//! The real CIFAR-10 dataset cannot be redistributed inside this
//! repository, and training 500 design candidates on it is far beyond the
//! compute budget of a reproduction. `SynthCifar` keeps the *interface*
//! identical — 32×32×3 images, 10 classes, train/test split — while
//! generating images whose class structure is learnable by a CNN: each
//! class is a mixture of oriented sinusoidal gratings (Gabor-like
//! textures) with class-specific frequencies, orientations and color
//! balance, plus additive noise. See DESIGN.md §1 for the substitution
//! rationale.

use crate::{DnnError, Result};
use lcda_base::rng::Rng;
use lcda_tensor::{Shape, Tensor};

/// A labelled image-classification dataset in NCHW layout.
#[derive(Debug, Clone)]
pub struct SynthCifar {
    images: Tensor,
    labels: Vec<usize>,
    classes: usize,
    size: usize,
}

impl SynthCifar {
    /// Generates `n` samples of `size`×`size`×3 images over 10 classes.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidDataset`] for `n == 0` or `size < 4`.
    pub fn generate(n: usize, size: usize, seed: u64) -> Result<Self> {
        Self::generate_classes(n, size, 10, seed)
    }

    /// Generates a dataset with an arbitrary class count.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidDataset`] for empty or degenerate
    /// requests.
    pub fn generate_classes(n: usize, size: usize, classes: usize, seed: u64) -> Result<Self> {
        if n == 0 {
            return Err(DnnError::InvalidDataset("need at least one sample".into()));
        }
        if size < 4 {
            return Err(DnnError::InvalidDataset(format!(
                "image size must be >= 4, got {size}"
            )));
        }
        if classes < 2 {
            return Err(DnnError::InvalidDataset("need at least two classes".into()));
        }
        let mut rng = Rng::new(seed);
        let plane = size * size;
        let mut data = vec![0.0f32; n * 3 * plane];
        let mut labels = Vec::with_capacity(n);
        for s in 0..n {
            let class = s % classes; // balanced by construction
            labels.push(class);
            let mut srng = rng.fork(s as u64);
            render_class_image(
                &mut data[s * 3 * plane..(s + 1) * 3 * plane],
                size,
                class,
                classes,
                &mut srng,
            );
        }
        Ok(SynthCifar {
            images: Tensor::from_vec(Shape::d4(n, 3, size, size), data)?,
            labels,
            classes,
            size,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// All images as one NCHW tensor.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// A contiguous batch `[start, start+len)` as `(images, labels)`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidDataset`] when the range is out of
    /// bounds.
    pub fn batch(&self, start: usize, len: usize) -> Result<(Tensor, Vec<usize>)> {
        if start + len > self.len() || len == 0 {
            return Err(DnnError::InvalidDataset(format!(
                "batch [{start}, {}) out of range 0..{}",
                start + len,
                self.len()
            )));
        }
        let plane = 3 * self.size * self.size;
        let data = self.images.as_slice()[start * plane..(start + len) * plane].to_vec();
        Ok((
            Tensor::from_vec(Shape::d4(len, 3, self.size, self.size), data)?,
            self.labels[start..start + len].to_vec(),
        ))
    }

    /// Splits into `(train, test)` with `test_fraction` of samples held
    /// out (interleaved so both splits stay class-balanced).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidDataset`] when either split would be
    /// empty.
    pub fn split(&self, test_fraction: f32) -> Result<(SynthCifar, SynthCifar)> {
        if !(0.0..1.0).contains(&test_fraction) {
            return Err(DnnError::InvalidDataset(
                "test fraction must be in [0, 1)".into(),
            ));
        }
        let period = (1.0 / test_fraction.max(1e-6)).round().max(2.0) as usize;
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for i in 0..self.len() {
            if i % period == period - 1 {
                test_idx.push(i);
            } else {
                train_idx.push(i);
            }
        }
        if train_idx.is_empty() || test_idx.is_empty() {
            return Err(DnnError::InvalidDataset(
                "split leaves an empty partition".into(),
            ));
        }
        Ok((self.subset(&train_idx)?, self.subset(&test_idx)?))
    }

    fn subset(&self, indices: &[usize]) -> Result<SynthCifar> {
        let plane = 3 * self.size * self.size;
        let mut data = Vec::with_capacity(indices.len() * plane);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images.as_slice()[i * plane..(i + 1) * plane]);
            labels.push(self.labels[i]);
        }
        Ok(SynthCifar {
            images: Tensor::from_vec(Shape::d4(indices.len(), 3, self.size, self.size), data)?,
            labels,
            classes: self.classes,
            size: self.size,
        })
    }
}

/// Renders one class-conditioned image into a `3 * size * size` buffer.
fn render_class_image(out: &mut [f32], size: usize, class: usize, classes: usize, rng: &mut Rng) {
    let plane = size * size;
    // Class-specific texture parameters, spread around the unit circle.
    let theta = std::f32::consts::PI * class as f32 / classes as f32;
    let freq = 1.0 + (class % 5) as f32; // cycles across the image
    let phase = rng.uniform(0.0, std::f32::consts::TAU);
    let (dx, dy) = (theta.cos(), theta.sin());
    // Class-specific color balance.
    let color = [
        0.5 + 0.5 * (theta).cos(),
        0.5 + 0.5 * (theta + 2.1).cos(),
        0.5 + 0.5 * (theta + 4.2).cos(),
    ];
    let jitter = rng.uniform(0.8, 1.2);
    for c in 0..3 {
        for y in 0..size {
            for x in 0..size {
                let u = x as f32 / size as f32;
                let v = y as f32 / size as f32;
                let wave =
                    (std::f32::consts::TAU * freq * jitter * (u * dx + v * dy) + phase).sin();
                let secondary =
                    (std::f32::consts::TAU * (freq + 2.0) * (u * dy - v * dx)).cos() * 0.3;
                let noise = rng.normal_with(0.0, 0.25);
                out[c * plane + y * size + x] =
                    (color[c] * wave + secondary + noise).clamp(-2.0, 2.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes_and_balance() {
        let d = SynthCifar::generate(50, 16, 1).unwrap();
        assert_eq!(d.len(), 50);
        assert_eq!(d.classes(), 10);
        assert_eq!(d.images().shape().dims(), &[50, 3, 16, 16]);
        let mut counts = [0usize; 10];
        for &l in d.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 5));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = SynthCifar::generate(10, 8, 7).unwrap();
        let b = SynthCifar::generate(10, 8, 7).unwrap();
        assert_eq!(a.images().as_slice(), b.images().as_slice());
        let c = SynthCifar::generate(10, 8, 8).unwrap();
        assert_ne!(a.images().as_slice(), c.images().as_slice());
    }

    #[test]
    fn invalid_requests_rejected() {
        assert!(SynthCifar::generate(0, 16, 0).is_err());
        assert!(SynthCifar::generate(10, 2, 0).is_err());
        assert!(SynthCifar::generate_classes(10, 16, 1, 0).is_err());
    }

    #[test]
    fn batch_extraction() {
        let d = SynthCifar::generate(20, 8, 2).unwrap();
        let (x, y) = d.batch(5, 4).unwrap();
        assert_eq!(x.shape().dims(), &[4, 3, 8, 8]);
        assert_eq!(y, &d.labels()[5..9]);
        assert!(d.batch(18, 4).is_err());
        assert!(d.batch(0, 0).is_err());
    }

    #[test]
    fn split_partitions_everything() {
        let d = SynthCifar::generate(100, 8, 3).unwrap();
        let (train, test) = d.split(0.2).unwrap();
        assert_eq!(train.len() + test.len(), 100);
        assert!(test.len() >= 15 && test.len() <= 25);
    }

    #[test]
    fn split_bad_fraction_rejected() {
        let d = SynthCifar::generate(10, 8, 3).unwrap();
        assert!(d.split(1.0).is_err());
        assert!(d.split(-0.1).is_err());
    }

    #[test]
    fn classes_are_distinguishable() {
        // Mean image of class 0 should differ markedly from class 5's —
        // otherwise nothing is learnable.
        let d = SynthCifar::generate(200, 16, 4).unwrap();
        let plane = 3 * 16 * 16;
        let mut mean = vec![vec![0.0f32; plane]; 10];
        let mut counts = [0usize; 10];
        for (i, &l) in d.labels().iter().enumerate() {
            counts[l] += 1;
            for (m, &v) in mean[l]
                .iter_mut()
                .zip(&d.images().as_slice()[i * plane..(i + 1) * plane])
            {
                *m += v;
            }
        }
        for (m, &c) in mean.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let dist: f32 = mean[0]
            .iter()
            .zip(&mean[5])
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "class means too close: {dist}");
    }

    #[test]
    fn values_bounded() {
        let d = SynthCifar::generate(10, 8, 5).unwrap();
        assert!(d
            .images()
            .as_slice()
            .iter()
            .all(|&x| (-2.0..=2.0).contains(&x)));
    }
}
