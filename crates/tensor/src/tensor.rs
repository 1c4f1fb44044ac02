use crate::{Result, Shape, TensorError};
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// This is the workhorse value type of the whole workspace: DNN weights,
/// activations, gradients and crossbar conductance matrices are all
/// `Tensor`s. The type is deliberately simple — a `Vec<f32>` plus a
/// [`Shape`] — because the LCDA workloads are small CNNs where clarity and
/// determinism matter more than absolute throughput.
///
/// # Example
///
/// ```
/// use lcda_tensor::{Tensor, Shape};
/// let t = Tensor::zeros(Shape::d2(2, 2));
/// let u = t.map(|x| x + 1.0);
/// assert_eq!(u.sum(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

lcda_base::impl_json!(struct Tensor { shape, data });

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![1.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from a shape and an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal `shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if shape.len() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::d1(data.len()),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new, equal-length shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when lengths differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = self.shape.reshaped(dims)?;
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        self.check_same_shape(other, "zip")?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds `alpha * other` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence); `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn norm_l2(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Sample standard deviation of the elements (Bessel-corrected,
    /// divides by `n - 1`); `0.0` for fewer than two elements.
    ///
    /// Sample variance is the workspace-wide convention — it matches
    /// `lcda_variation::montecarlo::McStats`, which estimates accuracy
    /// spread from a finite number of Monte-Carlo trials. This method
    /// previously used the population divisor `n`, which silently
    /// disagreed with the Monte-Carlo statistics (see DESIGN.md §14).
    pub fn std(&self) -> f32 {
        if self.data.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.data.iter().map(|&x| (x - m) * (x - m)).sum::<f32>()
            / (self.data.len() - 1) as f32;
        var.sqrt()
    }

    /// Matrix multiplication for rank-2 tensors: `(m,k) x (k,n) -> (m,n)`.
    ///
    /// Runs on the blocked deterministic kernel [`crate::ops::gemm_f32`]:
    /// bit-identical to the scalar i-k-j reference on every call, and with
    /// no zero-skip shortcut, so `0 * NaN` / `0 * inf` products propagate
    /// NaN to the output instead of being silently masked (an earlier fast
    /// path skipped zero lhs elements and hid non-finite rhs values from
    /// the NaN quarantine).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank
    /// 2, and [`TensorError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "matmul",
            });
        }
        if other.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.shape.rank(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape.dims()[0], self.shape.dims()[1]);
        let (k2, n) = (other.shape.dims()[0], other.shape.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.to_string(),
                rhs: other.shape.to_string(),
                op: "matmul",
            });
        }
        let mut out = vec![0.0f32; m * n];
        crate::ops::gemm_f32(m, k, n, &self.data, &other.data, &mut out);
        Ok(Tensor {
            shape: Shape::d2(m, n),
            data: out,
        })
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "transpose",
            });
        }
        let (m, n) = (self.shape.dims()[0], self.shape.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Tensor {
            shape: Shape::d2(n, m),
            data: out,
        })
    }

    /// Row `r` of a rank-2 tensor as a new rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns rank / bounds errors as appropriate.
    pub fn row(&self, r: usize) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "row",
            });
        }
        let (m, n) = (self.shape.dims()[0], self.shape.dims()[1]);
        if r >= m {
            return Err(TensorError::IndexOutOfBounds { index: r, bound: m });
        }
        Ok(Tensor {
            shape: Shape::d1(n),
            data: self.data[r * n..(r + 1) * n].to_vec(),
        })
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.to_string(),
                rhs: other.shape.to_string(),
                op,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(Shape::d1(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::d2(rows, cols), v.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_identity() {
        let a = t2(2, 2, &[1., 2., 3., 4.]);
        let id = t2(2, 2, &[1., 0., 0., 1.]);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = t2(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t2(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = t2(2, 3, &[0.0; 6]);
        let b = t2(2, 3, &[0.0; 6]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = t2(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let att = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(att, a);
        let at = a.transpose().unwrap();
        assert_eq!(at.at(&[2, 1]).unwrap(), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = t2(1, 3, &[1., 2., 3.]);
        let b = t2(1, 3, &[4., 5., 6.]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t2(1, 2, &[1., 1.]);
        let g = t2(1, 2, &[2., 4.]);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0., -1.]);
    }

    #[test]
    fn reductions() {
        let a = t2(2, 2, &[1., -2., 3., 0.]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), Some(2));
        assert!((a.norm_l2() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_empty_is_none() {
        assert_eq!(Tensor::default().argmax(), None);
    }

    #[test]
    fn reshape_roundtrip() {
        let a = t2(2, 6, &[0.0; 12]);
        let b = a.reshape(&[3, 4]).unwrap();
        assert_eq!(b.shape().dims(), &[3, 4]);
        assert!(a.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn at_and_set() {
        let mut a = Tensor::zeros(Shape::d3(2, 2, 2));
        a.set(&[1, 0, 1], 7.0).unwrap();
        assert_eq!(a.at(&[1, 0, 1]).unwrap(), 7.0);
        assert_eq!(a.at(&[0, 0, 0]).unwrap(), 0.0);
        assert!(a.at(&[2, 0, 0]).is_err());
    }

    #[test]
    fn display_nonempty() {
        let a = Tensor::zeros(Shape::d1(2));
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn std_of_constant_is_zero() {
        let a = Tensor::full(Shape::d1(10), 3.5);
        assert_eq!(a.std(), 0.0);
    }

    #[test]
    fn std_is_sample_standard_deviation() {
        // Hand-computed: mean 2.5, sum of squared deviations 5, sample
        // variance 5/3 — the same convention (and the same pinned value)
        // as lcda_variation::montecarlo::McStats::from_samples.
        let a = Tensor::from_vec(Shape::d1(4), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((a.std() - (5.0f32 / 3.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn std_of_single_element_is_zero() {
        let a = Tensor::from_vec(Shape::d1(1), vec![7.25]).unwrap();
        assert_eq!(a.std(), 0.0);
    }

    #[test]
    fn matmul_propagates_nan_from_either_operand() {
        // Regression: a zero-skip shortcut used to mask 0*NaN products.
        let a = t2(1, 2, &[0.0, 0.0]);
        let b = t2(2, 2, &[f32::NAN, 1.0, 2.0, 3.0]);
        let c = a.matmul(&b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "NaN in rhs must reach the output");

        let a = t2(2, 2, &[f32::NAN, 0.0, 0.0, 1.0]);
        let b = t2(2, 1, &[0.0, 5.0]);
        let c = a.matmul(&b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "NaN in lhs must reach the output");
        assert_eq!(c.as_slice()[1], 5.0);
    }

    #[test]
    fn row_extraction() {
        let a = t2(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.row(1).unwrap().as_slice(), &[4., 5., 6.]);
        assert!(a.row(2).is_err());
    }
}
