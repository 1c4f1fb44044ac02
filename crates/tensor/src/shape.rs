use crate::{Result, TensorError};
use std::fmt;

/// The shape of a [`crate::Tensor`]: an ordered list of dimension sizes.
///
/// Tensors in this crate are row-major; the last dimension is contiguous.
/// Image batches use the NCHW convention `(batch, channels, height, width)`.
///
/// # Example
///
/// ```
/// use lcda_tensor::Shape;
/// let s = Shape::d4(8, 3, 32, 32);
/// assert_eq!(s.len(), 8 * 3 * 32 * 32);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

lcda_base::impl_json!(struct Shape { dims });

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// A rank-1 shape.
    pub fn d1(a: usize) -> Self {
        Shape { dims: vec![a] }
    }

    /// A rank-2 shape (rows, cols).
    pub fn d2(a: usize, b: usize) -> Self {
        Shape { dims: vec![a, b] }
    }

    /// A rank-3 shape.
    pub fn d3(a: usize, b: usize, c: usize) -> Self {
        Shape {
            dims: vec![a, b, c],
        }
    }

    /// A rank-4 shape (NCHW for image batches).
    pub fn d4(a: usize, b: usize, c: usize, d: usize) -> Self {
        Shape {
            dims: vec![a, b, c, d],
        }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dimensions; 1 for rank 0).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides for this shape.
    ///
    /// ```
    /// use lcda_tensor::Shape;
    /// assert_eq!(Shape::d3(2, 3, 4).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a flat offset.
    ///
    /// # Errors
    ///
    /// Returns an error when the index rank does not match or any component
    /// is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() {
            return Err(TensorError::RankMismatch {
                expected: self.dims.len(),
                actual: index.len(),
                op: "offset",
            });
        }
        let strides = self.strides();
        let mut off = 0usize;
        for ((&i, &d), &s) in index.iter().zip(&self.dims).zip(&strides) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Returns a new shape with the same element count, validating the
    /// target dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Result<Shape> {
        let target = Shape::new(dims);
        if target.len() != self.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: target.len(),
                actual: self.len(),
            });
        }
        Ok(target)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product() {
        assert_eq!(Shape::d4(2, 3, 4, 5).len(), 120);
        assert_eq!(Shape::d1(7).len(), 7);
        assert_eq!(Shape::new(&[]).len(), 1);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::d4(2, 3, 4, 5).strides(), vec![60, 20, 5, 1]);
        assert_eq!(Shape::d1(9).strides(), vec![1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::d3(2, 3, 4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).unwrap();
                    assert!(off < s.len());
                    assert!(seen.insert(off), "offsets must be unique");
                }
            }
        }
        assert_eq!(seen.len(), s.len());
    }

    #[test]
    fn offset_out_of_bounds() {
        let s = Shape::d2(2, 2);
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            s.offset(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn reshape_preserves_len() {
        let s = Shape::d2(6, 4);
        assert_eq!(s.reshaped(&[2, 12]).unwrap().dims(), &[2, 12]);
        assert!(s.reshaped(&[5, 5]).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::d2(2, 3).to_string(), "(2, 3)");
    }

    #[test]
    fn zero_dim_shape_is_empty() {
        assert!(Shape::d2(0, 5).is_empty());
        assert!(!Shape::d1(1).is_empty());
    }
}
