//! Classification metrics.

use crate::{DnnError, Result};

/// Fraction of predictions matching the labels, in `[0, 1]`.
///
/// # Errors
///
/// Returns [`DnnError::InvalidDataset`] for empty or mismatched inputs.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> Result<f32> {
    if predictions.is_empty() || predictions.len() != labels.len() {
        return Err(DnnError::InvalidDataset(format!(
            "predictions ({}) and labels ({}) must be equal-length and non-empty",
            predictions.len(),
            labels.len()
        )));
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f32 / labels.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]).unwrap(), 1.0);
        assert_eq!(accuracy(&[0, 0, 0], &[0, 1, 2]).unwrap(), 1.0 / 3.0);
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[0], &[0, 1]).is_err());
    }
}
