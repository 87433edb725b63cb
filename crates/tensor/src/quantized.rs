//! Quantized tensors: integer data plus the quantizer that produced it.

use sibia_sbr::{Precision, Quantizer};

use crate::shape::Shape;
use crate::tensor::Tensor;

/// A quantized tensor: symmetric fixed-point codes with their scale and
/// precision.
///
/// # Example
///
/// ```
/// use sibia_sbr::Precision;
/// use sibia_tensor::{QuantTensor, Shape};
///
/// let data = vec![-1.0f32, 0.0, 0.5, 1.0];
/// let qt = QuantTensor::quantize(&data, Shape::new(&[4]), Precision::BITS7);
/// assert_eq!(qt.codes().data(), &[-63, 0, 31, 63]);
/// assert_eq!(qt.precision(), Precision::BITS7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    codes: Tensor<i32>,
    quantizer: Quantizer,
}

impl QuantTensor {
    /// Quantizes real data with a scale fitted to its maximum magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn quantize(data: &[f32], shape: Shape, precision: Precision) -> Self {
        let quantizer = Quantizer::fit(data, precision);
        let codes = Tensor::from_vec(quantizer.quantize_all(data), shape);
        Self { codes, quantizer }
    }

    /// Wraps already-quantized codes.
    ///
    /// # Panics
    ///
    /// Panics if any code is outside the symmetric range of the quantizer's
    /// precision.
    pub fn from_codes(codes: Tensor<i32>, quantizer: Quantizer) -> Self {
        let p = quantizer.precision();
        assert!(
            codes.data().iter().all(|&c| p.contains(c)),
            "codes must fit the symmetric {p} range"
        );
        Self { codes, quantizer }
    }

    /// The integer codes.
    pub fn codes(&self) -> &Tensor<i32> {
        &self.codes
    }

    /// Takes the integer codes, dropping the quantizer.
    pub fn into_codes(self) -> Tensor<i32> {
        self.codes
    }

    /// Edits the codes in place. The edit must keep every code inside the
    /// precision's symmetric range, as an edit that only moves codes toward
    /// zero (or to ±1) does; that is checked in debug builds only, which is
    /// what spares such edits the validating pass of [`Self::from_codes`].
    pub fn edit_codes(&mut self, edit: impl FnOnce(&mut [i32])) {
        edit(self.codes.data_mut());
        let p = self.quantizer.precision();
        debug_assert!(
            self.codes.data().iter().all(|&c| p.contains(c)),
            "codes must fit the symmetric {p} range"
        );
    }

    /// The quantizer (scale + precision).
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The bit precision.
    pub fn precision(&self) -> Precision {
        self.quantizer.precision()
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        self.codes.shape()
    }

    /// Reconstructs real values.
    pub fn dequantize(&self) -> Tensor<f32> {
        self.codes.map(|&c| self.quantizer.dequantize(c))
    }

    /// Fraction of exactly-zero codes.
    pub fn sparsity(&self) -> f64 {
        let z = self.codes.data().iter().filter(|&&c| c == 0).count();
        z as f64 / self.codes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_then_dequantize_bounds_error() {
        let data: Vec<f32> = (-20..=20).map(|i| i as f32 * 0.05).collect();
        let qt = QuantTensor::quantize(&data, Shape::new(&[41]), Precision::BITS7);
        let back = qt.dequantize();
        for (x, y) in data.iter().zip(back.data()) {
            assert!((x - y).abs() <= qt.quantizer().scale() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn sparsity_counts_zero_codes() {
        let data = vec![0.0f32, 0.0, 1.0, -1.0];
        let qt = QuantTensor::quantize(&data, Shape::new(&[4]), Precision::BITS7);
        assert_eq!(qt.sparsity(), 0.5);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_codes_validates_range() {
        let q = Quantizer::new(1.0, Precision::BITS7);
        let _ = QuantTensor::from_codes(Tensor::from_vec(vec![64], Shape::new(&[1])), q);
    }
}
