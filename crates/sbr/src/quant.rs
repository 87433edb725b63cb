//! Linear symmetric quantization.
//!
//! The paper states: *"This work conducts the linear symmetric quantization
//! for the accurate bit-slice-based output speculation."* Symmetric
//! quantization maps real data onto `[-(2^(N-1) - 1), 2^(N-1) - 1]`,
//! excluding the asymmetric code `-2^(N-1)` — exactly the precondition under
//! which SBR digits stay in `[-7, 7]`.

use std::fmt;

use crate::precision::Precision;

/// `clamp(y.round(), -m, m)` — rounding half away from zero, NaN to 0 —
/// without the `roundf` library call that `f32::round` costs on baseline
/// x86-64. The truncating cast is one instruction, and `y - trunc(y)` is
/// exact in `f32`, so comparing that fraction with ±0.5 rounds exactly as
/// `f32::round` does. `y` is first clamped to `±(m + 1)`, which keeps the
/// cast in range and changes no result after the final clamp.
#[inline]
fn round_clamped(y: f32, m: i32) -> i32 {
    let lim = (m + 1) as f32;
    let y = y.clamp(-lim, lim);
    let t = y as i32;
    let frac = y - t as f32;
    let r = t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5);
    r.clamp(-m, m)
}

/// A linear symmetric quantizer: `q = clamp(round(x / scale))`.
///
/// # Example
///
/// ```
/// use sibia_sbr::{Precision, Quantizer};
///
/// let data = [-1.0f32, -0.03, 0.0, 0.5, 1.0];
/// let q = Quantizer::fit(&data, Precision::BITS7);
/// let codes = q.quantize_all(&data);
/// assert_eq!(codes[4], 63);          // max magnitude maps to +63
/// assert_eq!(codes[0], -63);
/// assert!(codes[1].abs() <= 2);      // near-zero stays near zero
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    scale: f32,
    precision: Precision,
}

impl Quantizer {
    /// Creates a quantizer with an explicit scale (real units per code).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(scale: f32, precision: Precision) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive, got {scale}"
        );
        Self { scale, precision }
    }

    /// Fits the scale to the maximum absolute value of `data`
    /// (`scale = max|x| / (2^(N-1) - 1)`), the calibration the paper's
    /// linear symmetric quantization implies.
    ///
    /// All-zero (or empty) data gets a scale of 1, mapping everything to 0.
    pub fn fit(data: &[f32], precision: Precision) -> Self {
        let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max > 0.0 {
            max / precision.max_magnitude() as f32
        } else {
            1.0
        };
        Self::new(scale, precision)
    }

    /// The real-unit size of one quantization step.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The target precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes one real value to a symmetric fixed-point code.
    #[inline]
    pub fn quantize(&self, x: f32) -> i32 {
        round_clamped(x / self.scale, self.precision.max_magnitude())
    }

    /// Reconstructs the real value of a code.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a whole tensor.
    pub fn quantize_all(&self, data: &[f32]) -> Vec<i32> {
        // Scale and bound captured by value: read through `self`, they are
        // reloaded for every element the loop writes.
        let (scale, m) = (self.scale, self.precision.max_magnitude());
        data.iter()
            .map(move |&x| round_clamped(x / scale, m))
            .collect()
    }

    /// Dequantizes a whole tensor.
    pub fn dequantize_all(&self, codes: &[i32]) -> Vec<f32> {
        codes.iter().map(|&q| self.dequantize(q)).collect()
    }
}

impl fmt::Display for Quantizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "symmetric {} quantizer (scale {})",
            self.precision, self.scale
        )
    }
}

/// Per-output-channel symmetric quantization: one scale per channel.
///
/// An extension beyond the paper's per-tensor quantization (its §VI notes
/// the design "would be extended to ... future proposals"): per-channel
/// scales tighten weight quantization considerably, which *reduces* the
/// outlier-driven slice sparsity the SBR harvests — a real trade-off this
/// type lets downstream users study.
///
/// # Example
///
/// ```
/// use sibia_sbr::{quant::ChannelQuantizer, Precision};
///
/// // Two channels with very different ranges.
/// let data = [0.01f32, -0.02, 5.0, -4.0];
/// let q = ChannelQuantizer::fit(&data, 2, Precision::BITS7);
/// let codes = q.quantize_all(&data);
/// assert_eq!(codes[2], 63); // each channel uses its full range
/// assert!(codes[0].abs() > 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQuantizer {
    scales: Vec<f32>,
    precision: Precision,
}

impl ChannelQuantizer {
    /// Fits one scale per channel; `data` is channel-major
    /// (`channels` equal contiguous chunks).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or does not divide `data.len()`.
    pub fn fit(data: &[f32], channels: usize, precision: Precision) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert_eq!(data.len() % channels, 0, "channels must divide the data");
        let chunk = data.len() / channels;
        let scales = data
            .chunks(chunk)
            .map(|c| {
                let max = c.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                if max > 0.0 {
                    max / precision.max_magnitude() as f32
                } else {
                    1.0
                }
            })
            .collect();
        Self { scales, precision }
    }

    /// The per-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The target precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes channel-major data with each channel's own scale.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not `channels × chunk` for the fitted
    /// channel count.
    pub fn quantize_all(&self, data: &[f32]) -> Vec<i32> {
        assert_eq!(data.len() % self.scales.len(), 0, "data/channel mismatch");
        let chunk = data.len() / self.scales.len();
        let m = self.precision.max_magnitude();
        data.chunks(chunk)
            .zip(&self.scales)
            .flat_map(|(c, &s)| c.iter().map(move |&x| round_clamped(x / s, m)))
            .collect()
    }

    /// Dequantizes channel-major codes.
    pub fn dequantize_all(&self, codes: &[i32]) -> Vec<f32> {
        let chunk = codes.len() / self.scales.len();
        codes
            .chunks(chunk)
            .zip(&self.scales)
            .flat_map(|(c, &s)| c.iter().map(move |&q| q as f32 * s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_clamped_matches_f32_round() {
        // The former implementation, kept as the reference.
        fn reference(y: f32, m: i32) -> i32 {
            (y.round() as i64).clamp(-i64::from(m), i64::from(m)) as i32
        }
        let mut ys = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -2.5,
            0.499_999_97,
            -0.499_999_97,
            8_388_607.5, // the last half-integer below 2^23
            16_777_217.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Every half-integer and its neighbours across the widest code range.
        for k in -263_000..263_000 {
            let h = k as f32 + 0.5;
            ys.extend([
                h,
                f32::from_bits(h.to_bits() + 1),
                f32::from_bits(h.to_bits() - 1),
            ]);
        }
        // Deterministic pseudo-random bit patterns (all exponents, NaNs too).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ys.push(f32::from_bits((x >> 32) as u32));
        }
        for m in [1, 7, 63, 511, 4095, 32767, 262_143] {
            for &y in &ys {
                assert_eq!(round_clamped(y, m), reference(y, m), "y={y:e} m={m}");
            }
        }
    }

    #[test]
    fn fit_covers_extremes() {
        let data = [-2.0f32, 0.0, 1.0];
        let q = Quantizer::fit(&data, Precision::BITS7);
        assert_eq!(q.quantize(-2.0), -63);
        assert_eq!(q.quantize(2.0), 63);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn codes_stay_in_symmetric_range() {
        let data: Vec<f32> = (-100..=100).map(|i| i as f32 / 10.0).collect();
        let q = Quantizer::fit(&data, Precision::BITS7);
        for &x in &data {
            let code = q.quantize(x * 2.0); // even out-of-calibration values
            assert!(code.abs() <= 63);
        }
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let data: Vec<f32> = (-50..=50).map(|i| i as f32 * 0.017).collect();
        let q = Quantizer::fit(&data, Precision::BITS10);
        for &x in &data {
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.scale() / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn all_zero_data_quantizes_to_zero() {
        let q = Quantizer::fit(&[0.0, 0.0], Precision::BITS7);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn never_produces_asymmetric_minimum() {
        let data = [-1.0f32, 1.0];
        let q = Quantizer::fit(&data, Precision::BITS7);
        assert_eq!(q.quantize(-1.0e9), -63);
    }

    #[test]
    #[should_panic(expected = "scale must be finite")]
    fn rejects_bad_scale() {
        let _ = Quantizer::new(0.0, Precision::BITS7);
    }

    #[test]
    fn channel_quantizer_uses_per_channel_ranges() {
        // Channel 0: tiny values; channel 1: large values. Per-tensor
        // quantization would crush channel 0 to zero codes.
        let data = [0.01f32, -0.008, 0.005, 0.0, 8.0, -6.0, 2.0, 1.0];
        let per_tensor = Quantizer::fit(&data, Precision::BITS7).quantize_all(&data);
        let per_channel = ChannelQuantizer::fit(&data, 2, Precision::BITS7).quantize_all(&data);
        assert!(per_tensor[0].abs() <= 1, "per-tensor crushes channel 0");
        assert!(per_channel[0].abs() > 30, "per-channel preserves it");
        // Round trip within half a step per channel.
        let cq = ChannelQuantizer::fit(&data, 2, Precision::BITS7);
        let back = cq.dequantize_all(&per_channel);
        for ((x, y), s) in data.iter().zip(&back).zip(
            cq.scales()
                .iter()
                .flat_map(|&s| std::iter::repeat(s).take(4)),
        ) {
            assert!((x - y).abs() <= s / 2.0 + 1e-6);
        }
    }

    #[test]
    fn channel_quantizer_reduces_slice_sparsity() {
        // The trade-off: tighter per-channel scales spread codes across the
        // full range, shrinking the near-zero mass the SBR harvests.
        use crate::stats::SparsityReport;
        let mut data = Vec::new();
        for ch in 0..8 {
            let amp = 0.05f32 * (1 << ch) as f32;
            for i in 0..64 {
                data.push(amp * (((i * 37 + ch) % 15) as f32 - 7.0) / 7.0);
            }
        }
        let pt = Quantizer::fit(&data, Precision::BITS7).quantize_all(&data);
        let pc = ChannelQuantizer::fit(&data, 8, Precision::BITS7).quantize_all(&data);
        let r_pt = SparsityReport::analyze(&pt, Precision::BITS7);
        let r_pc = SparsityReport::analyze(&pc, Precision::BITS7);
        assert!(
            r_pc.signed.overall < r_pt.signed.overall,
            "per-channel {} vs per-tensor {}",
            r_pc.signed.overall,
            r_pt.signed.overall
        );
    }

    #[test]
    #[should_panic(expected = "channels must divide")]
    fn channel_quantizer_validates_layout() {
        let _ = ChannelQuantizer::fit(&[0.0; 7], 2, Precision::BITS7);
    }
}
