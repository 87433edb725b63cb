//! Portable SWAR tier: SIMD-within-a-register over `u64` words.
//!
//! Plane counting loads the raw digits eight to a `u64` byte word, finds
//! the non-zero bytes with the carry trick, and gathers them with a
//! movemask multiply into a per-digit non-zero bitmap (64 digits to a
//! `u64`) fed to the shared driver in [`super::detail`].
//!
//! Decomposition has no data-parallel trick at word width that beats the
//! compiler on the scalar recurrence, so this tier shares the scalar
//! implementations; the x86 tiers are where decomposition vectorizes.

pub(super) use super::scalar::{conv_planes, sbr_planes};

use super::detail;
use super::PlaneCounts;

/// Per-byte non-zero mask: bit 7 of each byte lane of the result is set iff
/// that byte of `x` is non-zero. `(x & 0x7F…) + 0x7F…` carries into bit 7
/// exactly when the low seven bits are non-zero and cannot carry across
/// lanes; OR-ing `x` back in folds bit 7 itself.
#[inline]
fn nonzero_byte_mask(x: u64) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HI: u64 = 0x8080_8080_8080_8080;
    ((x & LOW7).wrapping_add(LOW7) | x) & HI
}

/// Loads eight digits little-endian, so byte `i` of the word is digit `i`
/// on every host endianness.
#[inline]
fn bytes_of(c: &[i8]) -> u64 {
    let mut b = [0u8; 8];
    for (dst, &s) in b.iter_mut().zip(c) {
        *dst = s as u8;
    }
    u64::from_le_bytes(b)
}

/// Movemask multiplier: gathers the per-byte mask bits `7, 15, …, 63` into
/// bits `56..=63`. Its set bits `{0, 7, 14, 21, 28, 35, 42, 49}` make every
/// partial-product bit position distinct (`8k − 7j` collides only at
/// `k = k', j = j'`), so no carries occur and the top byte is exact.
const MOVEMASK_MUL: u64 = 0x0002_0408_1020_4081;

/// Per-digit non-zero bitmap of a 64-digit chunk: bit `i` set iff digit `i`
/// is non-zero.
#[inline]
fn nonzero_mask64(chunk: &[i8]) -> u64 {
    debug_assert_eq!(chunk.len(), 64);
    let mut out = 0u64;
    for (j, bytes) in chunk.chunks_exact(8).enumerate() {
        let m = nonzero_byte_mask(bytes_of(bytes));
        out |= (m.wrapping_mul(MOVEMASK_MUL) >> 56) << (8 * j);
    }
    out
}

pub(super) fn plane_counts(plane: &[i8], index_bits: u8) -> PlaneCounts {
    detail::plane_counts_with(plane, index_bits, nonzero_mask64)
}
