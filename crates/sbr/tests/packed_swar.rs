//! Property tests pinning the one-pass plane-count kernel
//! (`KernelOps::plane_counts`) on every supported tier to independent
//! scalar per-`i8` references.
//!
//! The kernel answers three questions — zero slices, zero sub-words, RLE
//! entry count — with branch-free mask arithmetic (the SWAR byte-word carry
//! trick, or SSE2/AVX2 compares); the simulator's sparsity accounting is
//! only correct if those answers are *exactly* the scalar definitions. Each
//! property below recomputes the count the slow, obvious way from the raw
//! digit plane and demands equality on every tier, over random planes in
//! the full digit range `[-8, 15]` plus the adversarial uniform planes
//! (all-zero, and all `-8`, the digit whose nibble pattern `1000` has no
//! set low bits beyond bit 3).

use proptest::prelude::*;
use sibia_sbr::kernels::{ops_for, KernelOps, KernelTier};
use sibia_sbr::subword::SUBWORD_LANES;

/// Every kernel tier this host can run.
fn tiers() -> impl Iterator<Item = &'static KernelOps> {
    KernelTier::ALL.into_iter().filter_map(|t| ops_for(t).ok())
}

/// Scalar reference: zero digits, one `i8` at a time.
fn ref_zero_slices(plane: &[i8]) -> usize {
    plane.iter().filter(|&&d| d == 0).count()
}

/// Scalar reference: zero sub-words over `SUBWORD_LANES`-digit groups, the
/// tail group zero-padded (a partial group is zero iff its present digits
/// are).
fn ref_zero_subwords(plane: &[i8]) -> usize {
    plane
        .chunks(SUBWORD_LANES)
        .filter(|g| g.iter().all(|&d| d == 0))
        .count()
}

/// Scalar reference for the DMU RLE entry count: walk the zero-padded
/// sub-word stream; a zero sub-word extends the current run, a run
/// saturated at `2^index_bits - 1` flushes through a padding entry, a
/// non-zero sub-word always emits one entry, and trailing zeros are
/// implicit except for the padding entries their saturated runs force.
fn ref_rle_entries(plane: &[i8], index_bits: u8) -> usize {
    let cycle = 1usize << index_bits;
    let mut entries = 0usize;
    let mut run = 0usize;
    for group in plane.chunks(SUBWORD_LANES) {
        if group.iter().all(|&d| d == 0) {
            run += 1;
            if run == cycle {
                entries += 1;
                run = 0;
            }
        } else {
            entries += 1;
            run = 0;
        }
    }
    entries
}

/// Digit planes in the decompositions' range, weighted toward the
/// interesting shapes: dense random, mostly-zero (long runs for the RLE
/// path), and the two uniform edge cases.
fn arb_plane() -> impl Strategy<Value = Vec<i8>> {
    prop_oneof![
        4 => prop::collection::vec(-8i8..=15, 0..600),
        3 => prop::collection::vec(prop_oneof![9 => Just(0i8), 1 => Just(5i8)], 0..600),
        1 => (0usize..600).prop_map(|n| vec![0i8; n]),
        1 => (0usize..600).prop_map(|n| vec![-8i8; n]),
    ]
}

proptest! {
    /// Zero-slice count == scalar digit-by-digit count, on every tier.
    #[test]
    fn packed_zero_slices_match_scalar(plane in arb_plane()) {
        let expected = ref_zero_slices(&plane);
        for ops in tiers() {
            let c = ops.plane_counts(&plane, 4);
            prop_assert_eq!(c.len, plane.len());
            prop_assert_eq!(c.zero_digits, expected, "{}", ops.tier);
        }
    }

    /// Sub-word counts == scalar group-of-four counts, on every tier.
    #[test]
    fn packed_zero_subwords_match_scalar(plane in arb_plane()) {
        for ops in tiers() {
            let c = ops.plane_counts(&plane, 4);
            prop_assert_eq!(c.subwords, plane.len().div_ceil(SUBWORD_LANES));
            prop_assert_eq!(c.zero_subwords, ref_zero_subwords(&plane), "{}", ops.tier);
        }
    }

    /// RLE entry count == the scalar run-length walk, across index widths
    /// (narrow widths exercise run saturation, wide ones the trailing-zero
    /// elision), on every tier.
    #[test]
    fn packed_rle_entries_match_scalar((plane, index_bits) in (arb_plane(), 1u8..=15)) {
        let expected = ref_rle_entries(&plane, index_bits);
        for ops in tiers() {
            prop_assert_eq!(
                ops.plane_counts(&plane, index_bits).rle_entries,
                expected,
                "{} index_bits={}", ops.tier, index_bits
            );
        }
    }

    /// The all-zero plane in every length: no slices, no sub-words, and no
    /// RLE entries except the padding entries forced by saturated runs.
    #[test]
    fn all_zero_planes_compress_to_padding_only(n in 0usize..600, index_bits in 1u8..=15) {
        let plane = vec![0i8; n];
        for ops in tiers() {
            let c = ops.plane_counts(&plane, index_bits);
            prop_assert_eq!(c.zero_digits, n);
            prop_assert_eq!(c.zero_subwords, c.subwords);
            prop_assert_eq!(c.rle_entries, c.subwords / (1usize << index_bits), "{}", ops.tier);
        }
    }

    /// The all-`-8` plane: its nibble pattern is `1000`, so only bit 3 is
    /// set — a mask that would fool any fold forgetting the `>> 3` term.
    /// Nothing is zero anywhere, and every sub-word costs one RLE entry.
    #[test]
    fn all_minus_eight_planes_have_no_zero_structure(n in 1usize..600, index_bits in 1u8..=15) {
        let plane = vec![-8i8; n];
        for ops in tiers() {
            let c = ops.plane_counts(&plane, index_bits);
            prop_assert_eq!(c.zero_digits, 0);
            prop_assert_eq!(c.zero_subwords, 0);
            prop_assert_eq!(c.rle_entries, c.subwords, "{}", ops.tier);
        }
    }
}
