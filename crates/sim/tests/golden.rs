//! Golden digest of the canonical fig10 grid document.
//!
//! Every other test compares code paths against each other, so a change
//! that alters the synthetic stream — a new sampler, a reordered draw —
//! passes all of them while every committed result and every stored
//! record silently goes stale. This test pins the bytes themselves: it
//! hashes `grid_to_json` of the fig10 grid (5 architectures × 7 dense
//! networks, seed 1, a small sample cap so it runs in well under a second)
//! and compares the digest with the one recorded for the current
//! [`SYNTH_VERSION`], which is part of every store key. Synthesis calls the
//! platform's `exp` and `ln`, so the digest is pinned for x86-64 Linux
//! (glibc); another libm may round a last bit differently.

use sibia_nn::synth::SYNTH_VERSION;
use sibia_nn::zoo;
use sibia_sim::{grid_to_json, ArchSpec, ParallelEngine, Simulator};

/// The synthesis version the digest below was recorded under, and the
/// digest of the fig10 grid document it produces.
const PINNED: (u32, u64) = (2, 0x4612_2a2e_d1a5_5388);

/// Samples per tensor: small enough to keep the test fast, large enough
/// that every layer draws outliers and calibrates its sparsity.
const SAMPLE_CAP: usize = 1024;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fig10_grid_digest_is_pinned_to_the_synth_version() {
    let mut sim = Simulator::new(1);
    sim.sample_cap = SAMPLE_CAP;
    let archs = [
        ArchSpec::bit_fusion(),
        ArchSpec::hnpu(),
        ArchSpec::sibia_no_sbr(),
        ArchSpec::sibia_input_skip(),
        ArchSpec::sibia_hybrid(),
    ];
    let grid = ParallelEngine::new().simulate_grid(&sim, &archs, &zoo::dense_benchmarks(), &[1]);
    let digest = fnv1a(grid_to_json(&grid).to_string().as_bytes());
    assert_eq!(
        PINNED,
        (SYNTH_VERSION, digest),
        "the fig10 grid document changed (digest {digest:#018x}). If the synthetic \
         stream changed on purpose, bump SYNTH_VERSION in sibia_nn::synth and pin \
         ({}, {digest:#018x}) here; otherwise a change meant to be byte-identical \
         is not",
        SYNTH_VERSION
    );
}
