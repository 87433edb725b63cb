//! The paper's Fig. 10 dense speedups over Bit-fusion, and the simulator's
//! distance from them.
//!
//! The model's constants (PE geometry, clock, per-event energies) are
//! calibrated to the paper's own silicon numbers, so `fig10_err_pct` is
//! fidelity to the *reported* figures, not a validation against hardware.
//! It exists to catch a change that moves the simulated speedups — for
//! example a synthesis rewrite that changes the value distribution and
//! with it the slice sparsity — not to claim accuracy.

use sibia_sim::{ArchSpec, GridResult};

/// Paper speedups over Bit-fusion per dense network, in
/// `zoo::dense_benchmarks()` order: (HNPU, input skipping, hybrid skipping).
pub const FIG10_SPEEDUPS: [(&str, [f64; 3]); 7] = [
    ("Albert (SST-2)", [1.18, 3.65, 4.50]),
    ("Albert (QQP)", [1.18, 4.41, 5.07]),
    ("Albert (MNLI)", [1.19, 3.65, 4.50]),
    ("ViT", [1.31, 3.83, 4.73]),
    ("YoloV3", [1.35, 1.88, 2.79]),
    ("MonoDepth2", [1.08, 1.86, 2.48]),
    ("DGCNN", [1.63, 2.56, 3.67]),
];

/// The grid's architectures, in Fig. 10 column order, with the names the
/// serve protocol accepts.
pub const ARCHS: [&str; 5] = ["bitfusion", "hnpu", "no-sbr", "input-skip", "hybrid"];

/// The dense networks in `zoo::dense_benchmarks()` order, by protocol name.
pub const NETWORKS: [&str; 7] = [
    "albert-sst2",
    "albert-qqp",
    "albert-mnli",
    "vit",
    "yolov3",
    "monodepth2",
    "dgcnn",
];

/// The architecture specs matching [`ARCHS`].
pub fn arch_specs() -> Vec<ArchSpec> {
    vec![
        ArchSpec::bit_fusion(),
        ArchSpec::hnpu(),
        ArchSpec::sibia_no_sbr(),
        ArchSpec::sibia_input_skip(),
        ArchSpec::sibia_hybrid(),
    ]
}

/// Mean |sim − paper| / paper, in percent, over the 21 Fig. 10 speedups of
/// every seed of a fig10 grid (archs in [`ARCHS`] order, networks in
/// [`NETWORKS`] order).
///
/// # Panics
///
/// Panics if a network of the grid is not one of the paper's.
pub fn fig10_err_pct(grid: &GridResult, seeds: usize) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for seed in 0..seeds {
        for (ni, (name, paper)) in FIG10_SPEEDUPS.iter().enumerate() {
            let bf = grid.get(0, ni, seed);
            assert_eq!(bf.network, *name, "grid network order");
            // HNPU, input skipping, hybrid: arch columns 1, 3, 4.
            for (&ai, &expected) in [1usize, 3, 4].iter().zip(paper) {
                let sim = grid.get(ai, ni, seed).speedup_over(bf);
                sum += (sim - expected).abs() / expected;
                n += 1;
            }
        }
    }
    100.0 * sum / n as f64
}
