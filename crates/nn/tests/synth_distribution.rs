//! The sampler may change; the distribution may not.
//!
//! Slice sparsity is a property of the value distribution (PAPER.md
//! Fig. 1 and Fig. 6), so a new sampler is acceptable exactly when it draws
//! from the same distribution as the one it replaces. These tests hold the
//! Ziggurat normals to N(0, 1) in moments and tail masses, and hold the
//! synthesized tensors to the per-order signed-slice sparsities the
//! Box–Muller sampler (synthesis version 1) produced.

use sibia_nn::{zoo, SynthSource};
use sibia_sbr::stats::SparsityReport;

/// Draws per moment check: 2²¹ ≈ 2.1 million.
const DRAWS: usize = 1 << 21;

#[test]
fn normals_match_the_standard_normal_in_moments_and_tails() {
    let z: Vec<f64> = SynthSource::new(0x5eed)
        .gaussian(DRAWS, 1.0)
        .into_iter()
        .map(f64::from)
        .collect();
    let n = z.len() as f64;
    let mean = z.iter().sum::<f64>() / n;
    let var = z.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let kurt = z.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
    // Tolerances are five standard errors at n = 2²¹: the mean's is
    // 1/√n ≈ 6.9e-4, the variance's √(2/n) ≈ 9.8e-4 and the kurtosis's
    // √(96/n) ≈ 6.8e-3.
    assert!(mean.abs() < 3.5e-3, "mean {mean}");
    assert!((var - 1.0).abs() < 5e-3, "variance {var}");
    assert!((kurt - 3.0).abs() < 0.035, "kurtosis {kurt}");

    // Two-sided tail masses of N(0, 1), each within five binomial standard
    // errors √(p(1 − p)/n). |z| > 4 lies beyond the Ziggurat's base edge
    // (3.654), so it exercises the tail sampler.
    for (t, p) in [
        (2.0, 0.045_500_263_9),
        (3.0, 0.002_699_796_1),
        (4.0, 6.334_248e-5),
    ] {
        let frac = z.iter().filter(|x| x.abs() > t).count() as f64 / n;
        let tol = 5.0 * (p * (1.0 - p) / n).sqrt();
        assert!(
            (frac - p).abs() < tol,
            "P(|z| > {t}) = {frac}, want {p} ± {tol}"
        );
    }
}

/// Per-order signed-slice zero fractions (order 0 first) of the middle
/// layer of each dense network at seed 1, sample cap 32768, drawn by the
/// synthesis-version-1 sampler (Box–Muller normals, a Bernoulli draw per
/// value for outliers): `(network, inputs, weights)`.
const V1_SEED1_SBR_SPARSITY: [(&str, &[f64], &[f64]); 7] = [
    (
        "Albert (SST-2)",
        &[0.2074, 0.6879, 0.9972],
        &[0.1951, 0.1762, 0.4193, 0.9977],
    ),
    (
        "Albert (QQP)",
        &[0.2225, 0.6935, 0.9972],
        &[0.1950, 0.1764, 0.4193, 0.9977],
    ),
    (
        "Albert (MNLI)",
        &[0.2014, 0.6861, 0.9971],
        &[0.1929, 0.1736, 0.4244, 0.9980],
    ),
    ("ViT", &[0.4782, 0.9971], &[0.1792, 0.3638, 0.9979]),
    ("YoloV3", &[0.3820, 0.8046], &[0.1251, 0.9423]),
    ("MonoDepth2", &[0.6087, 0.9121], &[0.1259, 0.9414]),
    ("DGCNN", &[0.2928, 0.8025], &[0.1284, 0.9409]),
];

/// Absolute tolerance on each per-order zero fraction. The version-1
/// sampler itself moves these by up to 0.074 between seeds 1–4 (YoloV3's
/// high-order input plane: whether a tensor's first block is a zero block
/// decides whether its scale anchor is drawn), and by under 0.01 on the
/// other planes; 0.04 keeps a real distribution change visible while a
/// fresh draw of the same distribution passes.
const SPARSITY_TOL: f64 = 0.04;

#[test]
fn fig6_slice_sparsity_matches_the_previous_sampler() {
    let nets = zoo::dense_benchmarks();
    assert_eq!(nets.len(), V1_SEED1_SBR_SPARSITY.len());
    for (net, &(name, want_in, want_w)) in nets.iter().zip(&V1_SEED1_SBR_SPARSITY) {
        assert_eq!(net.name(), name, "dense benchmark order");
        // The middle layer, synthesized exactly as the simulator does it.
        let idx = net.layers().len() / 2;
        let layer = &net.layers()[idx];
        let mut src = SynthSource::for_layer(1, idx);
        let inputs = src.activations(layer, 32_768);
        let weights = src.weights(layer, 32_768);
        for (what, codes, precision, want) in [
            ("inputs", &inputs, layer.input_precision(), want_in),
            ("weights", &weights, layer.weight_precision(), want_w),
        ] {
            let got = SparsityReport::analyze(codes.codes().data(), precision)
                .signed
                .per_order;
            assert_eq!(got.len(), want.len(), "{name} {what}: slice orders");
            for (order, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    (g - w).abs() < SPARSITY_TOL,
                    "{name} {what} order {order}: {g:.4}, version 1 drew {w:.4}"
                );
            }
        }
    }
}
