//! Distribution-calibrated synthetic tensors.
//!
//! Real checkpoints and datasets are unavailable, so tensors are synthesized
//! to match what the slice-level machinery actually observes (DESIGN.md §2):
//!
//! * **weights** — zero-mean Gaussians (the paper cites Glorot/He training
//!   dynamics for weight Gaussianity), quantized symmetrically;
//! * **activations** — a standard-normal pre-activation passed through the
//!   layer's activation function, with the paper's reported full-bit-width
//!   sparsity injected (for ReLU by shifting the pre-activation mean; for
//!   non-ReLU functions as an exact-zero mixture component modelling
//!   quantization underflow);
//! * **attention probabilities** — softmax rows over Gaussian logits,
//!   concentrated near zero, for the probability×value matmuls of
//!   transformer blocks.
//!
//! All generation is seeded and deterministic. Normals come from a
//! 256-layer Ziggurat (one 64-bit draw per value on the fast path), and the
//! rare outliers are placed by geometric gaps (one draw per outlier, not
//! one per value).

use std::sync::OnceLock;

use sibia_sbr::Precision;
use sibia_tensor::{QuantTensor, Shape};

use crate::activation::Activation;
use crate::layer::Layer;
use crate::rng::SynthRng;

/// Version of the synthetic stream. It changes whenever synthesis draws a
/// different code for some `(seed, layer)`, even when the distribution is
/// the same, and it is part of every stored result's key, so a store or a
/// peer never serves numbers drawn by another sampler.
///
/// * 1 — Box–Muller normals; one Bernoulli draw per value for outliers.
/// * 2 — Ziggurat normals; geometric gaps between outliers.
pub const SYNTH_VERSION: u32 = 2;

/// Statistical profile of a layer's input tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InputProfile {
    /// Input is the previous layer's post-activation output (default).
    #[default]
    PostActivation,
    /// Input is an attention probability matrix (softmax output): values in
    /// `[0, 1]`, heavily concentrated near zero.
    AttentionProb,
}

/// Deterministic generator of layer tensors.
///
/// # Example
///
/// ```
/// use sibia_nn::{Layer, SynthSource, Activation};
///
/// let layer = Layer::linear("fc", 8, 64, 64)
///     .with_activation(Activation::Relu)
///     .with_input_sparsity(0.5);
/// let mut src = SynthSource::new(42);
/// let acts = src.activations(&layer, 4096);
/// let measured = acts.sparsity();
/// assert!((measured - 0.5).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct SynthSource {
    rng: SynthRng,
}

/// Probability that an activation is an outlier (salient feature).
/// Real DNN activations are heavy-tailed; with max-calibrated symmetric
/// quantization the rare outliers set the scale and squeeze the bulk into
/// small codes — which is what gives the paper's Fig. 6 its 80–99 %
/// high-order signed-slice sparsity.
const ACT_OUTLIER_P: f64 = 0.005;
/// Probability that a weight is an outlier.
const WEIGHT_OUTLIER_P: f64 = 0.003;
/// Exact-zero fraction of trained weight tensors (small weights that
/// quantize to zero; the paper's Fig. 6 weight gains imply ≈8 %).
const WEIGHT_ZERO_FRACTION: f64 = 0.08;

/// Outlier magnitude gain for activations, by precision and activation:
/// tensors the paper quantizes to more bits are exactly the heavier-tailed
/// ones (transformer activations with their well-documented extreme outliers
/// need 10/13 bits; conv-net activations fit in 7), while batch-normalized
/// post-ReLU feature maps are well-behaved. Calibrated so the per-order
/// signed-slice sparsities reproduce Fig. 6 (e.g. Albert input 5.1×, YoloV3
/// input 2.1×) and HNPU's sparse-benchmark gains land at the paper's ~2×.
fn act_outlier_gain(p: Precision, activation: Activation) -> f32 {
    let by_bits = match p.bits() {
        0..=8 => 6.0,
        9..=11 => 16.0,
        _ => 24.0,
    };
    match activation {
        Activation::Relu => 2.5,
        // Layer-norm outputs (transformer projections) carry the most
        // extreme outliers at any precision.
        Activation::Identity => f32::max(12.0, by_bits),
        // Leaky-ReLU / ELU squash negatives already; moderate tails at
        // 7-bit (YoloV3, DGCNN), heavier at the 10-bit precisions assigned
        // to wider-ranged dense decoders (MonoDepth2).
        Activation::LeakyRelu { .. } | Activation::Elu { .. } => {
            if p.bits() <= 8 {
                2.0
            } else {
                8.0
            }
        }
        Activation::Gelu => by_bits,
    }
}

/// Outlier magnitude gain for weights, by precision (Fig. 6: Albert weight
/// 6.9×, YoloV3 weight 3.1× over full-bit-width sparsity).
fn weight_outlier_gain(p: Precision) -> f32 {
    match p.bits() {
        0..=8 => 4.0,
        9..=11 => 8.0,
        _ => 9.0,
    }
}

/// Zeroes the smallest-magnitude non-zero codes until at least `want` codes
/// are zero (or every code is). Selection is by counting rather than
/// sorting: a magnitude histogram locates the threshold, then one forward
/// pass zeroes every code strictly below it plus the earliest codes *at* it
/// until the quota is met — exactly the set a stable
/// sort-by-`unsigned_abs` followed by `take(want - zeros)` picks, in O(n)
/// instead of O(n log n). Quantized magnitudes are tiny (≤ the precision's
/// symmetric maximum), so the histogram is a few hundred slots at most.
fn zero_smallest_codes(codes: &mut [i32], want: usize) {
    let zeros = codes.iter().filter(|&&c| c == 0).count();
    if zeros >= want {
        return;
    }
    let need = want - zeros;
    let max_mag = codes.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0) as usize;
    let mut hist = vec![0usize; max_mag + 1];
    for &c in codes.iter() {
        hist[c.unsigned_abs() as usize] += 1;
    }
    if need >= codes.len() - zeros {
        // Quota exceeds the non-zero population: everything goes.
        codes.fill(0);
        return;
    }
    // Smallest magnitude `t` with at least `need` non-zero codes at or
    // below it; `below` counts those strictly below.
    let mut below = 0usize;
    let mut threshold = max_mag;
    for (mag, &count) in hist.iter().enumerate().skip(1) {
        if below + count >= need {
            threshold = mag;
            break;
        }
        below += count;
    }
    let mut at_threshold = need - below;
    for c in codes.iter_mut() {
        let mag = c.unsigned_abs() as usize;
        if mag == 0 || mag > threshold {
            continue;
        }
        if mag < threshold {
            *c = 0;
        } else if at_threshold > 0 {
            *c = 0;
            at_threshold -= 1;
        }
    }
}

/// The indices of `keys` in ascending key order, equal keys in index order:
/// exactly the permutation a stable `sort_by_key` produces, by counting
/// rather than comparing. Keys are block sums of quantized magnitudes
/// (at most four times the precision's symmetric maximum), so the count
/// table stays small.
fn stable_counting_order(keys: &[usize]) -> Vec<usize> {
    let max = keys.iter().copied().max().unwrap_or(0);
    // `start[k]` becomes the first output slot of key `k`.
    let mut start = vec![0usize; max + 2];
    for &k in keys {
        start[k + 1] += 1;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut order = vec![0usize; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        order[start[k]] = i;
        start[k] += 1;
    }
    order
}

impl SynthSource {
    /// Creates a source with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SynthRng::seed_from_u64(seed),
        }
    }

    /// Creates a source whose stream is derived from `(seed, layer_index)`.
    ///
    /// Each layer gets a statistically independent stream that depends only
    /// on the pair — not on how many values earlier layers consumed — so a
    /// network's layers can be synthesized in any order (or concurrently)
    /// and produce tensors bit-identical to a serial walk.
    pub fn for_layer(seed: u64, layer_index: usize) -> Self {
        Self {
            rng: SynthRng::for_stream(seed, layer_index as u64),
        }
    }

    /// Samples a standard-normal value (Marsaglia–Tsang Ziggurat). One
    /// 64-bit draw picks a layer (low 8 bits) and a signed uniform (high 53
    /// bits); about 99 % of draws land inside their layer's rectangle and
    /// return at once. The rest go through the exact wedge test, or, from
    /// the base layer, the exact tail sampler.
    fn normal(&mut self) -> f32 {
        let zig = ziggurat();
        loop {
            let bits = self.rng.next_u64();
            let i = (bits & 0xff) as usize;
            let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                return x as f32;
            }
            if i == 0 {
                return self.normal_tail(u < 0.0) as f32;
            }
            let y = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * self.rng.unit_f64();
            if y < (-0.5 * x * x).exp() {
                return x as f32;
            }
        }
    }

    /// A normal value beyond the base layer's edge `ZIG_R` (Marsaglia's
    /// tail method), with the given sign.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            let x = -(1.0 - self.rng.unit_f64()).ln() / ZIG_R;
            let y = -(1.0 - self.rng.unit_f64()).ln();
            if 2.0 * y > x * x {
                return if negative { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }

    /// Generates quantized weights for `layer`, sampling at most `cap`
    /// values (a statistical sample for very large layers). Weights are
    /// Gaussian with a heavy-tail outlier component, as trained weight
    /// matrices are.
    pub fn weights(&mut self, layer: &Layer, cap: usize) -> QuantTensor {
        let n = layer.kind().weight_len().min(cap.max(1));
        let gain = weight_outlier_gain(layer.weight_precision());
        let mut outliers = OutlierGaps::new(WEIGHT_OUTLIER_P, &mut self.rng);
        let mut data: Vec<f32> = (0..n)
            .map(|_| {
                let w = self.normal();
                if outliers.next(&mut self.rng) {
                    w * gain
                } else {
                    w
                }
            })
            .collect();
        // Pin the quantizer scale to the full tensor's expected maximum so
        // sampled statistics do not depend on the sample size (real
        // calibration sees the whole tensor).
        if let Some(first) = data.first_mut() {
            *first = 4.0 * gain;
        }
        let mut qt = QuantTensor::quantize(&data, Shape::new(&[n]), layer.weight_precision());
        // Ensure the exact-zero mass trained weights carry: zero the
        // smallest-magnitude codes up to the target fraction.
        let want = (WEIGHT_ZERO_FRACTION * n as f64) as usize;
        qt.edit_codes(|codes| zero_smallest_codes(codes, want));
        qt
    }

    /// Generates quantized input activations for `layer` according to its
    /// [`InputProfile`], sampling at most `cap` values.
    pub fn activations(&mut self, layer: &Layer, cap: usize) -> QuantTensor {
        self.activations_with_profile(layer, cap, layer.input_profile())
    }

    /// Generates quantized input activations with an explicit profile.
    pub fn activations_with_profile(
        &mut self,
        layer: &Layer,
        cap: usize,
        profile: InputProfile,
    ) -> QuantTensor {
        let n = layer.kind().input_len().min(cap.max(1));
        let data = match profile {
            InputProfile::PostActivation => self.post_activation_values_with_gain(
                layer.activation(),
                layer.input_sparsity(),
                n,
                act_outlier_gain(layer.input_precision(), layer.activation()),
            ),
            InputProfile::AttentionProb => self.attention_prob_values(n),
        };
        let mut qt = QuantTensor::quantize(&data, Shape::new(&[n]), layer.input_precision());
        // Attention probabilities keep their natural (softmax) zero
        // structure.
        if profile == InputProfile::PostActivation {
            qt.edit_codes(|codes| {
                self.calibrate_sparsity(codes, layer.input_sparsity(), layer.activation())
            });
        }
        qt
    }

    /// Adjusts quantized codes toward the paper's reported full-bit-width
    /// sparsity for the layer: half of any quantization underflow beyond
    /// the target is rescued to ±1 (the nearest non-zero codes; the other
    /// half stays zero because the reported figures are pre-quantization),
    /// a shortfall is filled by zeroing the smallest-magnitude codes.
    /// Calibration keeps the near-zero-dominated magnitude profile that
    /// drives slice sparsity.
    fn calibrate_sparsity(&mut self, codes: &mut [i32], target: f64, activation: Activation) {
        let n = codes.len();
        let want = (target * n as f64).round() as usize;
        let count_zeros = |c: &[i32]| c.iter().filter(|&&v| v == 0).count();
        let cur = count_zeros(codes);
        let nonneg = activation.zeroes_negatives();
        // Calibration works on blocks of four adjacent elements to preserve
        // the spatial clustering of zero regions (whole zero tokens /
        // feature-map patches) — the structure sub-word skipping relies on.
        if cur > want {
            // Rescue *scattered* zeros first (zeros inside non-zero blocks
            // are quantization-underflow noise); intact zero blocks — the
            // clustered zeros sub-word skipping relies on — are only broken
            // if scattered zeros run out. Only half the excess is rescued:
            // the paper's reported "data sparsity" is a pre-quantization
            // figure, and symmetric quantization legitimately underflows
            // additional near-zero values to exact zeros.
            let mut excess = (cur - want) / 2;
            for pass in 0..2 {
                if excess == 0 {
                    break;
                }
                let mut block = 0;
                while excess > 0 && block * 4 < n {
                    let range = block * 4..(block * 4 + 4).min(n);
                    let all_zero = codes[range.clone()].iter().all(|&v| v == 0);
                    let rescue_here = if pass == 0 { !all_zero } else { all_zero };
                    if rescue_here {
                        for i in range {
                            if excess == 0 {
                                break;
                            }
                            if codes[i] == 0 {
                                let sign = if nonneg || self.rng.gen_bool(0.5) {
                                    1
                                } else {
                                    -1
                                };
                                codes[i] = sign;
                                excess -= 1;
                            }
                        }
                    }
                    block += 1;
                }
            }
        } else if cur < want {
            // Zero out whole blocks, smallest block magnitude first.
            let mut need = want - cur;
            let sums: Vec<usize> = codes
                .chunks(4)
                .map(|b| b.iter().map(|&v| v.unsigned_abs() as usize).sum())
                .collect();
            for b in stable_counting_order(&sums) {
                if need == 0 {
                    break;
                }
                for c in &mut codes[b * 4..(b * 4 + 4).min(n)] {
                    if *c != 0 && need > 0 {
                        *c = 0;
                        need -= 1;
                    }
                }
            }
        }
    }

    /// Raw (unquantized) post-activation values.
    ///
    /// Values are generated with short-range spatial correlation (a shared
    /// factor over blocks of four adjacent elements, `ρ ≈ 0.7`), matching
    /// the locality of real feature maps. This correlation is load-bearing:
    /// the PE skips/compresses at *sub-word* (4-slice) granularity, and
    /// i.i.d. data would under-produce all-four-zero sub-words relative to
    /// real activations.
    pub fn post_activation_values(
        &mut self,
        activation: Activation,
        target_sparsity: f64,
        n: usize,
    ) -> Vec<f32> {
        self.post_activation_values_with_gain(activation, target_sparsity, n, 6.0)
    }

    /// [`Self::post_activation_values`] with an explicit outlier gain.
    pub fn post_activation_values_with_gain(
        &mut self,
        activation: Activation,
        target_sparsity: f64,
        n: usize,
        outlier_gain: f32,
    ) -> Vec<f32> {
        const BLOCK: usize = 4;
        const RHO: f32 = 0.85;
        let indep = (1.0 - RHO * RHO).sqrt();
        let mut outliers = OutlierGaps::new(ACT_OUTLIER_P, &mut self.rng);
        let mut out = Vec::with_capacity(n);
        match activation {
            Activation::Relu => {
                // Shift the pre-activation mean so P(x <= 0) hits the
                // target; the marginal stays N(mu, 1) under the shared
                // block factor.
                let mu = -inverse_normal_cdf(target_sparsity.clamp(1e-6, 1.0 - 1e-6)) as f32;
                while out.len() < n {
                    let b = self.normal();
                    for _ in 0..BLOCK.min(n - out.len()) {
                        let mut x = mu + RHO * b + indep * self.normal();
                        if outliers.next(&mut self.rng) {
                            x *= outlier_gain;
                        }
                        out.push(Activation::Relu.apply(x));
                        // Deterministic scale anchor (see weights()).
                        if out.len() == 1 {
                            out[0] = 4.0 * outlier_gain;
                        }
                    }
                }
            }
            act => {
                // Non-ReLU functions keep negatives alive; exact zeros come
                // from quantization underflow, modelled as a per-block
                // mixture (zero regions of a feature map are contiguous).
                while out.len() < n {
                    let zero_block = self.rng.gen_bool(target_sparsity);
                    let b = self.normal();
                    for _ in 0..BLOCK.min(n - out.len()) {
                        if zero_block {
                            out.push(0.0);
                        } else {
                            let mut x = RHO * b + indep * self.normal();
                            if outliers.next(&mut self.rng) {
                                x *= outlier_gain;
                            }
                            out.push(act.apply(x));
                            // Deterministic scale anchor (see weights()).
                            if out.len() == 1 {
                                out[0] = act.apply(4.0 * outlier_gain);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Softmax-row values: `n` probabilities drawn as softmax over Gaussian
    /// logits in rows of 64.
    fn attention_prob_values(&mut self, n: usize) -> Vec<f32> {
        const ROW: usize = 64;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let logits: Vec<f32> = (0..ROW).map(|_| 2.0 * self.normal()).collect();
            let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for e in exps {
                if out.len() < n {
                    out.push(e / sum);
                }
            }
        }
        out
    }

    /// Raw Gaussian values (for ad-hoc experiments).
    pub fn gaussian(&mut self, n: usize, sigma: f32) -> Vec<f32> {
        (0..n).map(|_| self.normal() * sigma).collect()
    }

    /// Quantizes ad-hoc real data at a precision.
    pub fn quantize(&self, data: &[f32], precision: Precision) -> QuantTensor {
        QuantTensor::quantize(data, Shape::new(&[data.len()]), precision)
    }
}

/// Right edge of the Ziggurat's base rectangle: where the normal tail
/// begins (Marsaglia & Tsang 2000, 256 layers).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every Ziggurat layer under the unnormalized density
/// `exp(-x²/2)`, base layer including its tail.
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// Layer edges of the 256-layer Ziggurat: `x[i]` is the width of layer `i`
/// (`x[0] = V / f(R)` for the base layer, `x[1] = R`, falling to
/// `x[256] = 0`), and `f[i] = exp(-x[i]²/2)` the density at that edge.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// The Ziggurat tables, built once on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        // Each layer has area V: x[i] (f(x[i+1]) - f(x[i])) = V.
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    })
}

/// Places outliers in a stream of drawn values. The gap before the next
/// outlier is geometric, `⌊ln(1 − u) / ln(1 − p)⌋`, so each value is an
/// outlier with probability `p` independently, as with one Bernoulli draw
/// per value, but the stream pays one uniform per outlier instead.
struct OutlierGaps {
    /// `ln(1 − p)`.
    ln_keep: f64,
    /// Values still to draw before the next outlier.
    left: u64,
}

impl OutlierGaps {
    /// Gaps for outlier probability `p` in `(0, 1)`.
    fn new(p: f64, rng: &mut SynthRng) -> Self {
        let mut gaps = Self {
            ln_keep: (-p).ln_1p(),
            left: 0,
        };
        gaps.left = gaps.gap(rng);
        gaps
    }

    fn gap(&self, rng: &mut SynthRng) -> u64 {
        ((1.0 - rng.unit_f64()).ln() / self.ln_keep) as u64
    }

    /// Whether the next drawn value is an outlier.
    fn next(&mut self, rng: &mut SynthRng) -> bool {
        if self.left == 0 {
            self.left = self.gap(rng);
            true
        } else {
            self.left -= 1;
            false
        }
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |ε| < 1.15e-9 over (0, 1)).
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p) && p > 0.0 && p < 1.0,
        "p must be in (0,1)"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    #[test]
    fn generation_is_deterministic() {
        let layer = Layer::linear("l", 16, 64, 64);
        let a = SynthSource::new(7).activations(&layer, 512);
        let b = SynthSource::new(7).activations(&layer, 512);
        assert_eq!(a.codes().data(), b.codes().data());
        let c = SynthSource::new(8).activations(&layer, 512);
        assert_ne!(a.codes().data(), c.codes().data());
    }

    #[test]
    fn relu_sparsity_tracks_target() {
        for &target in &[0.2, 0.5, 0.7] {
            let layer = Layer::linear("l", 64, 256, 1)
                .with_activation(Activation::Relu)
                .with_input_sparsity(target);
            let acts = SynthSource::new(1).activations(&layer, 16384);
            assert!(
                (acts.sparsity() - target).abs() < 0.05,
                "target {target} got {}",
                acts.sparsity()
            );
        }
    }

    #[test]
    fn non_relu_sparsity_is_at_least_the_target() {
        let layer = Layer::linear("l", 64, 256, 1)
            .with_activation(Activation::Gelu)
            .with_input_sparsity(0.119);
        let acts = SynthSource::new(2).activations(&layer, 16384);
        // The reported sparsity is a lower bound; quantization underflow of
        // the heavy-tailed GeLU output legitimately adds exact zeros
        // (half of the excess is kept by calibration).
        assert!(acts.sparsity() >= 0.10, "got {}", acts.sparsity());
        assert!(acts.sparsity() <= 0.60, "got {}", acts.sparsity());
    }

    #[test]
    fn elu_activations_are_mostly_small_negatives_below_zero() {
        let mut src = SynthSource::new(3);
        let vals = src.post_activation_values(Activation::ELU_1, 0.0, 8192);
        let negs = vals.iter().filter(|&&x| x < 0.0).count();
        assert!(negs > 3000, "ELU keeps roughly half the mass negative");
        assert!(vals.iter().all(|&x| x > -1.0001), "ELU saturates at -alpha");
    }

    #[test]
    fn attention_probs_are_a_distribution() {
        let layer =
            Layer::linear("av", 64, 64, 64).with_precisions(Precision::BITS7, Precision::BITS7);
        let acts =
            SynthSource::new(4).activations_with_profile(&layer, 4096, InputProfile::AttentionProb);
        let deq = acts.dequantize();
        assert!(deq.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Softmax rows concentrate near zero → lots of near-zero codes.
        let near_zero = acts.codes().data().iter().filter(|&&c| c.abs() < 8).count() as f64
            / acts.codes().len() as f64;
        assert!(near_zero > 0.7, "got {near_zero}");
    }

    #[test]
    fn counting_selection_matches_stable_sort_reference() {
        // The former implementation: stable sort by magnitude, zero the
        // first `want - zeros` non-zero codes. The counting selection must
        // reproduce it exactly, ties and all.
        fn reference(codes: &[i32], want: usize) -> Vec<i32> {
            let mut out = codes.to_vec();
            let zeros = out.iter().filter(|&&c| c == 0).count();
            if zeros < want {
                let mut idx: Vec<usize> = (0..out.len()).filter(|&i| out[i] != 0).collect();
                idx.sort_by_key(|&i| out[i].unsigned_abs());
                for &i in idx.iter().take(want - zeros) {
                    out[i] = 0;
                }
            }
            out
        }

        let mut cases: Vec<Vec<i32>> = vec![
            vec![],
            vec![0, 0, 0],
            vec![5],
            vec![-3, 3, -3, 3, 2, -2, 1, 0, -1],  // heavy ties
            vec![-512, 511, -1, 1, 0, 256, -256], // widest quantized range
        ];
        // Deterministic pseudo-random code vectors in the quantized range.
        let mut x = 0x9e3779b97f4a7c15u64;
        for len in [17usize, 64, 257] {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push(((x >> 40) as i64 % 17 - 8) as i32);
            }
            cases.push(v);
        }
        for codes in &cases {
            for want in [0usize, 1, codes.len() / 3, codes.len(), codes.len() + 7] {
                let mut counted = codes.clone();
                zero_smallest_codes(&mut counted, want);
                assert_eq!(
                    counted,
                    reference(codes, want),
                    "codes={codes:?} want={want}"
                );
            }
        }
    }

    #[test]
    fn counting_order_matches_stable_sort_reference() {
        // The former implementation sorted block indices with a stable
        // `sort_by_key` on the block sums; the counting order must
        // reproduce that permutation exactly, ties and all.
        fn reference(keys: &[usize]) -> Vec<usize> {
            let mut idx: Vec<usize> = (0..keys.len()).collect();
            idx.sort_by_key(|&i| keys[i]);
            idx
        }

        let mut cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![3, 3, 3],
            vec![5, 0, 5, 1, 0, 2, 1],         // heavy ties
            vec![4 * 4095, 0, 4 * 4095, 7, 1], // widest block sums
        ];
        // Deterministic pseudo-random block sums, dense in small values as
        // calibrated activations are.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for len in [17usize, 64, 1025] {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push(((x >> 40) % 4 * ((x >> 20) % 40)) as usize);
            }
            cases.push(v);
        }
        for keys in &cases {
            assert_eq!(
                stable_counting_order(keys),
                reference(keys),
                "keys={keys:?}"
            );
        }
    }

    #[test]
    fn weights_are_roughly_symmetric() {
        let layer = Layer::linear("l", 1, 256, 64);
        let w = SynthSource::new(5).weights(&layer, 16384);
        let pos = w.codes().data().iter().filter(|&&c| c > 0).count() as f64;
        let neg = w.codes().data().iter().filter(|&&c| c < 0).count() as f64;
        assert!((pos / neg - 1.0).abs() < 0.15);
    }

    #[test]
    fn cap_limits_sample_size() {
        let layer = Layer::linear("l", 1000, 1000, 1);
        let acts = SynthSource::new(6).activations(&layer, 128);
        assert_eq!(acts.codes().len(), 128);
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        let zig = ziggurat();
        // Published 256-layer edges (Marsaglia & Tsang 2000).
        assert!((zig.x[0] - 3.910_757_959_537_09).abs() < 1e-12);
        assert!((zig.x[2] - 3.449_278_298_560_964).abs() < 1e-12);
        assert_eq!(zig.x[256], 0.0);
        for i in 1..256 {
            assert!(zig.x[i + 1] < zig.x[i], "edges fall: layer {i}");
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            // The top layer absorbs the rounding of the published V.
            let tol = if i == 255 { 1e-6 } else { 1e-12 };
            assert!((area - ZIG_V).abs() < tol, "layer {i} area {area}");
        }
    }

    #[test]
    fn outlier_gaps_match_the_bernoulli_rate() {
        const DRAWS: u64 = 1 << 22;
        for p in [WEIGHT_OUTLIER_P, ACT_OUTLIER_P] {
            let mut rng = SynthRng::seed_from_u64(17);
            let mut gaps = OutlierGaps::new(p, &mut rng);
            let hits = (0..DRAWS).filter(|_| gaps.next(&mut rng)).count() as f64;
            let rate = hits / DRAWS as f64;
            // Five binomial standard errors: ≈ 3.5e-5 at p = 0.005.
            let tol = 5.0 * (p * (1.0 - p) / DRAWS as f64).sqrt();
            assert!((rate - p).abs() < tol, "p {p}: rate {rate} ± {tol}");
        }
    }

    #[test]
    fn inverse_cdf_matches_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959_964).abs() < 1e-4);
    }
}
