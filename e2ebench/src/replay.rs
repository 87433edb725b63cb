//! The traced replay: one fig10 grid row by row on a single thread, with a
//! span around every call into a layer's public function, recorded in a
//! benchmark-local [`Tracer`] (the process-global tracer stays off).
//!
//! Span taxonomy (one span per call):
//!
//! * `synth` — `Simulator::synthesize_layer` (tensor synthesis, `nn::synth`);
//! * `measure` — `Simulator::decompose_layer` for one layer under one
//!   representation: the library's own path into `OperandStats::measure`
//!   (plane split, `PlaneStats::measure_plane` per plane, value groups),
//!   including its `DecompCache` lookup;
//! * `kernel_probe` — after a `measure` that computed, the same planes are
//!   split again outside that span, and its child
//! * `kernels` times `PlaneStats::measure_plane` over them (the
//!   runtime-dispatched kernel tier). The probe's counts must equal the
//!   library's, and the kernel time it measures is what `measure.self_s`
//!   excludes;
//! * `model` — `Simulator::simulate_network_from_decomps` for one cell: the
//!   per-layer cycle model (`simulate_layer_from`) plus energy assembly.
//!
//! Codec and store probes run after the replay, on its results.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sibia_nn::{Layer, Network};
use sibia_obs::{Json, SpanRecord, Tracer};
use sibia_sim::cache::{LayerDecomp, LayerTensors, PlaneStats};
use sibia_sim::{
    network_key, network_result_from_json, network_result_to_json, ArchSpec, DecompCache,
    GridResult, NetworkResult, Repr, Simulator,
};
use sibia_store::Store;

use crate::report::Report;
use crate::sys;

/// Span buffer large enough that a replay never evicts: the tracer stripes
/// by thread and the replay records on one thread, so one stripe
/// (capacity / 16) must hold every span.
const TRACE_CAPACITY: usize = 16 * 65_536;

/// Allowed distance of `trace.coverage` from 1.0.
pub const COVERAGE_SLACK: f64 = 0.05;

/// One replayed grid.
pub struct Replay {
    /// `results[arch][network]`.
    pub results: Vec<Vec<NetworkResult>>,
    /// Wall time of the whole replay.
    pub wall: Duration,
    /// Values synthesized (input plus weight codes).
    pub values: u64,
    /// Slice digits counted by the kernel probe.
    pub digits: u64,
    /// Operands whose kernel-probe counts differ from the library's.
    pub probe_mismatches: u64,
}

/// Re-splits both operands of a freshly measured layer and times the
/// kernel tier on the planes, outside the `measure` span. Returns the
/// digits counted and how many operands' counts differ from `decomp`.
fn kernel_probe(
    tracer: &Tracer,
    tensors: &LayerTensors,
    layer: &Layer,
    repr: Repr,
    decomp: &LayerDecomp,
) -> (u64, u64) {
    let _span = tracer.span("kernel_probe");
    let (mut digits, mut mismatches) = (0u64, 0u64);
    for (codes, precision, library) in [
        (&tensors.input_codes, layer.input_precision(), &decomp.input),
        (
            &tensors.weight_codes,
            layer.weight_precision(),
            &decomp.weight,
        ),
    ] {
        let planes = match repr {
            Repr::Sbr => sibia_sbr::sbr::planes(codes, precision),
            Repr::Conventional => sibia_sbr::conv::planes(codes, precision),
        };
        let stats: Vec<PlaneStats> = {
            let _span = tracer.span("kernels");
            planes
                .iter()
                .map(|p| PlaneStats::measure_plane(p))
                .collect()
        };
        digits += planes.iter().map(|p| p.len() as u64).sum::<u64>();
        if stats != library.planes {
            mismatches += 1;
        }
    }
    (digits, mismatches)
}

/// Replays the fig10 grid of one seed; spans land in `tracer` when it is
/// enabled, and cost one atomic load each when it is not.
pub fn replay(tracer: &Tracer, seed: u64, archs: &[ArchSpec], nets: &[Network]) -> Replay {
    let sim = Simulator::new(seed);
    let cache = DecompCache::new();
    let mut reprs: Vec<Repr> = Vec::new();
    for arch in archs {
        if !reprs.contains(&arch.repr) {
            reprs.push(arch.repr);
        }
    }
    let (mut values, mut digits, mut probe_mismatches) = (0u64, 0u64, 0u64);
    let mut results: Vec<Vec<NetworkResult>> = vec![Vec::with_capacity(nets.len()); archs.len()];
    let started = Instant::now();
    let root = tracer.span("replay");
    for net in nets {
        let mut decomps: Vec<Vec<Arc<LayerDecomp>>> = vec![Vec::new(); reprs.len()];
        for (i, layer) in net.layers().iter().enumerate() {
            let tensors = {
                let _span = tracer.span("synth");
                sim.synthesize_layer(layer, i, &cache)
            };
            values += (tensors.input_codes.len() + tensors.weight_codes.len()) as u64;
            for (ri, &repr) in reprs.iter().enumerate() {
                // The tensors are cached, so a decomposition miss is the
                // only miss `decompose_layer` can add.
                let misses = cache.misses();
                let decomp = {
                    let _span = tracer.span("measure");
                    sim.decompose_layer(layer, i, repr, &cache)
                };
                if cache.misses() > misses {
                    let (d, bad) = kernel_probe(tracer, &tensors, layer, repr, &decomp);
                    digits += d;
                    probe_mismatches += bad;
                }
                decomps[ri].push(decomp);
            }
        }
        for (ai, arch) in archs.iter().enumerate() {
            let ri = reprs
                .iter()
                .position(|&r| r == arch.repr)
                .expect("every arch's repr was collected");
            let _span = tracer.span("model");
            results[ai].push(sim.simulate_network_from_decomps(arch, net, None, &decomps[ri]));
        }
    }
    drop(root);
    Replay {
        results,
        wall: started.elapsed(),
        values,
        digits,
        probe_mismatches,
    }
}

/// Checks a replay against the grid engine's cells at `seed_index`: every
/// replayed cell must equal the engine's, and every kernel-probe count the
/// library's. A differing cell counts as a failed op.
pub fn check(r: &Replay, grid: &GridResult, seed_index: usize, what: &str, rep: &mut Report) {
    let mut bad = 0;
    for (ai, row) in r.results.iter().enumerate() {
        for (ni, result) in row.iter().enumerate() {
            if grid.get(ai, ni, seed_index) != result {
                bad += 1;
            }
        }
    }
    if bad > 0 {
        rep.failed += bad;
        rep.problem(format!("{bad} {what} replay cells differ from the grid"));
    }
    if r.probe_mismatches > 0 {
        rep.problem(format!(
            "{} {what} kernel-probe operands differ from OperandStats::measure",
            r.probe_mismatches
        ));
    }
}

/// Per span name: calls, total µs, self µs (duration minus the part its
/// child spans cover).
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTime {
    pub calls: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Aggregates self times by span name.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<String, SpanTime> {
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if let Some(p) = r.parent {
            *child_us.entry(p).or_default() += r.dur_us;
        }
    }
    let mut out: BTreeMap<String, SpanTime> = BTreeMap::new();
    for r in records {
        let t = out.entry(r.name.clone()).or_default();
        t.calls += 1;
        t.total_us += r.dur_us;
        t.self_us += r
            .dur_us
            .saturating_sub(child_us.get(&r.id).copied().unwrap_or(0));
    }
    out
}

/// Times the JSON codec on every replayed cell: encode is
/// `network_result_to_json` plus serialization, decode is `Json::parse`
/// plus `network_result_from_json`. Returns (encode µs, decode µs, mean
/// document bytes), medians over three passes.
fn codec_probe(tracer: &Tracer, cells: &[&NetworkResult], rep: &mut Report) -> (f64, f64, f64) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for pass in 0..3 {
        for &cell in cells {
            let t = Instant::now();
            let text = {
                let _span = tracer.span("codec.encode");
                network_result_to_json(cell).to_string()
            };
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let back = {
                let _span = tracer.span("codec.decode");
                Json::parse(&text)
                    .ok()
                    .and_then(|j| network_result_from_json(&j))
            };
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            if pass == 0 {
                bytes += text.len();
                if back.as_ref() != Some(cell) {
                    rep.problem(format!(
                        "codec round trip changed {}/{}",
                        cell.arch, cell.network
                    ));
                }
            }
        }
    }
    (
        sys::median(&enc),
        sys::median(&dec),
        bytes as f64 / cells.len() as f64,
    )
}

/// Times `Store::put` and `Store::get` of every replayed cell on a scratch
/// store. Returns (put µs, get µs), medians.
fn store_probe(
    tracer: &Tracer,
    seed: u64,
    archs: &[ArchSpec],
    replay: &Replay,
    rep: &mut Report,
) -> (f64, f64) {
    let dir = sys::scratch_dir("probe-store");
    let store = Store::open(&dir).expect("open scratch store");
    let sim = Simulator::new(seed);
    let (mut put, mut get) = (Vec::new(), Vec::new());
    for (arch, row) in archs.iter().zip(&replay.results) {
        for cell in row {
            let key = network_key(&sim, arch, &cell.network);
            let value = network_result_to_json(cell);
            let t = Instant::now();
            let stored = {
                let _span = tracer.span("store.put");
                store.put(&key, &value)
            };
            put.push(t.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = stored {
                rep.problem(format!("scratch store put failed: {e}"));
            }
            let t = Instant::now();
            let read = {
                let _span = tracer.span("store.get");
                store.get(&key)
            };
            get.push(t.elapsed().as_secs_f64() * 1e6);
            if read.as_ref() != Some(&value) {
                rep.problem(format!("scratch store read back a different {key:?}"));
            }
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (sys::median(&put), sys::median(&get))
}

/// The per-layer half of a `--trace 1` run: untraced and traced replays of
/// the grid of `seed` (each checked against `grid` at `seed_index`),
/// the codec and store probes, the self-time table on stdout and the
/// Chrome trace in the output directory.
pub fn trace_layers(
    tag: &str,
    seed: u64,
    archs: &[ArchSpec],
    nets: &[Network],
    grid: &GridResult,
    seed_index: usize,
    rep: &mut Report,
) {
    // The first untraced replay warms the allocator; the overhead compares
    // the traced replay with the untraced one that follows it.
    let warm_up = replay(&Tracer::new(), seed, archs, nets);
    let tracer = Tracer::with_capacity(TRACE_CAPACITY);
    tracer.enable();
    let traced = replay(&tracer, seed, archs, nets);
    let plain = replay(&Tracer::new(), seed, archs, nets);
    for (what, r) in [
        ("untraced", &warm_up),
        ("traced", &traced),
        ("untraced", &plain),
    ] {
        check(r, grid, seed_index, what, rep);
    }
    let cells: Vec<&NetworkResult> = traced.results.iter().flatten().collect();
    let (encode_us, decode_us, bytes) = codec_probe(&tracer, &cells, rep);
    let (put_us, get_us) = store_probe(&tracer, seed, archs, &traced, rep);
    tracer.disable();
    if tracer.dropped() > 0 {
        rep.problem(format!("tracer dropped {} spans", tracer.dropped()));
    }

    let records = tracer.records();
    let times = self_times(&records);
    let total_s = |name: &str| times.get(name).map_or(0, |t| t.total_us) as f64 / 1e6;
    let self_s = |name: &str| times.get(name).map_or(0, |t| t.self_us) as f64 / 1e6;
    // The kernel probe re-runs the kernels of every computed `measure`
    // outside it: measurement self time is the `measure` spans minus the
    // probe's kernel time, and the probe itself is not replay work.
    let kernels = total_s("kernels");
    let measure = (total_s("measure") - kernels).max(0.0);
    let wall_s = total_s("replay") - total_s("kernel_probe");
    let covered = self_s("synth") + measure + kernels + self_s("model");
    let coverage = sys::ratio(covered, wall_s);
    if (coverage - 1.0).abs() > COVERAGE_SLACK {
        rep.problem(format!(
            "trace coverage {coverage:.4} is outside 1 ± {COVERAGE_SLACK}"
        ));
    }
    rep.set("synth.self_s", self_s("synth"));
    rep.set("synth.share", sys::ratio(self_s("synth"), wall_s));
    rep.set(
        "synth.ns_per_value",
        sys::ratio(self_s("synth") * 1e9, traced.values as f64),
    );
    rep.set("measure.self_s", measure);
    rep.set("measure.share", sys::ratio(measure, wall_s));
    rep.set("kernels.self_s", kernels);
    rep.set(
        "kernels.digits_per_ns",
        sys::ratio(traced.digits as f64, kernels * 1e9),
    );
    rep.set("model.self_s", self_s("model"));
    rep.set("model.share", sys::ratio(self_s("model"), wall_s));
    rep.set("codec.encode_us", encode_us);
    rep.set("codec.decode_us", decode_us);
    rep.set("codec.bytes", bytes);
    rep.set("store.put_us", put_us);
    rep.set("store.get_us", get_us);
    rep.set("trace.coverage", coverage);
    rep.set(
        "trace.overhead",
        sys::ratio(traced.wall.as_secs_f64(), plain.wall.as_secs_f64()),
    );

    println!(
        "traced replay of the fig10 grid, seed {seed}: {:.3} s traced, {:.3} s untraced, {} spans, 0 dropped",
        traced.wall.as_secs_f64(),
        plain.wall.as_secs_f64(),
        records.len()
    );
    println!(
        "  {:<14} {:>7} {:>11} {:>11} {:>7}",
        "span", "calls", "total_ms", "self_ms", "share"
    );
    for (name, t) in &times {
        println!(
            "  {:<14} {:>7} {:>11.3} {:>11.3} {:>7.4}",
            name,
            t.calls,
            t.total_us as f64 / 1e3,
            t.self_us as f64 / 1e3,
            sys::ratio(t.self_us as f64 / 1e6, wall_s)
        );
    }
    println!(
        "  measure self {:.3} ms (measure total minus kernels); share = of the replay wall without kernel_probe, {:.3} ms",
        measure * 1e3,
        wall_s * 1e3
    );
    println!("  coverage {coverage:.4} (synth + measure + kernels + model over that wall; codec and store probes excluded)");

    let path = sys::out_dir().join(format!("{tag}-seed{seed}.trace.jsonl"));
    write_trace(&path, &tracer.export_chrome());
}

fn write_trace(path: &Path, chrome: &str) {
    match std::fs::write(path, chrome) {
        Ok(()) => println!("  chrome trace: {}", path.display()),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
    }
}
