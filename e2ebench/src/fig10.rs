//! `fig10-cold`: the parallel grid engine over the fig10 grid (5 archs ×
//! 7 dense networks × 1 fresh seed per grid), a fresh `DecompCache` per
//! grid, engine threads = `nproc`. A request is one cell result; its
//! latency is the time from the grid call to the moment the cell lands
//! (reported by the engine's per-cell observer).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use sibia_nn::{zoo, Network};
use sibia_obs::Tracer;
use sibia_sim::{DecompCache, ParallelEngine, Simulator};

use crate::grid_seed;
use crate::paper::{arch_specs, fig10_err_pct};
use crate::replay;
use crate::report::Report;
use crate::sys;

/// Set-up (zoo build, engine creation) takes about 0.1 ms, too little to
/// time one at a time, so a batch of `SETUP_BATCH` runs after each grid
/// and its mean is one sample. The host's speed drifts over a run, so the
/// batches are spread over the whole run and their median counts.
const SETUP_BATCH: usize = 100;

/// One set-up: the networks and the engine.
fn set_up() -> (Vec<Network>, ParallelEngine) {
    (zoo::dense_benchmarks(), ParallelEngine::new())
}

/// Mean seconds of one set-up over a batch.
fn time_setup_batch() -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        drop(set_up());
    }
    t.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

pub fn run(seed: u64, seconds: u64, trace: bool, rep: &mut Report) {
    let (nets, engine) = set_up();
    let mut setup = Vec::new();
    let archs = arch_specs();
    let cells_per_grid = archs.len() * nets.len();

    let mut walls = Vec::new();
    let mut cell_ms: Vec<f64> = Vec::new();
    let mut utils = Vec::new();
    let mut cpu_per_cell = Vec::new();
    let mut errs = Vec::new();
    let mut first = None;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut g = 0u64;
    while g == 0 || Instant::now() < deadline {
        let s = grid_seed(seed, g);
        let cache = DecompCache::new();
        let cpu = sys::process_cpu();
        let landed = Mutex::new(Vec::with_capacity(cells_per_grid));
        let t = Instant::now();
        let observe = |_: &sibia_sim::GridCell| {
            let ms = t.elapsed().as_secs_f64() * 1e3;
            landed.lock().expect("observer lock").push(ms);
        };
        let grid = engine.simulate_grid_observed(
            &Simulator::new(s),
            &archs,
            &nets,
            &[s],
            &cache,
            None,
            &observe,
        );
        let wall = t.elapsed().as_secs_f64();
        cell_ms.extend(landed.into_inner().expect("observer lock"));
        let busy = (sys::process_cpu() - cpu).as_secs_f64();
        walls.push(wall);
        utils.push(busy / (wall * engine.threads() as f64));
        cpu_per_cell.push(busy / cells_per_grid as f64);
        errs.push(fig10_err_pct(&grid, 1));
        rep.attempted += cells_per_grid as u64;
        if first.is_none() {
            first = Some((s, grid, cache.hits(), cache.misses(), cache.hit_rate()));
        }
        drop(cache);
        // Set-up is timed on the heap the grid just freed, so the sample
        // is the work of set-up, not the page faults of a trimmed heap.
        setup.push(time_setup_batch());
        // Every grid starts from a heap without the last grid's free pages.
        sys::trim_heap();
        g += 1;
    }
    rep.set("peak_rss_mb", sys::peak_rss_mb());
    let (s0, grid0, hits, misses, hit_rate) = first.expect("at least one grid");

    // Medians over grids: the host's speed varies from second to second,
    // and a median ignores the grids a burst of contention slowed.
    let grid_s = sys::median(&walls);
    let cells_per_s = cells_per_grid as f64 / grid_s;
    cell_ms.sort_by(f64::total_cmp);
    rep.set("cells_per_s", cells_per_s);
    rep.set("req_per_s", cells_per_s);
    rep.set("req_p50_ms", sys::quantile(&cell_ms, 0.5));
    rep.set("req_p99_ms", sys::quantile(&cell_ms, 0.99));
    rep.set("cpu_ms_per_op", sys::median(&cpu_per_cell) * 1e3);
    rep.set("setup_s", sys::median(&setup));
    rep.set(
        "fig10_err_pct",
        errs.iter().sum::<f64>() / errs.len() as f64,
    );
    println!(
        "fig10-cold: {} grids of {cells_per_grid} cells on {} threads, median grid {:.3} s",
        walls.len(),
        engine.threads(),
        grid_s
    );

    rep.set("cache.hits", hits as f64);
    rep.set("cache.misses", misses as f64);
    rep.set("cache.hit_ratio", hit_rate);
    rep.set("grid.thread_util", sys::median(&utils));

    if trace {
        // The first grid again, cold then warm over one cache: the warm
        // pass is all cache hits.
        let sim = Simulator::new(s0);
        let cache = DecompCache::new();
        engine.simulate_grid_cached(&sim, &archs, &nets, &[s0], &cache);
        let t = Instant::now();
        let warm = engine.simulate_grid_cached(&sim, &archs, &nets, &[s0], &cache);
        rep.set("cache.warm_pass_ms", t.elapsed().as_secs_f64() * 1e3);
        if warm != grid0 {
            rep.problem("warm pass over the cache changed the grid".to_owned());
        }
        drop(cache);
        replay::trace_layers("fig10-cold", s0, &archs, &nets, &grid0, 0, rep);
    } else {
        let r = replay::replay(&Tracer::new(), s0, &archs, &nets);
        replay::check(&r, &grid0, 0, "untraced", rep);
    }
}
