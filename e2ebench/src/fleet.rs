//! `fleet-cold`: two in-process reactor backends (1 worker, 1 engine
//! thread, a fresh store each) behind a `Fleet` with one connection per
//! backend, sweeping 5 archs × 7 dense networks × 2 fresh seeds per sweep.
//! Every sweep gets fresh backends and a fresh `Fleet`, so it is cold by
//! construction; their start is the sweep's set-up sample. A request is one
//! sweep, the call a fleet user waits on; per-cell dispatch latencies are
//! per-layer metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sibia_fleet::{Fleet, FleetConfig, SweepStats};
use sibia_nn::zoo;
use sibia_serve::{ServeConfig, Server};
use sibia_sim::{grid_to_json, DecompCache, ParallelEngine, Simulator};

use crate::grid_seed;
use crate::paper::{arch_specs, fig10_err_pct, ARCHS, NETWORKS};
use crate::replay;
use crate::report::Report;
use crate::serve::DaemonCounters;
use crate::sys;

const BACKENDS: usize = 2;
const SEEDS_PER_SWEEP: u64 = 2;

struct Backends {
    servers: Vec<Server>,
    dirs: Vec<PathBuf>,
}

impl Backends {
    fn start(tag: &str) -> Self {
        let mut servers = Vec::new();
        let mut dirs = Vec::new();
        for b in 0..BACKENDS {
            let dir = sys::scratch_dir(&format!("{tag}-b{b}"));
            servers.push(
                Server::start(ServeConfig {
                    reactor: true,
                    workers: 1,
                    engine_threads: 1,
                    store_dir: Some(dir.clone()),
                    ..ServeConfig::default()
                })
                .expect("start a fleet backend"),
            );
            dirs.push(dir);
        }
        Self { servers, dirs }
    }

    fn endpoints(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    /// Summed counters of every backend; `None` if any cannot be read.
    fn counters(&self) -> Option<Vec<DaemonCounters>> {
        self.servers
            .iter()
            .map(|s| DaemonCounters::read(s.addr()))
            .collect()
    }

    fn stop(self) {
        for s in self.servers {
            s.shutdown();
        }
        for d in self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

struct Sweep {
    seeds: Vec<u64>,
    wall: f64,
    cpu: f64,
    doc: String,
    stats: SweepStats,
}

/// One set-up: fresh backends, a fleet over them, and the seconds they took.
fn set_up(tag: &str) -> (Backends, Fleet, f64) {
    let t = Instant::now();
    let backends = Backends::start(tag);
    let mut config = FleetConfig::new(backends.endpoints());
    config.connections_per_backend = 1;
    let fleet = Fleet::new(config).expect("fleet over the local backends");
    (backends, fleet, t.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: u64, trace: bool, rep: &mut Report) {
    let mut setup = Vec::new();
    let archs: Vec<String> = ARCHS.iter().map(|s| s.to_string()).collect();
    let nets: Vec<String> = NETWORKS.iter().map(|s| s.to_string()).collect();
    let cells_per_sweep = archs.len() * nets.len() * SEEDS_PER_SWEEP as usize;
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut daemon = DaemonCounters::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let mut k = 0u64;
    while k == 0 || Instant::now() < deadline {
        let (backends, fleet, secs) = set_up(&format!("fleet{k}"));
        setup.push(secs);
        let seeds: Vec<u64> = (0..SEEDS_PER_SWEEP)
            .map(|i| grid_seed(seed, k * SEEDS_PER_SWEEP + i))
            .collect();
        k += 1;
        rep.attempted += cells_per_sweep as u64;
        let before = backends.counters();
        let cpu = sys::process_cpu();
        let t = Instant::now();
        let outcome = fleet.sweep_with_stats(&archs, &nets, &seeds, None);
        let wall = t.elapsed().as_secs_f64();
        let cpu = (sys::process_cpu() - cpu).as_secs_f64();
        let mut misses = 0;
        match (before, backends.counters()) {
            (Some(b), Some(a)) => {
                for (b, a) in b.iter().zip(&a) {
                    misses += a.cache_misses.saturating_sub(b.cache_misses);
                    daemon.add_delta(b, a);
                }
            }
            _ => rep.problem("backend metrics could not be read".into()),
        }
        drop(fleet);
        backends.stop();
        sys::trim_heap();
        match outcome {
            Ok((doc, stats)) => {
                println!(
                    "  sweep {k}: {wall:.3} s, cpu {cpu:.3} s, {} steals, {misses} backend cache misses, cells per backend {:?}",
                    stats.steals, stats.per_backend_cells
                );
                sweeps.push(Sweep {
                    seeds,
                    wall,
                    cpu,
                    doc: doc.to_string(),
                    stats,
                });
            }
            Err(e) => {
                eprintln!("e2ebench: fleet sweep failed: {e}");
                rep.failed += cells_per_sweep as u64;
            }
        }
    }
    let window = started.elapsed().as_secs_f64();
    rep.set("peak_rss_mb", sys::peak_rss_mb());
    if sweeps.is_empty() {
        rep.problem("no fleet sweep completed".into());
        return;
    }

    // Check every merged document against the library grid of the same
    // cells, and count the library's synthesis misses for the same cells.
    let specs = arch_specs();
    let networks = zoo::dense_benchmarks();
    let engine = ParallelEngine::new();
    let mut lib_misses = 0u64;
    let mut errs = Vec::new();
    let mut first_grid = None;
    for sweep in &sweeps {
        let cache = DecompCache::new();
        let grid = engine.simulate_grid_cached(
            &Simulator::new(sweep.seeds[0]),
            &specs,
            &networks,
            &sweep.seeds,
            &cache,
        );
        lib_misses += cache.misses();
        errs.push(fig10_err_pct(&grid, sweep.seeds.len()));
        if grid_to_json(&grid).to_string() != sweep.doc {
            rep.failed += cells_per_sweep as u64;
            rep.problem(format!(
                "merged fleet document for seeds {:?} differs from grid_to_json of the library grid",
                sweep.seeds
            ));
        }
        if first_grid.is_none() {
            first_grid = Some(grid);
        }
    }

    // Medians over sweeps: the host's speed varies from second to second,
    // and a median ignores the sweeps a burst of contention slowed.
    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall).collect();
    let sweep_s = sys::median(&walls);
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let cpus: Vec<f64> = sweeps.iter().map(|s| s.cpu).collect();
    let n = sweeps.len() as f64;
    let mut cell_ms: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.stats.cell_latencies.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    println!(
        "fleet-cold: {BACKENDS} backends, {} sweeps of {cells_per_sweep} cells in {window:.3} s, median sweep {sweep_s:.3} s",
        sweeps.len()
    );
    rep.set("cells_per_s", cells_per_sweep as f64 / sweep_s);
    rep.set("req_per_s", 1.0 / sweep_s);
    rep.set("req_p50_ms", sweep_s * 1e3);
    rep.set("req_p99_ms", sys::quantile(&sorted, 0.99) * 1e3);
    rep.set(
        "cpu_ms_per_op",
        sys::median(&cpus) * 1e3 / cells_per_sweep as f64,
    );
    rep.set("setup_s", sys::median(&setup));
    rep.set(
        "fig10_err_pct",
        errs.iter().sum::<f64>() / errs.len() as f64,
    );
    rep.set(
        "grid.thread_util",
        cpus.iter().sum::<f64>() / (walls.iter().sum::<f64>() * sys::nproc() as f64),
    );

    // Dispatch statistics, per sweep.
    let sum = |f: fn(&SweepStats) -> u64| sweeps.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    let cells_done = sum(|s| s.cells as u64);
    rep.set("fleet.attempts_per_cell", sum(|s| s.attempts) / cells_done);
    rep.set("fleet.retries", sum(|s| s.retries) / n);
    rep.set("fleet.steals", sum(|s| s.steals) / n);
    rep.set("fleet.hedges", sum(|s| s.hedges) / n);
    rep.set("fleet.hedge_duplicates", sum(|s| s.hedge_duplicates) / n);
    let mut per_backend = [0u64; BACKENDS];
    for s in &sweeps {
        for (total, &c) in per_backend.iter_mut().zip(&s.stats.per_backend_cells) {
            *total += c;
        }
    }
    let (max, min) = (
        per_backend.iter().copied().max().unwrap_or(0),
        per_backend.iter().copied().min().unwrap_or(0),
    );
    rep.set("fleet.balance", max as f64 / min.max(1) as f64);
    rep.set("fleet.cell_p50_ms", sys::quantile(&cell_ms, 0.5));
    rep.set("fleet.cell_tail_ms", sys::tail(&cell_ms));
    rep.set(
        "fleet.synth_dup_ratio",
        sys::ratio(daemon.cache_misses as f64, lib_misses as f64),
    );
    daemon.report(rep);
    rep.set("store.puts", daemon.store_puts as f64 / n);
    rep.set(
        "store.bytes_appended",
        daemon.store_bytes_appended as f64 / n,
    );

    if trace {
        let grid = first_grid.expect("at least one sweep");
        replay::trace_layers(
            "fleet-cold",
            sweeps[0].seeds[0],
            &specs,
            &networks,
            &grid,
            0,
            rep,
        );
    }
}
