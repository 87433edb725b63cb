//! `serve-warm`: one in-process reactor daemon with a store directory,
//! primed during set-up with every cell it will be asked for; then `nproc`
//! closed-loop clients cycle `simulate` requests over the primed cells,
//! with every eighth request a one-row `sweep`. The one-in-eight share is
//! an assumption, not measured traffic: the repo's daemon callers do not
//! fix one (the fleet coordinator sends only per-cell `simulate`s, the
//! CLI `sweep` verb only whole sweeps).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sibia_nn::zoo;
use sibia_obs::Json;
use sibia_serve::{Client, ServeConfig, Server};
use sibia_sim::{
    grid_to_json, network_result_to_json, DecompCache, GridResult, ParallelEngine, Simulator,
};

use crate::grid_seed;
use crate::paper::{arch_specs, fig10_err_pct, ARCHS, NETWORKS};
use crate::replay;
use crate::report::Report;
use crate::sys;

/// Set-up (daemon start plus a cold priming grid) repeats; the median counts.
const SETUP_REPEATS: usize = 3;

/// Every `SWEEP_EVERY`-th request of a client is a one-row sweep (an
/// assumed share; see the module docs).
const SWEEP_EVERY: u64 = 8;

/// Every `DECODE_SAMPLE`-th request (a `simulate`) has its reply
/// serialized and parsed again to time client-side decoding.
const DECODE_SAMPLE: u64 = 16;

/// Cumulative daemon counters read from the `metrics` verb.
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonCounters {
    /// (observations, total µs) of the queue-wait, compute, serialize and
    /// total-latency histograms.
    pub queue_wait: (u64, u64),
    pub compute: (u64, u64),
    pub serialize: (u64, u64),
    pub latency: (u64, u64),
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_puts: u64,
    pub store_bytes_appended: u64,
}

fn num(v: Option<&Json>) -> u64 {
    v.and_then(Json::as_u64).unwrap_or(0)
}

fn hist(m: &Json, path: &[&str]) -> (u64, u64) {
    let h = path.iter().try_fold(m, |v, k| v.get(k));
    (
        num(h.and_then(|h| h.get("count"))),
        num(h.and_then(|h| h.get("total_us"))),
    )
}

impl DaemonCounters {
    /// Reads the daemon's counters; `None` if the `metrics` call fails.
    pub fn read(addr: SocketAddr) -> Option<Self> {
        let m = Client::connect(addr).ok()?.metrics().ok()?;
        let cache = m.get("cache");
        let store = m.get("store");
        Some(Self {
            queue_wait: hist(&m, &["phases_ms", "queue_wait"]),
            compute: hist(&m, &["phases_ms", "compute"]),
            serialize: hist(&m, &["phases_ms", "serialize"]),
            latency: hist(&m, &["latency_ms"]),
            cache_hits: num(cache.and_then(|c| c.get("hits"))),
            cache_misses: num(cache.and_then(|c| c.get("misses"))),
            store_hits: num(store.and_then(|s| s.get("hits"))),
            store_misses: num(store.and_then(|s| s.get("misses"))),
            store_puts: num(store.and_then(|s| s.get("puts"))),
            store_bytes_appended: num(store.and_then(|s| s.get("bytes_appended"))),
        })
    }

    /// Accumulates `after - before` into `self`.
    pub fn add_delta(&mut self, before: &Self, after: &Self) {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let dh = |a: (u64, u64), b: (u64, u64)| (d(a.0, b.0), d(a.1, b.1));
        let sum = |x: (u64, u64), y: (u64, u64)| (x.0 + y.0, x.1 + y.1);
        self.queue_wait = sum(self.queue_wait, dh(after.queue_wait, before.queue_wait));
        self.compute = sum(self.compute, dh(after.compute, before.compute));
        self.serialize = sum(self.serialize, dh(after.serialize, before.serialize));
        self.latency = sum(self.latency, dh(after.latency, before.latency));
        self.cache_hits += d(after.cache_hits, before.cache_hits);
        self.cache_misses += d(after.cache_misses, before.cache_misses);
        self.store_hits += d(after.store_hits, before.store_hits);
        self.store_misses += d(after.store_misses, before.store_misses);
        self.store_puts += d(after.store_puts, before.store_puts);
        self.store_bytes_appended += d(after.store_bytes_appended, before.store_bytes_appended);
    }

    /// Mean of a (count, total µs) histogram delta, in ms.
    pub fn mean_ms(h: (u64, u64)) -> f64 {
        sys::ratio(h.1 as f64, h.0 as f64) / 1e3
    }

    /// Records the daemon-side per-layer metrics shared by the serve and
    /// fleet workloads: phase means, cache and store-read counts.
    pub fn report(&self, rep: &mut Report) {
        rep.set("serve.queue_wait_ms", Self::mean_ms(self.queue_wait));
        rep.set("serve.compute_ms", Self::mean_ms(self.compute));
        rep.set("serve.serialize_ms", Self::mean_ms(self.serialize));
        rep.set("cache.hits", self.cache_hits as f64);
        rep.set("cache.misses", self.cache_misses as f64);
        rep.set(
            "cache.hit_ratio",
            sys::ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
        );
        rep.set(
            "store.read_hit_ratio",
            sys::ratio(
                self.store_hits as f64,
                (self.store_hits + self.store_misses) as f64,
            ),
        );
    }
}

/// What the daemon must answer: one document per cell (`[arch][network]`)
/// and one per one-row sweep (`[network]`), serialized by the library and
/// parsed back once here. A reply, which the client parses from the
/// daemon's bytes, must equal it as a `Json` value (the same members in the
/// same order, the same numbers), so the check costs the clients no
/// serialization.
struct Expected {
    cells: Vec<Vec<Json>>,
    rows: Vec<Json>,
    full: Json,
}

/// A document as a client sees it: serialized, then parsed.
fn reparse(doc: &Json) -> Json {
    Json::parse(&doc.to_string()).expect("the library serializes valid JSON")
}

fn expected(seed: u64) -> (Expected, GridResult) {
    let archs = arch_specs();
    let nets = zoo::dense_benchmarks();
    let sim = Simulator::new(seed);
    let cache = DecompCache::new();
    let engine = ParallelEngine::new();
    let grid = engine.simulate_grid_cached(&sim, &archs, &nets, &[seed], &cache);
    let cells = (0..archs.len())
        .map(|ai| {
            (0..nets.len())
                .map(|ni| reparse(&network_result_to_json(grid.get(ai, ni, 0))))
                .collect()
        })
        .collect();
    let rows = nets
        .iter()
        .map(|net| {
            let row = engine.simulate_grid_cached(
                &sim,
                &archs,
                std::slice::from_ref(net),
                &[seed],
                &cache,
            );
            reparse(&grid_to_json(&row))
        })
        .collect();
    let full = reparse(&grid_to_json(&grid));
    (Expected { cells, rows, full }, grid)
}

/// Completed requests and cells, across clients (statistics only, so
/// `Relaxed` suffices).
#[derive(Default)]
struct Progress {
    requests: AtomicU64,
    cells: AtomicU64,
}

/// One client's closed loop.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    errors: u64,
    mismatches: u64,
    decode_us: Vec<f64>,
}

fn drive(
    client_index: u64,
    addr: SocketAddr,
    seed: u64,
    deadline: Instant,
    want: &Expected,
    progress: &Progress,
) -> Tally {
    let mut tally = Tally::default();
    let Ok(mut client) = Client::connect(addr) else {
        tally.errors += 1;
        return tally;
    };
    let (archs, nets) = (ARCHS.len() as u64, NETWORKS.len() as u64);
    let mut k = 0u64;
    while Instant::now() < deadline {
        // Clients start at different cells so they do not march in step.
        let pick = client_index * 17 + k;
        let sweep = k % SWEEP_EVERY == SWEEP_EVERY - 1;
        let sample_decode = !sweep && k.is_multiple_of(DECODE_SAMPLE);
        let t = Instant::now();
        let (reply, expected, cells) = if sweep {
            let ni = (pick % nets) as usize;
            let reply = client.sweep(&ARCHS, &[NETWORKS[ni]], &[seed], None);
            (reply, &want.rows[ni], archs)
        } else {
            let cell = pick % (archs * nets);
            let (ai, ni) = ((cell / nets) as usize, (cell % nets) as usize);
            let reply = client.simulate(ARCHS[ai], NETWORKS[ni], seed, None);
            (reply, &want.cells[ai][ni], 1)
        };
        let rtt = t.elapsed().as_secs_f64() * 1e3;
        k += 1;
        match reply {
            Ok(doc) => {
                tally.latencies_ms.push(rtt);
                progress.requests.fetch_add(1, Ordering::Relaxed);
                progress.cells.fetch_add(cells, Ordering::Relaxed);
                if doc != *expected {
                    tally.mismatches += 1;
                }
                if sample_decode {
                    let text = doc.to_string();
                    let t = Instant::now();
                    let parsed = Json::parse(&text);
                    tally.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if parsed.is_err() {
                        tally.mismatches += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("e2ebench: serve request failed: {e}");
                tally.errors += 1;
                // A broken connection is replaced, not retried forever.
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => return tally,
                }
            }
        }
    }
    tally
}

fn start_daemon(dir: PathBuf) -> Server {
    Server::start(ServeConfig {
        reactor: true,
        store_dir: Some(dir),
        ..ServeConfig::default()
    })
    .expect("start the reactor daemon")
}

pub fn run(seed: u64, seconds: u64, trace: bool, rep: &mut Report) {
    let s = grid_seed(seed, 0);
    let (want, grid) = expected(s);

    // Set-up: daemon start and priming (one sweep over every cell),
    // repeated on fresh store directories; the median counts.
    let mut setup = Vec::new();
    let mut daemon: Option<(Server, PathBuf)> = None;
    for r in 0..SETUP_REPEATS {
        if let Some((old, dir)) = daemon.take() {
            old.shutdown();
            let _ = std::fs::remove_dir_all(dir);
            sys::trim_heap();
        }
        let dir = sys::scratch_dir(&format!("serve{r}"));
        let t = Instant::now();
        let server = start_daemon(dir.clone());
        let primed =
            Client::connect(server.addr()).and_then(|mut c| c.sweep(&ARCHS, &NETWORKS, &[s], None));
        setup.push(t.elapsed().as_secs_f64());
        match primed {
            Ok(doc) if doc == want.full => {}
            Ok(_) => {
                rep.problem("priming sweep differs from grid_to_json of the library grid".into())
            }
            Err(e) => rep.problem(format!("priming sweep failed: {e}")),
        }
        daemon = Some((server, dir));
    }
    let (server, dir) = daemon.expect("at least one set-up");
    let addr = server.addr();

    let clients = sys::nproc() as u64;
    let before = DaemonCounters::read(addr);
    let progress = Progress::default();
    // (elapsed s, process CPU s, requests, cells) once per second.
    let mut ticks = vec![(0.0, sys::process_cpu().as_secs_f64(), 0, 0)];
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (want, progress) = (&want, &progress);
                scope.spawn(move || drive(c, addr, s, deadline, want, progress))
            })
            .collect();
        let mut next = started;
        loop {
            next += Duration::from_secs(1);
            if next > deadline {
                break;
            }
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            ticks.push((
                started.elapsed().as_secs_f64(),
                sys::process_cpu().as_secs_f64(),
                progress.requests.load(Ordering::Relaxed),
                progress.cells.load(Ordering::Relaxed),
            ));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    rep.set("peak_rss_mb", sys::peak_rss_mb());
    let after = DaemonCounters::read(addr);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);

    let mut latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let ok = latencies.len() as u64;
    let errors: u64 = tallies.iter().map(|t| t.errors).sum();
    let mismatches: u64 = tallies.iter().map(|t| t.mismatches).sum();
    let cells = progress.cells.load(Ordering::Relaxed);
    rep.attempted += ok + errors;
    rep.failed += errors + mismatches;
    if mismatches > 0 {
        rep.problem(format!(
            "{mismatches} replies differ from the library documents"
        ));
    }
    if ok == 0 {
        rep.problem("no request completed".into());
        return;
    }
    println!(
        "serve-warm: {clients} closed-loop clients, {ok} requests ({cells} cells) in {wall:.3} s"
    );
    // Rates are medians over one-second slices of the window: the host's
    // speed varies from second to second, and a median ignores the slices
    // a burst of contention slowed.
    let (mut req_rate, mut cell_rate, mut cpu_per_req) = (Vec::new(), Vec::new(), Vec::new());
    for w in ticks.windows(2) {
        let (dt, dcpu) = (w[1].0 - w[0].0, w[1].1 - w[0].1);
        let (dreq, dcells) = ((w[1].2 - w[0].2) as f64, (w[1].3 - w[0].3) as f64);
        req_rate.push(dreq / dt);
        cell_rate.push(dcells / dt);
        if dreq > 0.0 {
            cpu_per_req.push(dcpu / dreq);
        }
    }
    let (first, last) = (ticks[0], ticks[ticks.len() - 1]);
    let cpu = last.1 - first.1;
    let mean_rtt = latencies.iter().sum::<f64>() / ok as f64;
    rep.set("cells_per_s", sys::median(&cell_rate));
    rep.set("req_per_s", sys::median(&req_rate));
    rep.set("req_p50_ms", sys::quantile(&latencies, 0.5));
    rep.set("req_p99_ms", sys::quantile(&latencies, 0.99));
    rep.set("cpu_ms_per_op", sys::median(&cpu_per_req) * 1e3);
    rep.set("setup_s", sys::median(&setup));
    rep.set("fig10_err_pct", fig10_err_pct(&grid, 1));
    rep.set(
        "grid.thread_util",
        cpu / ((last.0 - first.0) * sys::nproc() as f64),
    );

    let decode: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.decode_us.iter().copied())
        .collect();
    if !decode.is_empty() {
        rep.set("serve.client_decode_us", sys::median(&decode));
    }
    match (before, after) {
        (Some(b), Some(a)) => {
            let mut delta = DaemonCounters::default();
            delta.add_delta(&b, &a);
            delta.report(rep);
            rep.set(
                "serve.transport_ms",
                mean_rtt - DaemonCounters::mean_ms(delta.latency),
            );
            rep.set("store.puts", delta.store_puts as f64);
            rep.set("store.bytes_appended", delta.store_bytes_appended as f64);
        }
        _ => rep.problem("daemon metrics could not be read".into()),
    }

    if trace {
        let archs = arch_specs();
        let nets = zoo::dense_benchmarks();
        replay::trace_layers("serve-warm", s, &archs, &nets, &grid, 0, rep);
    }
}
