//! Row-affine placement: a fleet synthesizes each `(network, seed)` row
//! once.
//!
//! A backend's decomposition cache shares synthesis across the arch cells
//! of one row. With stealing and hedging off, every cell runs on its row's
//! home backend, so the backends together must miss their caches exactly
//! as often as one library grid over the same cells — a row split across
//! backends would be synthesized on each of them and miss more, and so
//! would a row whose cells a backend's concurrent workers synthesize side
//! by side. The merged document must still be byte-identical to the
//! library grid.

use sibia_fleet::{Fleet, FleetConfig};
use sibia_serve::protocol::{arch_by_name, grid_to_json};
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::Client;
use sibia_sim::{DecompCache, ParallelEngine, Simulator};

const ARCHS: [&str; 5] = ["bitfusion", "hnpu", "no-sbr", "input-skip", "sibia"];
const NETWORKS: [&str; 2] = ["dgcnn", "resnet18"];
const SEEDS: [u64; 3] = [11, 12, 13];
const SAMPLE_CAP: usize = 256;

fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// A backend's cumulative `cache.misses`, read with the `metrics` verb.
fn cache_misses(server: &Server) -> u64 {
    let metrics = Client::connect(server.addr())
        .expect("connect for metrics")
        .metrics()
        .expect("metrics verb");
    metrics
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(|m| m.as_u64())
        .expect("cache.misses in the metrics reply")
}

/// Sweeps the grid on two reactor backends with `workers` serve workers
/// each, over `connections` connections per backend, and checks bytes and
/// cache misses against one library grid.
fn sweep_synthesizes_each_row_once(workers: usize, connections: usize) {
    let servers: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServeConfig {
                reactor: true,
                workers,
                engine_threads: 1,
                ..ServeConfig::default()
            })
            .expect("bind ephemeral port")
        })
        .collect();
    let mut config = FleetConfig::new(servers.iter().map(|s| s.addr().to_string()).collect());
    config.connections_per_backend = connections;
    config.steal = false;
    config.hedge.enabled = false;
    let fleet = Fleet::new(config).unwrap();

    let before: u64 = servers.iter().map(cache_misses).sum();
    let (doc, stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &SEEDS, Some(SAMPLE_CAP))
        .expect("fleet sweep");
    let fleet_misses = servers.iter().map(cache_misses).sum::<u64>() - before;

    let specs: Vec<_> = ARCHS.iter().map(|a| arch_by_name(a).unwrap()).collect();
    let networks: Vec<_> = NETWORKS
        .iter()
        .map(|n| sibia_nn::zoo::by_name(n).unwrap())
        .collect();
    let mut sim = Simulator::new(SEEDS[0]);
    sim.sample_cap = SAMPLE_CAP;
    let cache = DecompCache::new();
    let grid = ParallelEngine::with_threads(1)
        .simulate_grid_cached(&sim, &specs, &networks, &SEEDS, &cache);

    assert_eq!(doc.to_string(), grid_to_json(&grid).to_string());
    assert!(
        stats.per_backend_cells.iter().all(|&c| c > 0),
        "both backends must home rows: {stats:?}"
    );
    assert_eq!(
        fleet_misses,
        cache.misses(),
        "backend cache misses must equal one library grid's (per backend {:?})",
        stats.per_backend_cells
    );
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn each_row_is_synthesized_on_one_backend_only() {
    sweep_synthesizes_each_row_once(1, 1);
}

#[test]
fn concurrent_workers_on_one_row_synthesize_it_once() {
    // The fleet's default two connections per backend, each backend with
    // two workers: they take two cells of the same row at once.
    sweep_synthesizes_each_row_once(2, 2);
}
