//! The metric catalogue and the per-run result line.
//!
//! Every metric of `BENCHMARK.json` is listed here once, with its unit.
//! A `--trace 0` run prints every end-to-end metric; a `--trace 1` run
//! prints every per-layer metric, where a layer the workload does not
//! exercise reads 0 (see the README's metric table).

use std::collections::BTreeMap;

use sibia_obs::Json;

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// One catalogue entry: name, unit, list.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        kind: Kind::Layer,
    }
}

/// Every metric, end-to-end first, in `BENCHMARK.json` order.
pub const METRICS: &[Spec] = &[
    e2e("cells_per_s", "1/s"),
    e2e("req_per_s", "1/s"),
    e2e("req_p50_ms", "ms"),
    e2e("req_p99_ms", "ms"),
    e2e("cpu_ms_per_op", "ms"),
    e2e("peak_rss_mb", "MiB"),
    e2e("setup_s", "s"),
    e2e("fig10_err_pct", "%"),
    // Traced replay (every workload).
    layer("synth.self_s", "s"),
    layer("synth.share", "ratio"),
    layer("synth.ns_per_value", "ns"),
    layer("measure.self_s", "s"),
    layer("measure.share", "ratio"),
    layer("kernels.self_s", "s"),
    layer("kernels.digits_per_ns", "digit/ns"),
    layer("model.self_s", "s"),
    layer("model.share", "ratio"),
    layer("codec.encode_us", "us"),
    layer("codec.decode_us", "us"),
    layer("codec.bytes", "B"),
    layer("store.put_us", "us"),
    layer("store.get_us", "us"),
    layer("trace.coverage", "ratio"),
    layer("trace.overhead", "ratio"),
    // Decomposition cache and grid engine.
    layer("cache.hits", "count"),
    layer("cache.misses", "count"),
    layer("cache.hit_ratio", "ratio"),
    layer("cache.warm_pass_ms", "ms"),
    layer("grid.thread_util", "ratio"),
    // Serve daemon.
    layer("serve.queue_wait_ms", "ms"),
    layer("serve.compute_ms", "ms"),
    layer("serve.serialize_ms", "ms"),
    layer("serve.client_decode_us", "us"),
    layer("serve.transport_ms", "ms"),
    layer("store.read_hit_ratio", "ratio"),
    // Fleet dispatch and the store's write side.
    layer("fleet.attempts_per_cell", "ratio"),
    layer("fleet.retries", "count"),
    layer("fleet.steals", "count"),
    layer("fleet.hedges", "count"),
    layer("fleet.hedge_duplicates", "count"),
    layer("fleet.balance", "ratio"),
    layer("fleet.cell_p50_ms", "ms"),
    layer("fleet.cell_tail_ms", "ms"),
    layer("fleet.synth_dup_ratio", "ratio"),
    layer("store.puts", "count"),
    layer("store.bytes_appended", "B"),
    layer("fail_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations (cells or requests) attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Failed checks, one line each; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`METRICS`] (a bug in this benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Counts one wrong output or failed check.
    pub fn problem(&mut self, what: String) {
        eprintln!("e2ebench: CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metrics object of the result line: every end-to-end metric
    /// (`trace == false`) or every per-layer metric (`trace == true`).
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured, or any value is
    /// not finite (bugs in this benchmark).
    pub fn metrics_json(&self, trace: bool) -> Json {
        let wanted = if trace { Kind::Layer } else { Kind::EndToEnd };
        let members = METRICS
            .iter()
            .filter(|m| m.kind == wanted)
            .map(|m| {
                let value = match (self.values.get(m.name), m.kind) {
                    (Some(&v), _) => v,
                    (None, Kind::Layer) => 0.0,
                    (None, Kind::EndToEnd) => panic!("end-to-end metric {} not measured", m.name),
                };
                assert!(
                    value.is_finite(),
                    "metric {} is not finite: {value}",
                    m.name
                );
                (
                    m.name.to_owned(),
                    Json::obj(vec![
                        ("value", Json::Float(value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Object(members)
    }

    /// Every measured value as a `name value unit` table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in METRICS {
            if let Some(v) = self.values.get(m.name) {
                out.push_str(&format!("  {:<26} {:>16.6} {}\n", m.name, v, m.unit));
            }
        }
        out
    }
}
