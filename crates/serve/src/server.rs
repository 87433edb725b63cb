//! The accelerator-as-a-service daemon.
//!
//! ## Threading model
//!
//! ```text
//! accept thread ──spawns──▶ connection threads (one per client)
//!                               │  parse line → admission control
//!                               ▼
//!                        bounded JobQueue  ──▶ worker pool (N threads)
//!                               ▲                   │ simulate / encode / sweep
//!                               │                   ▼
//!                        overloaded reject    reply channel → connection thread
//! ```
//!
//! Cheap requests (`ping`, `metrics`, `trace`, `spans`, `stats`) are
//! answered inline on the connection thread so the daemon stays observable
//! while saturated. Work
//! requests (`encode`, `simulate`, `sweep`) pass through the bounded
//! [`JobQueue`]: when it is full the request is rejected *immediately* with
//! a typed `overloaded` error — never queued unboundedly, never blocked.
//!
//! ## Observability
//!
//! Every request gets a server-assigned `trace_id` echoed in its response
//! envelope, and its latency is split into queue-wait / compute / serialize
//! phase histograms (`serve.latency.*` in the unified registry — see
//! DESIGN.md §8). The completed request becomes a `serve.request` span in a
//! bounded in-memory tracer; a `trace` request returns the most recent N
//! spans as Chrome `trace_event` objects.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or SIGTERM/ctrl-c via [`crate::signal`] in
//! the CLI) flips one atomic flag. The accept loop stops admitting
//! connections, the queue closes (pending jobs still drain, so every
//! admitted request gets its response), workers are joined, connection
//! threads notice the flag on their next read tick and close, and the
//! accept thread joins them all before returning.
//!
//! ## Determinism
//!
//! All simulation state lives in the long-lived, *bounded* [`DecompCache`];
//! cache hits, evictions, worker interleaving, and sweep thread counts are
//! all invisible in responses (see `crate::protocol` for the guarantee).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sibia_nn::zoo;
use sibia_obs::{Sampler, SamplerSource, Telemetry, Tracer};
use sibia_sim::{DecompCache, GridCell, ParallelEngine, Simulator};
use sibia_store::Store;

use crate::json::Json;
use crate::metrics::{GaugeSample, PhaseTimings, ServeMetrics};
use crate::protocol::{
    arch_by_name, encode_stats, error_response, grid_to_json, network_result_to_json, ok_response,
    parse_request, progress_frame, Envelope, ErrorCode, Request, ServeError, PROTOCOL_REVISION,
};
use crate::queue::{JobQueue, PushError};

/// Library-default statistics sample cap (matches `Simulator::new`).
pub const DEFAULT_SAMPLE_CAP: usize = 32_768;

/// How often blocked reads wake up to check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// Idle sleep of the accept loop between polls.
const ACCEPT_TICK: Duration = Duration::from_millis(20);

/// Longest accepted request line (16 MiB covers ~2M-value encode payloads).
pub(crate) const MAX_LINE_BYTES: usize = 16 << 20;

/// Completed request spans kept for `trace` requests (oldest evicted).
const TRACE_CAPACITY: usize = 4096;

/// Default span count returned by a `trace` request without `limit`.
pub(crate) const TRACE_DEFAULT_LIMIT: usize = 32;

/// Default span count returned by a `spans` request without `limit` — the
/// whole hierarchy buffer, since a fleet coordinator wants every span of
/// its sweep.
pub(crate) const SPANS_DEFAULT_LIMIT: usize = 4096;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind host.
    pub host: String,
    /// Bind port; 0 asks the OS for an ephemeral port (the bound port is on
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Worker threads executing queued jobs.
    pub workers: usize,
    /// Job-queue bound: pending jobs beyond this are rejected `overloaded`.
    pub queue_capacity: usize,
    /// Threads each `sweep` grid fans out over.
    pub engine_threads: usize,
    /// Per-level entry cap of the shared decomposition cache.
    pub cache_capacity: usize,
    /// Directory of the persistent result store. `None` (the default) runs
    /// without persistence; `Some(dir)` opens (or creates) the store there,
    /// so a restarted daemon serves previously computed results from disk
    /// (see DESIGN.md §9).
    pub store_dir: Option<PathBuf>,
    /// Peer daemons (`host:port`) whose stores this daemon may consult via
    /// the revision-5 `lookup` verb before simulating a cold cell — the
    /// cross-backend warm start. Tried in order with short timeouts; a
    /// peer hit is written back to the local store so the next miss is
    /// local. Peers answer `lookup` from their store only (never compute,
    /// never consult *their* peers), so chains cannot recurse. Only
    /// meaningful together with [`ServeConfig::store_dir`].
    pub peers: Vec<String>,
    /// Serve through the epoll reactor front end instead of the
    /// thread-per-connection blocking front (see DESIGN.md §11): one
    /// reactor thread multiplexes every connection, requests pipeline, and
    /// responses may return out of request order (correlate by `id`).
    /// Linux only; `Server::start` fails with `Unsupported` elsewhere.
    pub reactor: bool,
    /// Reactor front only: per-connection pipelining cap. A request
    /// arriving while this many are already in flight on its connection is
    /// rejected with a typed `overloaded` error.
    pub pipeline_depth: usize,
    /// Reactor front only: per-connection write budget. A work request
    /// arriving while more than this many response bytes are queued unread
    /// is rejected with a typed `overloaded` error.
    pub write_budget_bytes: usize,
    /// Enable the process-global tracer for the daemon's lifetime, so work
    /// requests record the full `serve.request` → `sim.network` →
    /// `sim.layer` span hierarchy (readable via the `spans` verb and
    /// mergeable into a fleet-wide trace). Off by default: the global
    /// tracer stays a single relaxed atomic load per span site.
    pub trace: bool,
    /// Background telemetry sampling interval in milliseconds (the `stats`
    /// verb also forces a sample, so scrapes are never stale).
    pub sample_interval_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            host: "127.0.0.1".to_owned(),
            port: 0,
            workers: cores.min(8),
            queue_capacity: 64,
            engine_threads: cores,
            cache_capacity: 4096,
            store_dir: None,
            peers: Vec::new(),
            reactor: false,
            pipeline_depth: 64,
            write_budget_bytes: 1 << 20,
            trace: false,
            sample_interval_ms: 500,
        }
    }
}

/// What a worker sends back for one job: the outcome plus where the time
/// went (queue wait, then compute).
pub(crate) type JobReply = (Result<Json, ServeError>, Duration, Duration);

/// One message on a blocking-front job channel: zero or more progress
/// frames (streamed sweeps only), then exactly one `Done`.
pub(crate) enum JobFrame {
    /// A revision-6 progress frame to write to the connection now.
    Progress(Json),
    /// The job's outcome; ends the stream.
    Done(JobReply),
}

/// Where a finished job's outcome goes.
pub(crate) enum ReplySink {
    /// Blocking front: the connection thread waits on this channel and
    /// finishes the request itself (serialize, metrics, span).
    Blocking(mpsc::Sender<JobFrame>),
    /// Reactor front: the worker finishes the request itself and pushes
    /// the complete response line through the connection's completer
    /// (see [`crate::reactor_front`]).
    Reactor(crate::reactor_front::ReactorJob),
}

/// Worker-side handle that turns per-cell completions into wire progress
/// frames, built only for `sweep` requests that opted into streaming.
/// Front-agnostic: the blocking front relays frames over the job channel,
/// the reactor front pushes non-final completions straight to the reactor.
pub(crate) struct ProgressEmitter {
    id: Option<Json>,
    sink: ProgressSink,
}

enum ProgressSink {
    /// `Sender` is `Send` but not `Sync`; the engine calls `emit` from
    /// several scoped workers, so the sender rides behind a mutex (frames
    /// are rare — one per cell — so contention is negligible).
    Blocking(Mutex<mpsc::Sender<JobFrame>>),
    Reactor(sibia_net::Completer),
}

impl ProgressEmitter {
    pub(crate) fn emit(&self, done: usize, total: usize, cell: &str) {
        let frame = progress_frame(self.id.as_ref(), done, total, cell);
        match &self.sink {
            ProgressSink::Blocking(tx) => {
                let _ = tx
                    .lock()
                    .expect("progress sender lock")
                    .send(JobFrame::Progress(frame));
            }
            ProgressSink::Reactor(completer) => {
                let mut line = frame.to_string().into_bytes();
                line.push(b'\n');
                completer.progress(line);
            }
        }
    }
}

/// One admitted unit of work.
pub(crate) struct Job {
    pub(crate) envelope: Envelope,
    pub(crate) queued_at: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply: ReplySink,
}

/// Shared server state.
pub(crate) struct Shared {
    pub(crate) queue: JobQueue<Job>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) cache: DecompCache,
    pub(crate) engine: ParallelEngine,
    /// Always-enabled bounded tracer holding completed `serve.request`
    /// spans (the `trace` request reads it; `--trace-out`-style export is
    /// the sim-side global tracer's job). `Arc` so the reactor can record
    /// its connection-lifetime spans into the same buffer.
    pub(crate) tracer: Arc<Tracer>,
    /// Per-request trace-id sequence (`t1`, `t2`, …).
    pub(crate) trace_seq: AtomicU64,
    /// Persistent result store, when the daemon was started with a
    /// `store_dir`. Simulate/sweep read through it and write back.
    pub(crate) store: Option<Store>,
    /// Peer daemons consulted (via `lookup`) on a local store miss before
    /// simulating. Empty means no peer warm start.
    pub(crate) peers: Vec<String>,
    /// Which front end is serving (`"blocking"` or `"reactor"`), echoed by
    /// the `version` request so clients can gate pipelining on it.
    pub(crate) front: &'static str,
    /// Time-series store sampled by the background [`Sampler`] and read by
    /// the `stats` request (which also forces a fresh sample, so scrapes
    /// are never staler than one call).
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    /// Spans evicted (oldest-first) from either bounded trace buffer: the
    /// shared request tracer and the process-global hierarchy tracer.
    /// Nonzero means `trace` / `spans` responses are silently incomplete.
    pub(crate) fn dropped_spans(&self) -> u64 {
        self.tracer.dropped() + sibia_obs::tracer().dropped()
    }

    fn gauge_sample(&self) -> GaugeSample {
        GaugeSample {
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.tensor_entries() + self.cache.decomp_entries(),
        }
    }

    pub(crate) fn metrics_json(&self) -> Json {
        let store_stats = self.store.as_ref().map(Store::stats);
        self.metrics.to_json(
            &self.gauge_sample(),
            self.dropped_spans(),
            store_stats.as_ref(),
        )
    }

    /// Refreshes the pull-style gauges (queue depth, cache and store
    /// statistics) in the registry. Installed as the telemetry sampler's
    /// pre-tick hook so every sample sees current levels.
    pub(crate) fn refresh_gauges(&self) {
        let store_stats = self.store.as_ref().map(Store::stats);
        self.metrics
            .set_gauges(&self.gauge_sample(), store_stats.as_ref());
    }

    /// The `version` response: crate version, wire-protocol revision, and
    /// the serving front end, so clients can gate on features (`version`
    /// itself arrived in revision 2; `front` and out-of-order pipelined
    /// responses in revision 3).
    pub(crate) fn version_json(&self) -> Json {
        Json::obj(vec![
            ("crate_version", Json::from(env!("CARGO_PKG_VERSION"))),
            ("protocol_revision", Json::from(PROTOCOL_REVISION)),
            ("front", Json::from(self.front)),
        ])
    }

    /// The most recent completed request spans, newest first, as Chrome
    /// `trace_event` objects.
    pub(crate) fn trace_json(&self, limit: usize) -> Json {
        let spans = self.tracer.recent(Some("serve.request"), limit);
        Json::obj(vec![
            (
                "spans",
                Json::Array(spans.iter().map(|s| s.to_chrome_json()).collect()),
            ),
            ("dropped", Json::from(self.tracer.dropped())),
        ])
    }

    /// Hierarchical spans from the process-global tracer (the worker-side
    /// `serve.request` guards plus the `sim.*` spans nested under them),
    /// oldest first so parents precede children, as Chrome `trace_event`
    /// objects. With a `trace_id` filter, only spans belonging to that
    /// request — a span whose `trace_id` attribute matches, plus every
    /// descendant — are returned; that is how a fleet coordinator pulls
    /// exactly its own sweep's spans out of a shared backend. Empty unless
    /// the daemon was started with tracing enabled.
    pub(crate) fn spans_json(&self, limit: usize, trace_id: Option<&str>) -> Json {
        let records = sibia_obs::tracer().records();
        let selected: Vec<&sibia_obs::SpanRecord> = match trace_id {
            None => records.iter().collect(),
            Some(tid) => {
                // A span belongs to the trace when walking its parent chain
                // (parent ids are always lower, so the walk terminates)
                // reaches a span whose `trace_id` attribute equals `tid`.
                let by_id: std::collections::HashMap<u64, &sibia_obs::SpanRecord> =
                    records.iter().map(|r| (r.id, r)).collect();
                records
                    .iter()
                    .filter(|r| {
                        let mut cur = Some(*r);
                        while let Some(s) = cur {
                            if s.attr("trace_id") == Some(tid) {
                                return true;
                            }
                            cur = s.parent.and_then(|p| by_id.get(&p).copied());
                        }
                        false
                    })
                    .collect()
            }
        };
        let spans: Vec<Json> = selected
            .iter()
            .take(limit)
            .map(|r| r.to_chrome_json())
            .collect();
        Json::obj(vec![
            ("spans", Json::Array(spans)),
            ("dropped", Json::from(sibia_obs::tracer().dropped())),
        ])
    }

    /// The `stats` response: a fresh telemetry sample (counter rates, gauge
    /// levels, windowed histogram quantiles) serialized canonically.
    pub(crate) fn stats_json(&self) -> Json {
        self.telemetry.sample();
        self.telemetry.stats_json()
    }

    /// The `lookup` response (revision 5): a store-only probe for one
    /// cell. Derives the store key exactly as the equivalent `simulate`
    /// would (same seed-fresh [`Simulator`], same resolved sample cap) and
    /// answers `found: true` with the canonical serialization on a hit —
    /// byte-identical to what `simulate` would return — or `found: false`
    /// on a miss or when this daemon has no store. Never computes, never
    /// consults this daemon's own peers.
    pub(crate) fn lookup_json(
        &self,
        arch: &str,
        network: &str,
        seed: u64,
        sample_cap: Option<usize>,
    ) -> Result<Json, ServeError> {
        let spec = arch_by_name(arch).ok_or_else(|| {
            ServeError::new(ErrorCode::UnknownArch, format!("unknown arch '{arch}'"))
        })?;
        let net = zoo::by_name(network).ok_or_else(|| {
            ServeError::new(
                ErrorCode::UnknownNetwork,
                format!("unknown network '{network}'"),
            )
        })?;
        let mut sim = Simulator::new(seed);
        sim.sample_cap = sample_cap.unwrap_or(DEFAULT_SAMPLE_CAP).max(1);
        let hit = self
            .store
            .as_ref()
            .and_then(|store| sibia_sim::try_stored(&sim, &spec, &net, store));
        Ok(match hit {
            Some(result) => {
                self.metrics.registry().counter("serve.lookup.hits").add(1);
                Json::obj(vec![
                    ("found", Json::Bool(true)),
                    ("result", network_result_to_json(&result)),
                ])
            }
            None => {
                self.metrics
                    .registry()
                    .counter("serve.lookup.misses")
                    .add(1);
                Json::obj(vec![("found", Json::Bool(false))])
            }
        })
    }
}

/// Peer-lookup connect timeout: a peer is on the same fleet, so a dial
/// slower than this means it is gone — fall through to simulating.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Peer-lookup IO timeout: a store probe is a read + one response line.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Cross-backend warm start: asks each configured peer (in order) whether
/// its store already holds the cell. First parsable hit wins. Every
/// failure mode — dial, IO, protocol, unparsable result — counts in
/// `serve.peer.errors` and falls through to the next peer, then to local
/// simulation: a broken peer must never fail a request that this daemon
/// can compute itself.
fn peer_warm_start(
    shared: &Shared,
    arch: &str,
    network: &str,
    seed: u64,
    sample_cap: usize,
) -> Option<sibia_sim::perf::NetworkResult> {
    if shared.peers.is_empty() {
        return None;
    }
    let registry = shared.metrics.registry();
    for peer in &shared.peers {
        let mut client = match crate::client::Client::with_timeouts(
            peer.as_str(),
            Some(PEER_CONNECT_TIMEOUT),
            Some(PEER_IO_TIMEOUT),
            Some(PEER_IO_TIMEOUT),
        ) {
            Ok(c) => c,
            Err(_) => {
                registry.counter("serve.peer.errors").add(1);
                continue;
            }
        };
        match client.lookup(arch, network, seed, Some(sample_cap)) {
            Ok(resp) => {
                if matches!(resp.get("found"), Some(Json::Bool(true))) {
                    match resp
                        .get("result")
                        .and_then(sibia_sim::network_result_from_json)
                    {
                        Some(result) => {
                            registry.counter("serve.peer.hits").add(1);
                            return Some(result);
                        }
                        None => registry.counter("serve.peer.errors").add(1),
                    }
                } else {
                    registry.counter("serve.peer.misses").add(1);
                }
            }
            Err(_) => registry.counter("serve.peer.errors").add(1),
        }
    }
    None
}

/// Executes one work request against the shared cache/engine. `progress`
/// is present only for streamed sweeps: the worker-side emitter that turns
/// completed cells into wire frames.
pub(crate) fn execute(
    shared: &Shared,
    request: &Request,
    progress: Option<&ProgressEmitter>,
) -> Result<Json, ServeError> {
    match request {
        Request::Encode {
            values,
            bits,
            gsbr_width,
        } => encode_stats(values, *bits, *gsbr_width),
        Request::Simulate {
            arch,
            network,
            seed,
            sample_cap,
        } => {
            let spec = arch_by_name(arch).ok_or_else(|| {
                ServeError::new(ErrorCode::UnknownArch, format!("unknown arch '{arch}'"))
            })?;
            let net = zoo::by_name(network).ok_or_else(|| {
                ServeError::new(
                    ErrorCode::UnknownNetwork,
                    format!("unknown network '{network}'"),
                )
            })?;
            let mut sim = Simulator::new(*seed);
            sim.sample_cap = sample_cap.unwrap_or(DEFAULT_SAMPLE_CAP).max(1);
            let result = match &shared.store {
                Some(store) => {
                    // Open-coded read-through (one store probe, exactly like
                    // `simulate_network_stored`) with a peer-lookup stage
                    // between the local miss and the simulation: a peer's
                    // warm store answers faster than recomputing, and the
                    // write-back makes the warmth local for next time.
                    let result = match sibia_sim::try_stored(&sim, &spec, &net, store) {
                        Some(hit) => hit,
                        None => {
                            let key = sibia_sim::network_key(&sim, &spec, net.name());
                            let result =
                                match peer_warm_start(shared, arch, network, *seed, sim.sample_cap)
                                {
                                    Some(fetched) => fetched,
                                    None => sim.simulate_network_cached(
                                        &spec,
                                        &net,
                                        None,
                                        &shared.cache,
                                    ),
                                };
                            sibia_sim::stored::put_best_effort(store, &key, &result);
                            result
                        }
                    };
                    let _ = store.maybe_compact();
                    result
                }
                None => sim.simulate_network_cached(&spec, &net, None, &shared.cache),
            };
            // One grid cell per simulate request: feeds the same aggregate
            // the grid engine's workers feed, so the sampled cells/s rate
            // is fleet-comparable however the work arrives.
            sibia_obs::registry().counter("sim.engine.cells").add(1);
            Ok(network_result_to_json(&result))
        }
        Request::Sweep {
            archs,
            networks,
            seeds,
            sample_cap,
            stream,
        } => {
            let specs = archs
                .iter()
                .map(|a| {
                    arch_by_name(a).ok_or_else(|| {
                        ServeError::new(ErrorCode::UnknownArch, format!("unknown arch '{a}'"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let nets = networks
                .iter()
                .map(|n| {
                    zoo::by_name(n).ok_or_else(|| {
                        ServeError::new(ErrorCode::UnknownNetwork, format!("unknown network '{n}'"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut sim = Simulator::new(seeds[0]);
            sim.sample_cap = sample_cap.unwrap_or(DEFAULT_SAMPLE_CAP).max(1);
            let grid = match (progress.filter(|_| *stream), &shared.store) {
                // Streamed: the observed engine fires per completed cell;
                // the emitter turns each into one wire frame. The grid
                // itself — and therefore the final response line — is
                // byte-identical to the unobserved paths below.
                (Some(emitter), store) => {
                    let total = specs.len() * nets.len() * seeds.len();
                    let done = AtomicUsize::new(0);
                    let observe = |cell: &GridCell| {
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        let name = format!(
                            "{}/{}/{}",
                            archs[cell.arch_index], networks[cell.network_index], cell.seed
                        );
                        emitter.emit(n, total, &name);
                    };
                    let grid = shared.engine.simulate_grid_observed(
                        &sim,
                        &specs,
                        &nets,
                        seeds,
                        &shared.cache,
                        store.as_ref(),
                        &observe,
                    );
                    if let Some(store) = store {
                        let _ = store.maybe_compact();
                    }
                    grid
                }
                (None, Some(store)) => {
                    let grid = shared.engine.simulate_grid_stored(
                        &sim,
                        &specs,
                        &nets,
                        seeds,
                        &shared.cache,
                        store,
                    );
                    let _ = store.maybe_compact();
                    grid
                }
                (None, None) => {
                    shared
                        .engine
                        .simulate_grid_cached(&sim, &specs, &nets, seeds, &shared.cache)
                }
            };
            Ok(grid_to_json(&grid))
        }
        // Ping/Version/Lookup/Metrics/Trace/Spans/Stats are answered inline
        // by the connection (or reactor) thread.
        Request::Ping
        | Request::Version
        | Request::Lookup { .. }
        | Request::Metrics
        | Request::Trace { .. }
        | Request::Spans { .. }
        | Request::Stats => Err(ServeError::new(
            ErrorCode::Internal,
            "inline request reached the worker pool",
        )),
    }
}

fn worker_loop(shared: &Shared) {
    // Aggregate busy/idle accounting across the pool: the sampler turns the
    // counter deltas into utilisation rates (busy_rate / (busy + idle)).
    let busy_us = shared.metrics.registry().counter("serve.worker.busy_us");
    let idle_us = shared.metrics.registry().counter("serve.worker.idle_us");
    let mut idle_since = Instant::now();
    while let Some(job) = shared.queue.pop() {
        idle_us.add(idle_since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let queue_wait = job.queued_at.elapsed();
        let compute_start = Instant::now();
        // When the global tracer is enabled (`--trace`), wrap the work in a
        // hierarchy span: `sim.*` spans recorded on this thread nest under
        // it via the thread-local parent stack, and a propagated trace
        // context links it under the remote caller's span for merging.
        let mut span = sibia_obs::tracer().span("serve.request");
        span.attr("kind", job.envelope.request.kind());
        if let Some(ctx) = &job.envelope.trace {
            span.attr("trace_id", &ctx.trace_id);
            if let Some(parent) = ctx.parent_span {
                span.set_remote_parent(parent);
            }
        }
        // Streamed sweeps get a progress emitter bound to this job's reply
        // path; everything else computes silently.
        let emitter = match &job.envelope.request {
            Request::Sweep { stream: true, .. } => Some(ProgressEmitter {
                id: job.envelope.id.clone(),
                sink: match &job.reply {
                    ReplySink::Blocking(tx) => ProgressSink::Blocking(Mutex::new(tx.clone())),
                    ReplySink::Reactor(rj) => ProgressSink::Reactor(rj.completer()),
                },
            }),
            _ => None,
        };
        let outcome = match job.deadline {
            Some(deadline) if Instant::now() > deadline => Err(ServeError::new(
                ErrorCode::DeadlineExceeded,
                "deadline passed while queued",
            )),
            _ => execute(shared, &job.envelope.request, emitter.as_ref()),
        };
        span.attr("ok", outcome.is_ok());
        drop(span);
        let compute = compute_start.elapsed();
        busy_us.add(compute.as_micros().min(u128::from(u64::MAX)) as u64);
        idle_since = Instant::now();
        match job.reply {
            // A dropped receiver means the client hung up; nothing to do.
            ReplySink::Blocking(tx) => {
                let _ = tx.send(JobFrame::Done((outcome, queue_wait, compute)));
            }
            ReplySink::Reactor(rj) => {
                crate::reactor_front::finish_job(shared, rj, outcome, queue_wait, compute);
            }
        }
    }
}

/// Records one completed request into the metrics and the trace buffer —
/// shared by the blocking connection loop and the reactor front.
pub(crate) fn record_request(
    shared: &Shared,
    kind: &str,
    outcome_code: Result<(), ErrorCode>,
    received: Instant,
    total: Duration,
    phases: PhaseTimings,
    trace_id: String,
) {
    shared.metrics.request(kind, outcome_code, total, phases);
    shared.tracer.record_span(
        "serve.request",
        received,
        total.as_micros().min(u128::from(u64::MAX)) as u64,
        vec![
            ("trace_id".to_owned(), trace_id),
            ("kind".to_owned(), kind.to_owned()),
            ("ok".to_owned(), outcome_code.is_ok().to_string()),
            (
                "queue_wait_us".to_owned(),
                phases.queue_wait.as_micros().to_string(),
            ),
            (
                "compute_us".to_owned(),
                phases.compute.as_micros().to_string(),
            ),
            (
                "serialize_us".to_owned(),
                phases.serialize.as_micros().to_string(),
            ),
        ],
    );
}

/// Accumulates stream bytes and yields complete newline-terminated lines,
/// surviving read-timeout ticks without losing partial input (which
/// `BufReader::read_line` cannot guarantee).
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    /// Scan resume offset into `pending` (bytes before it hold no `\n`).
    scanned: usize,
}

enum ReadEvent {
    /// One complete line, `\n` stripped (and a trailing `\r`, for telnet).
    Line(String),
    /// The peer closed the connection.
    Eof,
    /// Read timeout: check the shutdown flag and try again.
    Tick,
    /// Unrecoverable stream or framing error.
    Broken,
}

impl LineReader {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(READ_TICK))?;
        Ok(Self {
            stream,
            pending: Vec::new(),
            scanned: 0,
        })
    }

    /// The underlying stream, for writing responses via `&TcpStream`.
    fn stream(&self) -> &TcpStream {
        &self.stream
    }

    fn next(&mut self) -> ReadEvent {
        loop {
            if let Some(pos) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let pos = self.scanned + pos;
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                return match String::from_utf8(line) {
                    Ok(s) => ReadEvent::Line(s),
                    Err(_) => ReadEvent::Broken,
                };
            }
            self.scanned = self.pending.len();
            if self.pending.len() > MAX_LINE_BYTES {
                return ReadEvent::Broken;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadEvent::Eof,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadEvent::Tick
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadEvent::Broken,
            }
        }
    }
}

/// Handles one client connection until EOF, error, or shutdown.
fn connection_loop(shared: &Shared, stream: TcpStream) {
    shared.metrics.connection();
    let mut reader = match LineReader::new(stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let line = match reader.next() {
            ReadEvent::Line(l) => l,
            ReadEvent::Tick => continue,
            ReadEvent::Eof | ReadEvent::Broken => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let received = Instant::now();
        let mut trace_id = format!("t{}", shared.trace_seq.fetch_add(1, Ordering::Relaxed) + 1);
        let mut phases = PhaseTimings::default();
        let (kind, id, outcome) = match parse_request(&line) {
            Err(e) => ("invalid", None, Err(e)),
            Ok(envelope) => {
                let id = envelope.id.clone();
                let kind = envelope.request.kind();
                // A propagated trace context supersedes the server-assigned
                // trace id: the response echoes the caller's id, and the
                // request's spans become pullable under it via `spans`.
                if let Some(ctx) = &envelope.trace {
                    trace_id = ctx.trace_id.clone();
                }
                // Inline requests: queue wait is genuinely zero and compute
                // is the handler itself. Queued work reports both phases
                // from the worker.
                let inline = |handler: &dyn Fn() -> Json, phases: &mut PhaseTimings| {
                    let compute_start = Instant::now();
                    let result = handler();
                    phases.compute = compute_start.elapsed();
                    Ok(result)
                };
                let outcome = match &envelope.request {
                    Request::Ping => {
                        inline(&|| Json::obj(vec![("pong", Json::Bool(true))]), &mut phases)
                    }
                    Request::Version => inline(&|| shared.version_json(), &mut phases),
                    Request::Metrics => inline(&|| shared.metrics_json(), &mut phases),
                    Request::Trace { limit } => {
                        let limit = limit.unwrap_or(TRACE_DEFAULT_LIMIT);
                        inline(&|| shared.trace_json(limit), &mut phases)
                    }
                    Request::Spans { limit, trace_id } => {
                        let limit = limit.unwrap_or(SPANS_DEFAULT_LIMIT);
                        inline(
                            &|| shared.spans_json(limit, trace_id.as_deref()),
                            &mut phases,
                        )
                    }
                    Request::Stats => inline(&|| shared.stats_json(), &mut phases),
                    Request::Lookup {
                        arch,
                        network,
                        seed,
                        sample_cap,
                    } => {
                        // Inline like the other store/metadata verbs, but
                        // the handler is fallible (unknown arch/network are
                        // typed errors), so it bypasses the `inline` helper.
                        let compute_start = Instant::now();
                        let outcome = shared.lookup_json(arch, network, *seed, *sample_cap);
                        phases.compute = compute_start.elapsed();
                        outcome
                    }
                    _ => {
                        // Progress frames (streamed sweeps) are written to
                        // the connection as they arrive, *before* the final
                        // response line. A failed frame write is ignored
                        // here — the final write's error closes the
                        // connection exactly as before.
                        let mut writer = reader.stream();
                        let (outcome, queue_wait, compute) =
                            submit(shared, envelope, received, &mut |frame: &Json| {
                                let _ = writer
                                    .write_all(frame.to_string().as_bytes())
                                    .and_then(|()| writer.write_all(b"\n"));
                            });
                        phases.queue_wait = queue_wait;
                        phases.compute = compute;
                        outcome
                    }
                };
                (kind, id, outcome)
            }
        };
        let serialize_start = Instant::now();
        let response = match &outcome {
            Ok(result) => ok_response(id.as_ref(), Some(&trace_id), result.clone()),
            Err(e) => error_response(id.as_ref(), Some(&trace_id), e),
        };
        // Write through `&TcpStream` on the reader's stream rather than a
        // `try_clone` dup: one fd per connection, not two — at 10k
        // connections that halves the daemon's descriptor footprint.
        let mut writer = reader.stream();
        let write_result = writer
            .write_all(response.to_string().as_bytes())
            .and_then(|()| writer.write_all(b"\n"));
        phases.serialize = serialize_start.elapsed();
        let total = received.elapsed();
        let outcome_code = outcome.as_ref().map(|_| ()).map_err(|e| e.code);
        record_request(
            shared,
            kind,
            outcome_code,
            received,
            total,
            phases,
            trace_id,
        );
        if write_result.is_err() {
            return;
        }
    }
}

/// Admission control: queue the job or reject it immediately. Returns the
/// outcome plus the measured (queue-wait, compute) durations. Progress
/// frames arriving before the job's `Done` are handed to `on_progress`
/// (the connection loop writes them to the client inline).
fn submit(
    shared: &Shared,
    envelope: Envelope,
    received: Instant,
    on_progress: &mut dyn FnMut(&Json),
) -> JobReply {
    let deadline = envelope
        .timeout_ms
        .map(|ms| received + Duration::from_millis(ms));
    let (reply, rx) = mpsc::channel();
    let job = Job {
        envelope,
        queued_at: Instant::now(),
        deadline,
        reply: ReplySink::Blocking(reply),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full(_)) => {
            return (
                Err(ServeError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "job queue full ({} pending); retry with backoff",
                        shared.queue.capacity()
                    ),
                )),
                Duration::ZERO,
                Duration::ZERO,
            )
        }
        Err(PushError::Closed(_)) => {
            return (
                Err(ServeError::new(
                    ErrorCode::ShuttingDown,
                    "server is draining",
                )),
                Duration::ZERO,
                Duration::ZERO,
            )
        }
    }
    // The queue was admitted, so a worker owns the job and always replies
    // (the pool drains the queue fully before exiting on shutdown).
    loop {
        match rx.recv() {
            Ok(JobFrame::Progress(frame)) => on_progress(&frame),
            Ok(JobFrame::Done(reply)) => return reply,
            Err(_) => {
                return (
                    Err(ServeError::new(ErrorCode::Internal, "worker pool gone")),
                    Duration::ZERO,
                    Duration::ZERO,
                )
            }
        }
    }
}

/// Which front end a running server is serving through.
enum Front {
    /// Thread-per-connection accept loop; the accept thread joins the
    /// worker pool itself on drain.
    Blocking(JoinHandle<()>),
    /// Single-thread epoll reactor (see [`crate::reactor_front`]); the
    /// handle owns the worker pool and joins it after the reactor drains.
    Reactor {
        reactor: sibia_net::Reactor,
        workers: Vec<JoinHandle<()>>,
    },
}

/// A running daemon. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    front: Front,
    /// Background telemetry sampler; stopped (flag + condvar, no thread
    /// kill) during [`Server::shutdown`].
    sampler: Option<Sampler>,
}

/// Public alias: `Server::start` returns the handle type.
pub type ServerHandle = Server;

impl Server {
    /// Binds, spawns the worker pool and the configured front end (accept
    /// thread or epoll reactor), and returns immediately.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let tracer = Arc::new(Tracer::with_capacity(TRACE_CAPACITY));
        tracer.enable();
        if config.trace {
            // Process-global and sticky for the daemon's lifetime: sim
            // spans check one relaxed atomic and servers never race to
            // toggle it off under each other.
            sibia_obs::tracer().enable();
        }
        let store = match &config.store_dir {
            Some(dir) => Some(Store::open(dir).map_err(|e| {
                std::io::Error::other(format!("opening store at {}: {e}", dir.display()))
            })?),
            None => None,
        };
        let metrics = ServeMetrics::new();
        // The sampler walks this server's own registry (request counters,
        // latency histograms, worker busy/idle) plus the process-global one
        // (sim kernel invocations, reactor wait/dispatch timings).
        let telemetry = Arc::new(Telemetry::new(vec![
            SamplerSource::Shared(Arc::clone(metrics.registry())),
            SamplerSource::Static(sibia_obs::registry()),
        ]));
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            metrics,
            cache: DecompCache::with_capacity(config.cache_capacity.max(1)),
            engine: ParallelEngine::with_threads(config.engine_threads),
            tracer,
            trace_seq: AtomicU64::new(0),
            store,
            peers: config.peers.clone(),
            front: if config.reactor {
                "reactor"
            } else {
                "blocking"
            },
            telemetry: Arc::clone(&telemetry),
            shutdown: AtomicBool::new(false),
        });
        // Pre-tick hook refreshes the pull-style gauges. Weak, so the hook
        // (owned by the telemetry the Shared also owns) never forms a
        // reference cycle that would leak the engine's thread pool.
        let weak = Arc::downgrade(&shared);
        telemetry.set_hook(move || {
            if let Some(s) = weak.upgrade() {
                s.refresh_gauges();
            }
        });
        let sampler = Some(Sampler::start(
            telemetry,
            Duration::from_millis(config.sample_interval_ms.max(1)),
        ));

        if config.reactor {
            // Start the reactor before spawning workers so an unsupported
            // platform fails cleanly with no threads to clean up.
            let reactor = crate::reactor_front::start(&config, Arc::clone(&shared))?;
            let addr = reactor.addr();
            let workers: Vec<JoinHandle<()>> = (0..config.workers.clamp(1, 256))
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&shared))
                })
                .collect();
            return Ok(Server {
                shared,
                addr,
                front: Front::Reactor { reactor, workers },
                sampler,
            });
        }

        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        // std's default backlog of 128 overflows under a multi-thousand
        // connect storm (the per-connection threads starve the accept loop
        // on small machines) and the kernel eventually resets the waiting
        // connections; widen it to somaxconn.
        sibia_net::sys::widen_listen_backlog(&listener, 4096);
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let workers: Vec<JoinHandle<()>> = (0..config.workers.clamp(1, 256))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(shared, &listener, workers))
        };

        Ok(Server {
            shared,
            addr,
            front: Front::Blocking(accept),
            sampler,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live queue depth (pending jobs).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Requests the graceful drain and blocks until every thread has
    /// exited: pending jobs finish and get responses, new work is refused,
    /// connections close.
    pub fn shutdown(mut self) {
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match self.front {
            Front::Blocking(accept) => {
                let _ = accept.join();
            }
            Front::Reactor { reactor, workers } => {
                // Order matters: the reactor drain stops new frames but
                // waits for every in-flight completion, which needs the
                // workers alive. Only then close the queue and join them.
                reactor.shutdown();
                self.shared.queue.close();
                for w in workers {
                    let _ = w.join();
                }
            }
        }
    }

    /// Blocks until [`crate::signal::signalled`] (SIGTERM/ctrl-c latched),
    /// then drains gracefully. The CLI's foreground path.
    pub fn run_until_signalled(self) {
        crate::signal::install();
        while !crate::signal::signalled() {
            std::thread::sleep(ACCEPT_TICK);
        }
        self.shutdown();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: &TcpListener, workers: Vec<JoinHandle<()>>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                connections.push(std::thread::spawn(move || connection_loop(&shared, stream)));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_TICK),
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
        // Reap finished connection threads so a long-lived daemon does not
        // accumulate handles.
        connections.retain(|h| !h.is_finished());
    }
    // Drain: refuse new jobs, let workers finish the admitted ones, then
    // wait for connections to notice the flag and hang up.
    shared.queue.close();
    for w in workers {
        let _ = w.join();
    }
    for c in connections {
        let _ = c.join();
    }
}
