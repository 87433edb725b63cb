//! Memoized tensor synthesis and slice decomposition.
//!
//! Figure sweeps run the *same* network through several architecture
//! variants (fig10/fig11 use five), and every variant used to re-synthesize
//! and re-decompose every layer from scratch even though the tensors depend
//! only on `(layer, seed)` and the decomposition only additionally on the
//! slice representation. This module caches both levels:
//!
//! * [`DecompCache::tensors`]-level — the quantized input/weight codes of a
//!   layer, keyed by `(layer fingerprint, seed, layer index, sample cap)`;
//! * [`DecompCache::decomp`]-level — a [`LayerDecomp`]: the per-order
//!   [`PlaneStats`] (zero-slice / zero-sub-word / RLE-entry counts measured
//!   with the runtime-dispatched kernels in `sibia_sbr::kernels`) plus
//!   value-group counts,
//!   keyed additionally by [`Repr`].
//!
//! A [`LayerDecomp`] stores **integer counts, never fractions**: every
//! simulated quantity is derived from the counts with exactly the divisions
//! the uncached scalar path performed, in the same order, so cached, uncached,
//! serial, and parallel runs produce bit-identical floating-point results.
//!
//! The cache is `Mutex`-guarded and shared across the worker threads of
//! `crate::parallel` and of the serve daemon. Locks are never held while
//! synthesizing or decomposing, and a key is computed once: a thread that
//! asks for a key another thread is computing waits for that value instead
//! of computing it again. This matters when concurrent requests walk the
//! same `(network, seed)` row layer by layer — a fleet homes a row's arch
//! cells on one backend, whose workers take several of them at once.
//!
//! Long-lived owners (the `sibia-serve` daemon keeps one cache for its whole
//! lifetime) bound memory with [`DecompCache::with_capacity`]: each level
//! keeps at most `cap` entries, evicting the least-recently-used one on
//! overflow. Eviction only ever discards memoized values — a later request
//! for an evicted key recomputes the identical value — so a bounded cache
//! changes memory and wall-clock, never results. Hit/miss counters feed the
//! daemon's `metrics` endpoint.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use sibia_nn::Layer;

use crate::spec::Repr;

/// Zero-structure counts of one slice plane, measured once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneStats {
    /// Slices in the plane.
    pub len: usize,
    /// Exactly-zero slices.
    pub zero_slices: usize,
    /// Sub-words the plane groups into (tail zero-padded).
    pub subwords: usize,
    /// All-four-zero (skippable) sub-words.
    pub zero_subwords: usize,
    /// Entries the DMU's RLE codec (4-bit index) emits for the plane.
    pub rle_entries: usize,
}

impl PlaneStats {
    /// Measures a digit plane in one pass through the active kernel tier.
    pub fn measure_plane(plane: &[i8]) -> Self {
        let c = sibia_sbr::kernels::active().plane_counts(plane, DMU_INDEX_BITS);
        Self {
            len: c.len,
            zero_slices: c.zero_digits,
            subwords: c.subwords,
            zero_subwords: c.zero_subwords,
            rle_entries: c.rle_entries,
        }
    }

    /// Zero sub-word fraction, with the same empty-plane convention as
    /// `sibia_sbr::subword::zero_subword_fraction`.
    pub fn zero_subword_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.zero_subwords as f64 / self.subwords as f64
        }
    }
}

/// Index width of the Sibia DMU's RLE code.
pub const DMU_INDEX_BITS: u8 = 4;

/// Decomposition statistics of one operand tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandStats {
    /// Number of sampled codes the statistics were measured on.
    pub sampled: usize,
    /// Per-slice-order plane statistics, order 0 (LSB) first.
    pub planes: Vec<PlaneStats>,
    /// Groups of four adjacent *values* that are entirely zero (HNPU-style
    /// value-granular skipping; the tail group counts when its members are
    /// all zero).
    pub zero_value_groups: usize,
    /// Total value groups (`sampled.div_ceil(4)`).
    pub value_groups: usize,
}

impl OperandStats {
    /// Measures a quantized code tensor decomposed at `repr`.
    pub fn measure(codes: &[i32], precision: sibia_sbr::Precision, repr: Repr) -> Self {
        let planes = match repr {
            Repr::Sbr => sibia_sbr::sbr::planes(codes, precision),
            Repr::Conventional => sibia_sbr::conv::planes(codes, precision),
        };
        let planes = planes
            .iter()
            .map(|p| PlaneStats::measure_plane(p))
            .collect();
        let zero_value_groups = codes
            .chunks(4)
            .filter(|g| g.iter().all(|&v| v == 0))
            .count();
        Self {
            sampled: codes.len(),
            planes,
            zero_value_groups,
            value_groups: codes.len().div_ceil(4),
        }
    }

    /// Per-order zero-sub-word fractions (the DSM's input).
    pub fn subword_sparsity(&self) -> Vec<f64> {
        self.planes
            .iter()
            .map(|p| p.zero_subword_fraction())
            .collect()
    }
}

/// Everything the cycle model needs to know about one layer's operands
/// under one slice representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDecomp {
    /// Input slice orders (`k_i`).
    pub ki: usize,
    /// Weight slice orders (`k_w`).
    pub kw: usize,
    /// Input-operand statistics.
    pub input: OperandStats,
    /// Weight-operand statistics.
    pub weight: OperandStats,
}

/// Synthesized quantized codes of one layer's operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTensors {
    /// Quantized input-activation codes.
    pub input_codes: Vec<i32>,
    /// Quantized weight codes.
    pub weight_codes: Vec<i32>,
}

/// Cache key for synthesized tensors. The layer itself is fingerprinted via
/// its `Debug` form (layers carry `f32` fields and so cannot implement
/// `Hash` directly); the fingerprint covers every generation-relevant field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TensorKey {
    layer_fp: String,
    seed: u64,
    layer_index: usize,
    sample_cap: usize,
}

/// Cache key for decomposition statistics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DecompKey {
    layer_fp: String,
    seed: u64,
    layer_index: usize,
    sample_cap: usize,
    repr: Repr,
}

/// One bounded, LRU-ish memo level: entries carry a last-use stamp from a
/// per-level logical clock; on overflow the smallest stamp is evicted.
/// Eviction scans linearly — "LRU-ish" — which is exact LRU behaviour at
/// O(n) evict cost, fine for the few-thousand-entry caps a server uses.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    /// Keys a thread is computing right now.
    pending: HashSet<K>,
    tick: u64,
    /// Threads waiting for a pending key; tests read it to order a race.
    #[cfg(test)]
    waiting: usize,
}

impl<K: Eq + Hash + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            pending: HashSet::new(),
            tick: 0,
            #[cfg(test)]
            waiting: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = tick;
            Arc::clone(v)
        })
    }

    /// Inserts and evicts down to `cap`.
    fn insert(&mut self, key: K, value: Arc<V>, cap: Option<usize>) {
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        if let Some(cap) = cap {
            while self.map.len() > cap {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty map");
                self.map.remove(&oldest);
            }
        }
    }
}

/// One memo level: its entries, and a condvar that wakes the threads
/// waiting for a key another thread is computing.
#[derive(Debug)]
struct Level<K, V> {
    shard: Mutex<Shard<K, V>>,
    ready: Condvar,
}

impl<K: Eq + Hash + Clone, V> Level<K, V> {
    fn new() -> Self {
        Self {
            shard: Mutex::new(Shard::new()),
            ready: Condvar::new(),
        }
    }

    fn entries(&self) -> usize {
        self.shard.lock().expect("cache lock").map.len()
    }

    /// The value of `key`: a hit, the value another thread is computing
    /// (waited for), or `compute()` run here without the lock held.
    /// Returns the value and whether this call computed it.
    fn get_or_compute(
        &self,
        key: K,
        cap: Option<usize>,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        let mut shard = self.shard.lock().expect("cache lock");
        loop {
            if let Some(hit) = shard.get(&key) {
                return (hit, false);
            }
            if !shard.pending.contains(&key) {
                break;
            }
            #[cfg(test)]
            {
                shard.waiting += 1;
            }
            shard = self.ready.wait(shard).expect("cache lock");
            #[cfg(test)]
            {
                shard.waiting -= 1;
            }
        }
        shard.pending.insert(key.clone());
        drop(shard);
        let claim = Claim {
            level: self,
            key: &key,
        };
        let value = Arc::new(compute());
        self.shard
            .lock()
            .expect("cache lock")
            .insert(key.clone(), Arc::clone(&value), cap);
        drop(claim);
        (value, true)
    }
}

/// A key being computed. Dropping it — also when the computation panics —
/// clears the mark and wakes the waiters, who then read the value or, if
/// there is none, compute it themselves.
struct Claim<'a, K: Eq + Hash + Clone, V> {
    level: &'a Level<K, V>,
    key: &'a K,
}

impl<K: Eq + Hash + Clone, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        let mut shard = self
            .level
            .shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.pending.remove(self.key);
        self.level.ready.notify_all();
    }
}

/// Thread-safe two-level memo of synthesis and decomposition results,
/// optionally bounded per level.
#[derive(Debug)]
pub struct DecompCache {
    tensors: Level<TensorKey, LayerTensors>,
    decomps: Level<DecompKey, LayerDecomp>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecompCache {
    /// An empty, unbounded cache (sweep-scoped use: the working set is the
    /// grid's layer count, naturally bounded).
    pub fn new() -> Self {
        Self {
            tensors: Level::new(),
            decomps: Level::new(),
            capacity: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty cache holding at most `cap` (≥ 1) entries *per level*, with
    /// least-recently-used eviction. Long-lived owners (the serve daemon)
    /// use this to keep memory bounded across an unbounded request stream.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            capacity: Some(cap.max(1)),
            ..Self::new()
        }
    }

    /// The per-level entry cap, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of cached layer tensors.
    pub fn tensor_entries(&self) -> usize {
        self.tensors.entries()
    }

    /// Number of cached layer decompositions.
    pub fn decomp_entries(&self) -> usize {
        self.decomps.entries()
    }

    /// Lookups answered from the cache (both levels).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute (both levels).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction over all lookups; 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Returns the synthesized tensors for a key, computing them with
    /// `synth` on a miss. The lock is not held during `synth`; a thread
    /// asking for the key meanwhile waits for this value.
    pub fn tensors(
        &self,
        layer: &Layer,
        seed: u64,
        layer_index: usize,
        sample_cap: usize,
        synth: impl FnOnce() -> LayerTensors,
    ) -> Arc<LayerTensors> {
        let key = TensorKey {
            layer_fp: format!("{layer:?}"),
            seed,
            layer_index,
            sample_cap,
        };
        let (value, computed) = self.tensors.get_or_compute(key, self.capacity, synth);
        self.count(computed);
        value
    }

    /// Returns the decomposition statistics for a key, computing them with
    /// `measure` on a miss. The lock is not held during `measure`; a thread
    /// asking for the key meanwhile waits for this value.
    pub fn decomp(
        &self,
        layer: &Layer,
        seed: u64,
        layer_index: usize,
        sample_cap: usize,
        repr: Repr,
        measure: impl FnOnce() -> LayerDecomp,
    ) -> Arc<LayerDecomp> {
        let key = DecompKey {
            layer_fp: format!("{layer:?}"),
            seed,
            layer_index,
            sample_cap,
            repr,
        };
        let (value, computed) = self.decomps.get_or_compute(key, self.capacity, measure);
        self.count(computed);
        value
    }

    fn count(&self, computed: bool) {
        let counter = if computed { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for DecompCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_sbr::subword::{to_subwords, zero_subword_fraction};
    use sibia_sbr::Precision;

    #[test]
    fn plane_stats_match_scalar_definitions() {
        let values: Vec<i32> = (-40..40).map(|v| v * 3 % 41).collect();
        for repr in [Repr::Sbr, Repr::Conventional] {
            let stats = OperandStats::measure(&values, Precision::BITS7, repr);
            let planes = match repr {
                Repr::Sbr => sibia_sbr::sbr::planes(&values, Precision::BITS7),
                Repr::Conventional => sibia_sbr::conv::planes(&values, Precision::BITS7),
            };
            for (p, s) in planes.iter().zip(&stats.planes) {
                assert_eq!(s.len, p.len());
                assert_eq!(s.zero_slices, p.iter().filter(|&&d| d == 0).count());
                let sw = to_subwords(p);
                assert_eq!(s.subwords, sw.len());
                assert_eq!(s.zero_subwords, sw.iter().filter(|w| w.is_zero()).count());
                assert_eq!(s.zero_subword_fraction(), zero_subword_fraction(p));
            }
        }
    }

    #[test]
    fn value_groups_cover_the_tail() {
        let stats = OperandStats::measure(&[0, 0, 0, 0, 1, 0, 0], Precision::BITS7, Repr::Sbr);
        assert_eq!(stats.value_groups, 2);
        assert_eq!(stats.zero_value_groups, 1);
        let stats = OperandStats::measure(&[1, 0, 0, 0, 0, 0], Precision::BITS7, Repr::Sbr);
        assert_eq!(stats.zero_value_groups, 1, "all-zero tail group counts");
    }

    #[test]
    fn cache_hits_return_the_same_value() {
        use sibia_nn::Layer;
        let cache = DecompCache::new();
        let layer = Layer::linear("l", 4, 8, 8);
        let mut calls = 0;
        for _ in 0..3 {
            let t = cache.tensors(&layer, 1, 0, 64, || {
                calls += 1;
                LayerTensors {
                    input_codes: vec![1, 2],
                    weight_codes: vec![3],
                }
            });
            assert_eq!(t.input_codes, vec![1, 2]);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.tensor_entries(), 1);
        // A different layer index is a different stream → separate entry.
        cache.tensors(&layer, 1, 1, 64, || LayerTensors {
            input_codes: vec![],
            weight_codes: vec![],
        });
        assert_eq!(cache.tensor_entries(), 2);
    }

    /// Runs `first` on a thread that claims the key and finishes only once
    /// a second request for the same key waits for it (or has returned
    /// without waiting); returns the second request's value and how many
    /// times its closure ran.
    fn race_same_key(first: impl FnOnce() -> LayerTensors + Send) -> (Vec<i32>, usize) {
        use sibia_nn::Layer;
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        let cache = DecompCache::new();
        let layer = Layer::linear("l", 4, 8, 8);
        let waiting = || cache.tensors.shard.lock().unwrap().waiting;
        let second_done = AtomicBool::new(false);
        let (started, claimed) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.tensors(&layer, 1, 0, 64, || {
                        started.send(()).unwrap();
                        while waiting() == 0 && !second_done.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        first()
                    })
                }));
            });
            claimed.recv().unwrap();
            let mut calls = 0;
            let value = cache.tensors(&layer, 1, 0, 64, || {
                calls += 1;
                LayerTensors {
                    input_codes: vec![2],
                    weight_codes: vec![],
                }
            });
            second_done.store(true, Ordering::SeqCst);
            (value.input_codes.clone(), calls)
        })
    }

    #[test]
    fn a_key_being_computed_is_waited_for_not_computed_again() {
        let (value, calls) = race_same_key(|| LayerTensors {
            input_codes: vec![1],
            weight_codes: vec![],
        });
        assert_eq!((value, calls), (vec![1], 0));
    }

    #[test]
    fn a_panicking_computation_hands_the_key_to_a_waiter() {
        let (value, calls) = race_same_key(|| panic!("synthesis failed"));
        assert_eq!((value, calls), (vec![2], 1));
    }

    #[test]
    fn capacity_is_respected_with_lru_eviction() {
        use sibia_nn::Layer;
        let cache = DecompCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let layer = Layer::linear("l", 4, 8, 8);
        let fill = |codes: Vec<i32>| LayerTensors {
            input_codes: codes,
            weight_codes: vec![],
        };
        // Three distinct keys (layer indices 0/1/2) through a cap of 2.
        cache.tensors(&layer, 1, 0, 64, || fill(vec![0]));
        cache.tensors(&layer, 1, 1, 64, || fill(vec![1]));
        assert_eq!(cache.tensor_entries(), 2);
        // Touch index 0 so index 1 becomes the LRU victim.
        cache.tensors(&layer, 1, 0, 64, || unreachable!("hit"));
        cache.tensors(&layer, 1, 2, 64, || fill(vec![2]));
        assert_eq!(cache.tensor_entries(), 2, "cap respected");
        // Index 0 survived (hit), index 1 was evicted (recompute runs).
        let mut recomputed = false;
        cache.tensors(&layer, 1, 0, 64, || unreachable!("still cached"));
        cache.tensors(&layer, 1, 1, 64, || {
            recomputed = true;
            fill(vec![1])
        });
        assert!(recomputed, "LRU victim was index 1");
        // Counters: misses = 4 computes (0, 1, 2, 1-again), hits = 2.
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.hit_rate(), 2.0 / 6.0);
    }

    #[test]
    fn counters_track_both_levels() {
        use sibia_nn::Layer;
        let cache = DecompCache::new();
        assert_eq!(cache.hit_rate(), 0.0);
        let layer = Layer::linear("l", 4, 8, 8);
        let values: Vec<i32> = (-10..10).collect();
        for _ in 0..3 {
            cache.decomp(&layer, 1, 0, 64, Repr::Sbr, || LayerDecomp {
                ki: 2,
                kw: 2,
                input: OperandStats::measure(&values, Precision::BITS7, Repr::Sbr),
                weight: OperandStats::measure(&values, Precision::BITS7, Repr::Sbr),
            });
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.decomp_entries(), 1);
    }
}
