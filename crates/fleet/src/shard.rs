//! Deterministic row → backend assignment.
//!
//! A row is the unit of placement: every cell of one `(network, seed)` row
//! — all of its archs — homes on the same backend. A backend's tensor cache
//! shares synthesis by `(layer, seed)`, so the arch cells of a row reuse
//! one synthesis only when they run on one backend; homing the cells one by
//! one would spread a row over the fleet and synthesize it on every backend
//! that received one of its cells.
//!
//! The home is an FNV-1a-64 hash of `(network, seed)` — the same hash
//! family the persistent store uses for config fingerprints
//! ([`sibia_store::key::fnv64`]), reused here so the whole stack agrees on
//! one deterministic, platform-independent hash. Properties the
//! coordinator relies on:
//!
//! * **deterministic** — the assignment is a pure function of the row key
//!   and the backend count, so two coordinator runs over the same grid and
//!   endpoint list dispatch identically (modulo failover);
//! * **independent of grid shape** — the hash sees the row coordinates,
//!   not a flat index, so adding a seed to the sweep does not reshuffle
//!   every other row;
//! * **balanced** — FNV-1a spreads a fig10-style grid's rows well enough
//!   that no backend is left without a row (pinned by a test below).
//!
//! Failover re-dispatch (a cell moving to a survivor when its home backend
//! dies) is layered on top by the coordinator and never changes result
//! bytes — only which machine computes them.

use sibia_store::key::fnv64;

/// The hash key of one grid row: `network NUL seed_le`.
///
/// The seed rides as fixed-width little-endian bytes, so numeric
/// formatting can never perturb the hash and the key's length alone
/// splits it back into one `(network, seed)`.
pub fn row_key(network: &str, seed: u64) -> u64 {
    let mut key = Vec::with_capacity(network.len() + 9);
    key.extend_from_slice(network.as_bytes());
    key.push(0);
    key.extend_from_slice(&seed.to_le_bytes());
    fnv64(&key)
}

/// The home backend of a row: `row_key % backends`.
///
/// # Panics
///
/// Panics if `backends == 0` — a fleet without backends cannot exist (the
/// coordinator's constructor rejects an empty endpoint list).
pub fn backend_for_row(network: &str, seed: u64, backends: usize) -> usize {
    assert!(backends > 0, "need at least one backend");
    (row_key(network, seed) % backends as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        for backends in [1, 2, 3, 4, 7] {
            for seed in 0..32 {
                let a = backend_for_row("dgcnn", seed, backends);
                let b = backend_for_row("dgcnn", seed, backends);
                assert_eq!(a, b);
                assert!(a < backends);
            }
        }
    }

    #[test]
    fn coordinates_are_unambiguous() {
        assert_ne!(row_key("dgcnn", 1), row_key("dgcnn", 2));
        assert_ne!(row_key("dgcnn", 1), row_key("alexnet", 1));
        // A network name never bleeds into the seed bytes: a name one
        // byte longer shifts the fixed-width seed instead of colliding.
        assert_ne!(row_key("vit", 0x0100), row_key("vit\u{1}", 0x01));
    }

    #[test]
    fn a_fig10_style_grid_spreads_over_backends() {
        // The 7 dense-zoo networks (by protocol name) x 3 seeds = 21 rows
        // over 2 and 4 backends: every backend must home at least one row.
        let nets = [
            "albert-sst2",
            "albert-qqp",
            "albert-mnli",
            "vit",
            "yolov3",
            "monodepth2",
            "dgcnn",
        ];
        assert_eq!(nets.len(), sibia_nn::zoo::dense_benchmarks().len());
        for backends in [2usize, 4] {
            let mut hit = vec![0usize; backends];
            for n in nets {
                for s in [1u64, 2, 3] {
                    hit[backend_for_row(n, s, backends)] += 1;
                }
            }
            assert!(
                hit.iter().all(|&c| c > 0),
                "{backends} backends, rows per backend {hit:?}"
            );
        }
    }

    #[test]
    fn single_backend_takes_everything() {
        for seed in 0..16 {
            assert_eq!(backend_for_row("dgcnn", seed, 1), 0);
        }
    }
}
