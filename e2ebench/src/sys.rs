//! Host-side measurement helpers: process CPU time, peak RSS, the run
//! envelope (commit, cores, kernel tier, toolchain, per-crate line counts)
//! and small order statistics.

use std::path::{Path, PathBuf};
use std::time::Duration;

use sibia_obs::Json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Returns the heap's free pages to the kernel (glibc `malloc_trim`), so
/// memory freed by stopped in-process daemons or a dropped cache is not
/// still resident when the next daemon, sweep or grid starts.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only walks the allocator's own free lists; it
    // takes no pointer and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine thread count (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact quantile of a sorted sample: the rank-`ceil(q*n)` element.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest quantile with at least ten samples above it (the maximum
/// when the sample is too small to support any such quantile).
pub fn tail(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    sorted[sorted.len().saturating_sub(11)]
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A fresh directory for this run's scratch stores, inside the checkout.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("scratch-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Where result files and the replay trace land (relative to the checkout
/// root the benchmark runs from).
pub fn out_dir() -> PathBuf {
    PathBuf::from("e2ebench/out")
}

/// The commit the checkout was made from, read from `.git` without running
/// git; `unknown` outside a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_owned()
        } else {
            head.to_owned()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("unknown")
        .to_owned()
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Non-blank `.rs` lines under `crates/<name>/src`, per crate, sorted by
/// crate name — the line-count ledger. Informational, never gated.
pub fn loc_per_crate() -> Vec<(String, u64)> {
    fn count(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    count(&path)
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path)
                        .unwrap_or_default()
                        .lines()
                        .filter(|l| !l.trim().is_empty())
                        .count() as u64
                } else {
                    0
                }
            })
            .sum()
    }
    let mut out: Vec<(String, u64)> = std::fs::read_dir("crates")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                count(&e.path().join("src")),
            )
        })
        .collect();
    out.sort();
    out
}

/// The run envelope recorded with every result.
pub fn envelope(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let loc = loc_per_crate();
    let total: u64 = loc.iter().map(|(_, n)| n).sum();
    Json::obj(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::Bool(trace)),
        ("commit", Json::from(commit())),
        ("nproc", Json::from(nproc())),
        (
            "kernel_tier",
            Json::from(sibia_sbr::kernels::active().tier.name()),
        ),
        ("rustc", Json::from(rustc_version())),
        (
            "loc",
            Json::Object(
                loc.into_iter()
                    .map(|(name, n)| (name, Json::from(n)))
                    .collect(),
            ),
        ),
        ("loc_total", Json::from(total)),
    ])
}
