//! End-to-end benchmark of the Sibia stack.
//!
//! ```text
//! e2ebench --workload <fig10-cold|serve-warm|fleet-cold> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! e2ebench/Cargo.toml -- ...`). The workload seed derives every simulator
//! seed; the timed window lasts `--seconds`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The run
//! envelope and every measured value also land in
//! `e2ebench/out/<workload>-seed<n>-trace<t>.json`; a traced run adds the
//! replay's Chrome trace (`*.trace.jsonl`) and prints its self-time table.
//! See `e2ebench/README.md` for the metric definitions and predictions.
//!
//! `serve-warm` runs on request but is not among the workloads of
//! `BENCHMARK.json`: on a shared 2-vCPU host its figures move with the
//! host's speed by more than the 0.25 bound from one run to the next (see
//! the README).

mod fig10;
mod fleet;
mod paper;
mod replay;
mod report;
mod serve;
mod sys;

use std::process::ExitCode;

use sibia_obs::Json;

use report::Report;

/// The `k`-th simulator seed of a run with workload seed `seed`: distinct
/// per grid (or sweep seed) within a run, and across workload seeds.
pub fn grid_seed(seed: u64, k: u64) -> u64 {
    (seed % 1_000_000_000) * 100_000 + k + 1
}

const WORKLOADS: [&str; 3] = ["fig10-cold", "serve-warm", "fleet-cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <fig10-cold|serve-warm|fleet-cold> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(sys::out_dir()) {
        eprintln!(
            "e2ebench: cannot create {} (run from the repository root): {e}",
            sys::out_dir().display()
        );
        return ExitCode::FAILURE;
    }
    let envelope = sys::envelope(&args.workload, args.seed, args.seconds, args.trace);
    println!("envelope {envelope}");

    let mut rep = Report::default();
    match args.workload.as_str() {
        "fig10-cold" => fig10::run(args.seed, args.seconds, args.trace, &mut rep),
        "serve-warm" => serve::run(args.seed, args.seconds, args.trace, &mut rep),
        "fleet-cold" => fleet::run(args.seed, args.seconds, args.trace, &mut rep),
        other => unreachable!("workload {other} was validated"),
    }
    rep.set(
        "fail_ratio",
        sys::ratio(rep.failed as f64, rep.attempted.max(1) as f64),
    );
    print!("{}", rep.table());

    let result = Json::obj(vec![
        ("correct", Json::Bool(rep.correct())),
        ("attempted", Json::from(rep.attempted.max(1))),
        ("failed", Json::from(rep.failed)),
        ("metrics", rep.metrics_json(args.trace)),
    ]);
    let record = Json::obj(vec![
        ("envelope", envelope),
        ("result", result.clone()),
        (
            "problems",
            Json::Array(
                rep.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
    ]);
    let path = sys::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("e2ebench: could not write {}: {e}", path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
