//! Seeded end-to-end benchmark of the RL compiler and its serving
//! stack, driven only through the crates' public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_compile --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). Exits 1 when an output fails its check, 2 when the
//! run cannot complete.

mod check;
mod client;
mod cold;
mod gen;
mod live;
mod metrics;
mod replay;
mod serving;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;

const USAGE: &str =
    "usage: qrc-perfbench --workload cold_compile|live_mix|train --seed N --seconds N --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
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

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))
        .and_then(|()| match args.workload.as_str() {
            "cold_compile" => cold::run(args.seed, args.seconds, args.trace, &work_dir),
            "live_mix" => live::run(args.seed, args.seconds, args.trace, &work_dir),
            "train" => train::run(args.seed, args.seconds, args.trace, &work_dir),
            other => Err(format!("unknown workload `{other}`\n{USAGE}")),
        });
    let trace_file = work_dir.join("trace.ndjson");
    if trace_file.exists() {
        let kept = PathBuf::from(".bench_work")
            .join(format!("{}-seed{}.trace.ndjson", args.workload, args.seed));
        if let Err(e) = std::fs::rename(&trace_file, &kept) {
            eprintln!("could not keep the trace: {e}");
        }
    }
    if let Err(e) = std::fs::remove_dir_all(&work_dir) {
        eprintln!("could not remove {}: {e}", work_dir.display());
    }
    match result {
        Ok(report) => {
            println!("{}", report.to_line(args.trace));
            if !report.correct {
                eprintln!("some outputs failed their check");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(2);
        }
    }
}
