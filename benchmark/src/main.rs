//! `mpp-benchmark`: one workload, one process.
//!
//! ```text
//! mpp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--out <dir>]
//! ```
//!
//! `--trace 0` runs the end-to-end measurement (two closed-loop
//! connections over a loopback socket, no tracing code running);
//! `--trace 1` runs the traced pass over a fixed seeded sample and writes
//! `<out>/trace_<workload>.json`. Either prints one line per metric —
//! `workload metric value unit n=<samples>` — and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! `benchmark/run.sh` builds this and runs all four workloads.

mod adhoc_plan;
mod e2e;
mod olap_dpe;
mod report;
mod rolling_dml;
mod stats;
mod trace;
mod wire_point;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: mpp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR]",
        workload::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 2014,
        seconds: 30,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let number = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number(),
            "--trace" => args.trace = number() != 0,
            "--out" => args.out = PathBuf::from(value),
            _ => usage(),
        }
    }
    if args.seconds == 0 {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(mut workload) = workload::by_name(&args.workload, args.seed) else {
        usage()
    };
    let report = if args.trace {
        trace::run(workload.as_mut(), &args.workload, &args.out)
    } else {
        e2e::run(workload.as_mut(), Duration::from_secs(args.seconds))
    };
    report.print(&args.workload);
}
