//! Differential fuzzing driver.
//!
//! ```text
//! fuzz [--cases N] [--seed S|from-git-sha] [--no-shrink]
//!      [--corpus-dir DIR] [--replay FILE]
//! ```
//!
//! Generates `N` seeded cases starting at seed `S`, runs each through the
//! differential harness, and on the first disagreement shrinks it to a
//! minimal reproducer, writes it to the corpus directory and exits 1.
//! `--seed from-git-sha` derives the base seed from `git rev-parse HEAD`
//! so every CI commit explores fresh seeds while staying reproducible.
//! `--replay FILE` runs a single `.case` file instead of generating.
//! A campaign prints its wall time when it finishes, pass or fail.

use mpp_testkit::{corpus, gen_case, minimize, run_case, Case};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    cases: u64,
    seed: u64,
    shrink: bool,
    corpus_dir: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        cases: 100,
        seed: 0,
        shrink: true,
        corpus_dir: corpus::corpus_dir(),
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--cases" => {
                opts.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = if v == "from-git-sha" {
                    seed_from_git_sha()
                } else {
                    v.parse().map_err(|e| format!("--seed: {e}"))?
                };
            }
            "--no-shrink" => opts.shrink = false,
            "--corpus-dir" => opts.corpus_dir = PathBuf::from(value("--corpus-dir")?),
            "--replay" => opts.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--cases N] [--seed S|from-git-sha] [--no-shrink] \
                     [--corpus-dir DIR] [--replay FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// First 15 hex digits of HEAD as a u64 (0 when not in a git checkout).
fn seed_from_git_sha() -> u64 {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let sha = String::from_utf8_lossy(&o.stdout);
            u64::from_str_radix(sha.trim().get(..15).unwrap_or("0"), 16).unwrap_or(0)
        }
        _ => 0,
    }
}

fn replay(path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fuzz: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let case = match Case::decode(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fuzz: cannot decode {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match run_case(&case) {
        None => {
            println!("replay {}: ok", path.display());
            ExitCode::SUCCESS
        }
        Some(f) => {
            eprintln!("replay {}: FAIL\n{f}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.replay {
        return replay(path);
    }

    println!(
        "fuzz: {} case(s) from seed {} (shrink: {})",
        opts.cases, opts.seed, opts.shrink
    );
    let start = Instant::now();
    let code = campaign(&opts);
    println!("fuzz: wall time {:.1} s", start.elapsed().as_secs_f64());
    code
}

/// Run the generated cases; on the first failure shrink, save and fail.
fn campaign(opts: &Opts) -> ExitCode {
    for i in 0..opts.cases {
        let seed = opts.seed.wrapping_add(i);
        let case = gen_case(seed);
        let Some(failure) = run_case(&case) else {
            if (i + 1) % 50 == 0 {
                println!("fuzz: {}/{} ok", i + 1, opts.cases);
            }
            continue;
        };
        eprintln!("fuzz: seed {seed} FAILED\n{failure}");
        let (small, small_failure) = if opts.shrink {
            match minimize(&case) {
                Some(pair) => pair,
                None => (case, failure.clone()),
            }
        } else {
            (case, failure.clone())
        };
        let header = format!(
            "shrunk reproducer from seed {seed}\n{small_failure}\nreplay: cargo run -p mpp-testkit --bin fuzz --release -- --replay <this file>"
        );
        let name = format!("shrunk-{seed}");
        match corpus::save(&opts.corpus_dir, &name, &small, &header) {
            Ok(path) => eprintln!(
                "fuzz: minimized reproducer written to {} ({} action(s), {} table(s))",
                path.display(),
                small.actions.len(),
                small.tables.len()
            ),
            Err(e) => eprintln!("fuzz: could not write reproducer: {e}"),
        }
        eprintln!("fuzz: minimized failure:\n{small_failure}");
        return ExitCode::FAILURE;
    }
    println!("fuzz: all {} case(s) passed", opts.cases);
    ExitCode::SUCCESS
}
