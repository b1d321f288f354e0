//! # mpp-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§4). Whether the engine got slower is answered by
//! `benchmark/run.sh --compare`, not here.
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 2 (partitioning overhead) | `cargo run -p mpp-bench --release --bin table2` |
//! | Table 3 + Figure 16 (elimination effectiveness) | `… --bin table3_fig16` |
//! | Figure 17 (runtime improvement) | `… --bin fig17` |
//! | Figure 18(a) (static plan size) | `… --bin fig18a` |
//! | Figure 18(b) (dynamic plan size) | `… --bin fig18b` |
//! | Figure 18(c) (DML plan size) | `… --bin fig18c` |
//! | Figure 14 (cost-based plan space) | `… --bin fig14_planspace` |
//! | cost-model ablation | `… --bin ablation_cost` |
//!
//! Every binary prints a human-readable table and overwrites
//! `results/<name>.json` with one stamped JSON record for EXPERIMENTS.md
//! bookkeeping; history lives in git. Scale knobs come from the
//! `MPPART_SCALE` environment variable (a row-count multiplier,
//! default 1).

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Row-count multiplier from `MPPART_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("MPPART_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a base row count.
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).max(1.0) as usize
}

/// Run `f` a few times and return the median wall-clock duration.
pub fn time_median<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters >= 1);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed());
        drop(out);
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// Time two alternatives back to back, interleaved (a, b, a, b, …), and
/// return the median duration of each. Interleaving cancels slow drift
/// (allocator state, frequency scaling, cache warm-up) that would bias
/// two separately-timed blocks — use this when the point is the *ratio*
/// between the two.
pub fn time_median_pair<A, B>(
    iters: usize,
    mut fa: impl FnMut() -> A,
    mut fb: impl FnMut() -> B,
) -> (Duration, Duration) {
    assert!(iters >= 1);
    let mut sa = Vec::with_capacity(iters);
    let mut sb = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = fa();
        sa.push(t0.elapsed());
        drop(out);
        let t0 = Instant::now();
        let out = fb();
        sb.push(t0.elapsed());
        drop(out);
    }
    sa.sort();
    sb.sort();
    (sa[sa.len() / 2], sb[sb.len() / 2])
}

/// Overwrite `results/<name>.json` with `value` and a `stamp` field
/// saying where it was measured (see [`stamp`]). One record per file:
/// history lives in git.
pub fn write_result(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut fields = vec![("stamp".to_string(), stamp())];
    match value {
        serde_json::Value::Object(f) => fields.extend(f.iter().cloned()),
        other => fields.push(("result".to_string(), other.clone())),
    }
    let record = serde_json::Value::Object(fields);
    let _ = std::fs::write(dir.join(format!("{name}.json")), format!("{record}\n"));
}

/// The commit (`git rev-parse --short HEAD`, or `"unknown"` outside a
/// checkout), unix time, available cores and `MPPART_SCALE` of this run.
fn stamp() -> serde_json::Value {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    serde_json::json!({
        "commit": commit,
        "unix_time": unix_time,
        "cores": cores,
        "mppart_scale": scale(),
    })
}

/// Print a markdown-ish table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    println!("{sep}");
    for row in rows {
        println!("{}", line(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_timing_is_monotone_sane() {
        // One sample per iteration, interleaved a, b, a, b, …; the
        // durations themselves are not asserted on.
        let calls = std::cell::RefCell::new(Vec::new());
        time_median(3, || calls.borrow_mut().push('m'));
        time_median_pair(
            2,
            || calls.borrow_mut().push('a'),
            || calls.borrow_mut().push('b'),
        );
        assert_eq!(calls.into_inner(), vec!['m', 'm', 'm', 'a', 'b', 'a', 'b']);
    }

    #[test]
    fn scaled_never_zero() {
        assert!(scaled(0) >= 1);
        assert!(scaled(100) >= 1);
    }
}
