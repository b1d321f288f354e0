#!/usr/bin/env python3
"""Runs the four workloads, each pass in its own process, and compares sets.

Called by run.sh, which builds the binary first:

    suite.py --bin BIN [--seed N] [--seconds S] [--twice]
    suite.py --compare A.json B.json
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Traced counts of these must repeat exactly from run to run.
READ_ONLY = ("wire_point", "olap_dpe", "adhoc_plan")
# A set-up time counts as regressed only when it also moved this much.
SETUP_ABS_S = 0.5
# End-to-end runs per workload in each set of --twice; a set is their median.
RUNS_TWICE = 3


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_pass(binary, workload, seed, seconds, trace):
    """One workload, one pass, one process. Echoes its metric lines."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} --trace {trace}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    samples = {}
    # `# workload remark` lines: the steal share, an unsupported percentile.
    result["notes"] = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    for line in lines[:-1]:
        print(line)
        parts = line.split()
        if len(parts) == 5 and parts[4].startswith("n="):
            _, name, value, unit, n = parts
            samples[name] = {"value": float(value), "unit": unit, "samples": int(n[2:])}
    # Every printed metric with its sample count; the last line's reported ones win.
    for name, m in result["metrics"].items():
        samples.setdefault(name, {}).update(m)
    result["metrics"] = samples
    return result


def run_suite(args, runs, path):
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    doc = {
        "commit": commit or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "window_s": args.seconds,
        "runs": runs,
        "workloads": {},
    }
    ok = True
    for w in spec()["workloads"]:
        name = w["name"]
        # The end-to-end pass, `runs` times: the box is a shared VM whose
        # speed shifts for minutes at a time, so a set is a median of runs.
        passes = [run_pass(args.bin, name, args.seed, args.seconds, 0) for _ in range(runs)]
        e2e = passes[0]
        for metric, m in e2e["metrics"].items():
            values = [p["metrics"][metric]["value"] for p in passes if metric in p["metrics"]]
            m["value"] = statistics.median(values)
            if len(values) > 1:
                m["runs"] = values
        e2e["correct"] = all(p["correct"] for p in passes)
        e2e["attempted"] = sum(p["attempted"] for p in passes)
        e2e["failed"] = sum(p["failed"] for p in passes)
        traced = run_pass(args.bin, name, args.seed, args.seconds, 1)
        ok &= e2e["correct"] and traced["correct"]
        doc["workloads"][name] = {
            "correct": e2e["correct"] and traced["correct"],
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "end_to_end": e2e["metrics"],
            "notes": [note for p in passes for note in p["notes"]],
            "traced_checks": {"attempted": traced["attempted"], "failed": traced["failed"]},
            "per_layer": traced["metrics"],
        }
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"# wrote {os.path.relpath(path, ROOT)}" + ("" if ok else " (RESULT CHECKS FAILED)"))
    return ok


def is_count(name):
    """Per-layer metrics that are counts (or ratios of counts), not timings."""
    return not (name.endswith("_us") or "_us." in name or name.startswith("storage.")
                or name == "trace.sum_vs_whole")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bad = 0
    print(f"{'workload':12} {'metric':18} {'A':>12} {'B':>12} {'B vs A':>8} {'bound':>6}")
    for w in spec()["workloads"]:
        name = w["name"]
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec()["end_to_end"]:
            va = wa["end_to_end"][m["name"]]["value"]
            vb = wb["end_to_end"][m["name"]]["value"]
            diff = (vb - va) / va
            verdict = ""
            if m["name"].startswith("write_lat_") and name in READ_ONLY:
                # The write probe: reported because every workload must
                # report every metric, but it says nothing about the workload.
                verdict = "(probe, not gated)"
            elif abs(diff) > m["bound"] and not (m["name"] == "setup_s" and abs(vb - va) <= SETUP_ABS_S):
                verdict = "UNRESOLVED: the two sets differ by more than the bound"
                bad += 1
            print(f"{name:12} {m['name']:18} {va:12.4f} {vb:12.4f} {diff:+8.1%} {m['bound']:6.2f} {verdict}")
        fa = wa["failed"] / wa["attempted"]
        fb = wb["failed"] / wb["attempted"]
        verdict = ""
        if fb > fa or not (wa["correct"] and wb["correct"]):
            verdict = "FAILED: result checks"
            bad += 1
        print(f"{name:12} {'fail_share':18} {fa:12.4f} {fb:12.4f} {'':8} {'any':>6} {verdict}")
        if name in READ_ONLY:
            for metric, ma in wa["per_layer"].items():
                mb = wb["per_layer"].get(metric)
                if is_count(metric) and (mb is None or ma["value"] != mb["value"]):
                    print(f"{name:12} {metric}: traced count differs: {ma['value']} vs "
                          f"{mb and mb['value']}")
                    bad += 1
    print("# the two sets agree" if bad == 0 else f"# {bad} disagreement(s)")
    return bad == 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--bin")
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--twice", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    if not args.bin:
        p.error("--bin is required (run.sh passes it)")
    if args.twice:
        first, second = os.path.join(OUT, "first.json"), os.path.join(OUT, "second.json")
        ok = run_suite(args, RUNS_TWICE, first)
        ok &= run_suite(args, RUNS_TWICE, second)
        shutil.copyfile(second, os.path.join(OUT, "latest.json"))
        ok &= compare(first, second)
    else:
        ok = run_suite(args, 1, os.path.join(OUT, "latest.json"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
