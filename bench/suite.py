"""Run every workload over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 bench/suite.py --runs 10 [--trace 0] [--save PATH]

Runs ``bench/run.py`` on every workload of BENCHMARK.json with seeds 0 to
``--runs`` - 1 and BENCHMARK.json's ``run_seconds``, interleaving the workloads
so that a drift in host speed spreads over all of them instead of landing
on one.  For each workload and metric it prints the median over the runs,
the quartiles and their distance as a share of the median (the spread the
bounds in BENCHMARK.json are judged against).  It also prints the share of
output rows that failed the check, the host-speed probe, and the median and
highest percentile with at least ten samples beyond it of the per-experiment
``wall_s`` and ``setup_s`` samples, with the sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def upper_percentile(samples):
    """(p, value) for the highest of p75/p90/p95/p99 with >= 10 samples above it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None, None


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the raw results and summary as JSON")
    args = parser.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    results = {name: [] for name in names}
    for seed in range(args.runs):
        for name in names[seed % len(names):] + names[:seed % len(names)]:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            diag = json.loads(lines[-2])["diagnostics"]
            res = json.loads(lines[-1])
            results[name].append({"seed": seed, "result": res, "diagnostics": diag})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in list(res["metrics"].items())[:4]),
                flush=True)

    summary = {}
    for name in names:
        runs = results[name]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        metrics = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med, q1, q3, share = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            metrics[metric] = {"unit": runs[0]["result"]["metrics"][metric]["unit"],
                               "median": med, "q1": q1, "q3": q3, "iqr_share": share,
                               "runs": len(values)}
        pooled = {}
        for key in ("wall_s", "setup_s"):
            samples = [s for r in runs for s in r["diagnostics"]["samples"][key]]
            p, value = upper_percentile(samples)
            pooled[key] = {"median": statistics.median(samples), "samples": len(samples),
                           "upper_percentile": p, "upper_value": value}
        summary[name] = {
            "metrics": metrics, "pooled": pooled,
            "failed_frac": failed / max(attempted, 1), "rows": attempted,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "probe_s": [r["diagnostics"]["probe_s"] for r in runs],
        }

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'workload':<10} {'metric':<32} {'unit':<6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, s in summary.items():
        for metric, m in s["metrics"].items():
            bound = bounds.get(metric)
            print(f"{name:<10} {metric:<32} {m['unit']:<6} {m['median']:>12.5g} "
                  f"{m['q1']:>12.5g} {m['q3']:>12.5g} {m['iqr_share']:>8.3f} "
                  f"{'' if bound is None else bound:>6}")
        print(f"{name:<10} {'failed_frac':<32} {'ratio':<6} {s['failed_frac']:>12.5g}"
              f"   ({s['rows']} rows, all correct: {s['all_correct']})")
        for key, p in s["pooled"].items():
            upper = (f"p{p['upper_percentile']} {p['upper_value']:.4g}"
                     if p["upper_percentile"] else "no percentile with 10 above")
            print(f"{name:<10} {key + ' per experiment':<32} {'s':<6} {p['median']:>12.5g}"
                  f"   ({upper}; n={p['samples']})")
        probe = s["probe_s"]
        print(f"{name:<10} {'probe_s (diagnostic)':<32} {'s':<6} "
              f"{statistics.median(probe):>12.5g}   (min {min(probe):.4g}, max {max(probe):.4g})")
    if args.save:
        Path(args.save).write_text(json.dumps({"summary": summary, "results": results},
                                              indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
