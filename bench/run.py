"""isacsim benchmark: one workload, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload op_tail --seed 0 --seconds 30 --trace 0

The workload's CLI config comes from ``bench/workloads.json``.  ``--seed n``
fixes the config seeds: an untraced run cycles through ``seed_pool`` from
index ``n % len(seed_pool)``, a traced run uses that one seed throughout.
The same seed always gives the same inputs, and every input has a reference
CSV under ``bench/reference``.  The run repeats the experiment, each time in a fresh
process (module caches start cold), one process at a time (closed loop,
one BLAS thread), and starts another only while it can still finish within
``--seconds``.  Every output is checked against the reference (see
check.py), and every experiment must compute the trials recorded in
``bench/reference/trials.json`` without a covariance cache hit.

``--trace 0`` reports the end-to-end metrics as medians over the run:
``wall_s`` (experiment call until the CSV is written), ``trials_per_s``,
``setup_s`` (process start until the experiment call) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced experiments and reports the
per-layer metrics of the traced ones (tracer.py), plus the tracing overhead.

The last line of standard output is the result object; the line before it
holds diagnostics (environment, host-speed probe, samples, byte identity
with the reference).  Outputs and records go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from check import check_csv  # noqa: E402  (after the thread pin)


def load_workloads():
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def probe_s(np):
    """Median time of a fixed loop of small numpy calls: a host-speed diagnostic, never gated.

    Small-matrix calls in a Python loop, like the per-trial loops of the
    workloads, track their speed far better than one large matrix product.
    """
    rng = np.random.default_rng(0)
    h = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    eye = np.eye(4)
    times = []
    for _ in range(15):
        start = time.perf_counter()
        for m in h:
            for _ in range(10):
                np.linalg.slogdet(eye + m @ m.conj().T)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(np):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def write_config(workload, spec, seed):
    path = OUT / f"{workload}-{seed}.json"
    path.write_text(json.dumps({**spec["config"], "seed": seed}))
    return path


def run_experiment(spec, config_path, tag, trace, deadline):
    """Run one experiment in a fresh process; return its record or None."""
    record_path = OUT / f"{tag}.record.json"
    csv_path = OUT / f"{tag}.csv"
    for stale in (record_path, csv_path):
        stale.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path),
           spec["experiment"], str(config_path), str(csv_path), str(trace)]
    with open(OUT / f"{tag}.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=log)
        try:
            proc.wait(timeout=max(deadline - t_spawn, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    if proc.returncode != 0 or not record_path.exists():
        return None
    with open(record_path) as fh:
        record = json.load(fh)
    record["setup_s"] = record["t_call"] - t_spawn
    record["csv"] = csv_path.read_text() if csv_path.exists() else ""
    return record


def main(argv=None):
    spec_doc = load_workloads()
    workloads = spec_doc["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    if not (SRC / "isacsim" / "cli.py").is_file():
        print(f"error: no isacsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    pool = spec_doc["seed_pool"]
    # Untraced runs sweep the pool from the chosen seed, so per-seed work
    # differences average out of the median; traced runs stay on one seed so
    # that their counts repeat exactly.
    seeds = [pool[(args.seed + i) % len(pool)] for i in range(1 if args.trace else len(pool))]
    ref_dir = BENCH / "reference"
    if not all((ref_dir / args.workload / f"{s}.csv").is_file() for s in seeds) \
            or not (ref_dir / "trials.json").is_file():
        print(f"error: no reference outputs under {ref_dir}", file=sys.stderr)
        return 2
    references = {s: (ref_dir / args.workload / f"{s}.csv").read_text() for s in seeds}
    with open(ref_dir / "trials.json") as fh:
        trials_doc = json.load(fh)[args.workload]
    ref_trials = {s: trials_doc[str(s)] for s in seeds}

    OUT.mkdir(exist_ok=True)
    # Byte-compile once so set-up time measures a warm install, as users see it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "isacsim")],
                   check=True, stdout=subprocess.DEVNULL)
    config_paths = {s: write_config(args.workload, spec, s) for s in seeds}

    import numpy as np
    env = environment(np)
    probe = probe_s(np)

    traces = (0, 1) if args.trace else (0,)
    records = {0: [], 1: []}
    attempted = failed = identical = 0
    notes = []
    measure_start = time.monotonic()
    longest = 0.0
    for step in range(sys.maxsize):
        step_start = time.monotonic()
        seed = seeds[step % len(seeds)]
        for trace in traces:
            tag = f"{args.workload}-{seed}-t{trace}-{len(records[trace])}"
            rec = run_experiment(spec, config_paths[seed], tag, trace, deadline)
            rows, bad, same = check_csv(rec["csv"] if rec else "", references[seed])
            if rec is None or rec["rc"] != 0:
                bad = rows
                notes.append(f"{tag}: experiment failed")
            elif not rec["isacsim_file"].startswith(str(SRC)):
                bad = rows
                notes.append(f"{tag}: imported isacsim from {rec['isacsim_file']}")
            elif rec["trials_used"] != ref_trials[seed]:
                bad = rows
                notes.append(f"{tag}: {rec['trials_used']} trials, "
                             f"reference {ref_trials[seed]}")
            elif rec["covariance_cache_hits"]:
                bad = rows
                notes.append(f"{tag}: covariance cache hit in a cold process")
            attempted += rows
            failed += bad
            identical += same
            if rec is not None:
                rec["rows"] = max(len(rec.pop("csv").splitlines()) - 1, 0)
                rec["seed"] = seed
                records[trace].append(rec)
        longest = max(longest, time.monotonic() - step_start)
        now = time.monotonic()
        if now - measure_start + longest > args.seconds or now + longest > deadline:
            break

    runs = records[0]
    if not runs or (args.trace and not records[1]):
        print("error: no experiment produced a record", file=sys.stderr)
        return 3
    median, median_low = statistics.median, statistics.median_low
    walls = [r["wall_s"] for r in runs]
    if args.trace:
        traced = records[1]
        # counts repeat exactly, so median_low keeps them whole numbers
        metrics = {name: (median_low if isinstance(value, int) else median)(
                       [r["layers"][name] for r in traced])
                   for name, value in traced[0]["layers"].items()}
        metrics["cli.rows"] = traced[0]["rows"]
        metrics["trace.wall_s"] = median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(walls)
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        metrics = {
            "wall_s": median(walls),
            "trials_per_s": median(r["trials_used"] / r["wall_s"] for r in runs),
            "setup_s": median(r["setup_s"] for r in runs),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        }
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}

    diagnostics = {
        "workload": args.workload, "trace": args.trace, "config": spec["config"],
        "seeds": [r["seed"] for r in runs], "trials": [r["trials_used"] for r in runs],
        "experiments": len(runs) + len(records[1]),
        "byte_identical": identical, "failed_frac": failed / max(attempted, 1),
        "probe_s": probe, "measured_s": time.monotonic() - measure_start,
        "samples": {k: [r[k] for r in runs] for k in ("wall_s", "setup_s", "peak_rss_mb")},
        "notes": notes, "env": env,
    }
    if args.trace:
        diagnostics["spans"] = records[1][0]["spans"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"diagnostics": diagnostics, "result": result}, fh, indent=1)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


def _benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
