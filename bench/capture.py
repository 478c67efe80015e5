"""Write the reference outputs the benchmark checks against.

Usage (from the root of a checkout): python3 bench/capture.py

Runs every workload once per seed of the pool, traced, and stores the CSV
as ``reference/<workload>/<seed>.csv`` and the trials its estimates report
in ``reference/trials.json``.  Run it only at the commit whose outputs are
the reference; a later run would make the check compare a commit with
itself.
"""

import json
import sys
import time

import run


def main():
    doc = run.load_workloads()
    run.OUT.mkdir(exist_ok=True)
    ref_dir = run.BENCH / "reference"
    trials = {}
    for name, spec in doc["workloads"].items():
        (ref_dir / name).mkdir(parents=True, exist_ok=True)
        trials[name] = {}
        for seed in doc["seed_pool"]:
            config_path = run.write_config(name, spec, seed)
            rec = run.run_experiment(spec, config_path, f"capture-{name}-{seed}", 1,
                                     time.monotonic() + run.RUN_LIMIT_S)
            if rec is None or rec["rc"] != 0 or rec["layers"]["downlink.covariance_cache_hits"]:
                print(f"error: {name} seed {seed} failed", file=sys.stderr)
                return 1
            (ref_dir / name / f"{seed}.csv").write_text(rec["csv"])
            trials[name][str(seed)] = rec["trials_used"]
            print(f"{name} seed {seed}: {rec['trials_used']} trials, {rec['wall_s']:.2f} s")
    with open(ref_dir / "trials.json", "w") as fh:
        json.dump(trials, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
