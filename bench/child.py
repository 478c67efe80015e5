"""One timed experiment in a fresh process.

Usage: child.py RECORD EXPERIMENT CONFIG OUT TRACE

Imports isacsim from the PYTHONPATH the parent sets, installs the tracer
(every traced function with TRACE 1, only ``tracer.COUNTED`` with TRACE 0),
calls the public CLI entry ``isacsim.cli.main`` and writes a JSON record:
the monotonic time of the call (the parent subtracts its spawn time to get
set-up time), the call's wall time, the exit code, the peak resident memory
of this process, the trials the estimates computed, the covariance cache
hits and, when traced, the span aggregates.  A fresh
process per experiment keeps module-level caches cold.
"""

import json
import resource
import sys
import time


def main(argv):
    record_path, experiment, config, out, trace = argv
    from isacsim import cli
    from tracer import COUNTED, Tracer

    tracer = Tracer(None if trace == "1" else COUNTED).install()
    t_call = time.monotonic()
    rc = cli.main(["--experiment", experiment, "--config", config, "--out", out])
    wall = time.monotonic() - t_call
    record = {
        "rc": rc,
        "t_call": t_call,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "isacsim_file": cli.__file__,
        "trials_used": tracer.trials_used,
        "covariance_cache_hits": tracer.covariance_cache_hits,
    }
    if trace == "1":
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.spans()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
