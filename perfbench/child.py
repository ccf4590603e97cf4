"""One benchmark case in a fresh interpreter, as one CLI invocation runs.

Usage: python3 child.py <checkout root>

Imports numpy and the package from <root>/src, prints "ready", then reads
one job as JSON on stdin: {"workload", "case", "trace"}.  With empty
stdin it exits there, which makes it a set-up time sample.  Otherwise it
runs the case and prints one JSON line: the case's wall time, its record
or error, this process's peak RSS, the environment, and with tracing the
spans as [name, parent, start, end, counts] with times from the case start.
"""

import json
import os
import resource
import sys
import time


def _environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "process_threads": threads,
    }


def main():
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    import numpy  # noqa: F401
    import cyclomanin.cli  # noqa: F401  (imports every layer)
    print("ready", flush=True)
    job = sys.stdin.read()
    if not job:
        return 0
    job = json.loads(job)

    import tracing
    import workloads
    tracer = tracing.Tracer().install() if job["trace"] else None
    t0 = time.perf_counter()
    try:
        record, error = workloads.run_case(job["workload"], job["case"]), None
    except Exception as exc:  # a failing case is reported to the oracle check
        record, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0

    result = {"wall": wall, "record": record, "error": error,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": _environment()}
    if tracer:
        result["spans"] = [[name, parent, start - t0, end - t0, counts]
                           for name, parent, start, end, counts in tracer.spans]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
