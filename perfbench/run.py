"""The cyclomanin benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cyclo_dense --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --write-manifest      # rewrite BENCHMARK.json

A pass runs each of a workload's cases in a fresh child interpreter
(child.py), as one CLI invocation would, one after another and never two
at once.  Passes repeat while another one still fits in --seconds.
Outputs are checked against the oracles in workloads.py after the passes,
outside every timed region.

With --trace 0 the result holds the end-to-end metrics, each a median over
the passes: the pass wall time (the sum of its case times), the pass peak
RSS (the largest of its case processes), and the set-up time (fresh
interpreter until numpy and the package are imported), sampled
SETUP_SAMPLES times plus once per case.  With --trace 1 untraced and
traced passes alternate; the result holds the per-layer metrics of the
traced pass with the median wall time, and its spans are written to
perfbench/out/.  The last line of stdout is the JSON result.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_SECONDS = 28
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = (
    # one pass over the cases, oracle checks excluded
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    # high-water RSS of the process that ran the pass
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    # fresh interpreter until numpy and the package are imported
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
)

# Self times (_s) of the spans in tracing.SPANNED unless noted; counts
# are exact and repeat on every pass with the same seed.
PER_LAYER = (
    ("cyclok2.build_s", "s"),           # build_cyclo_module, children included
    ("cyclok2.assembly_s", "s"),        # the build minus rref_mod
    ("cyclok2.relation_cells", "count"),
    ("cyclok2.relation_mb", "MiB"),     # relation_cells * 8 bytes
    ("cyclok2.hecke_check_s", "s"),
    ("cyclok2.rho_s", "s"),
    ("cyclok2.galois_s", "s"),
    ("cyclok2.build_exponent", "1"),    # log-log slope of build time in p
    ("cyclok2.self_s", "s"),
    ("exactlin.rref_s", "s"),
    ("exactlin.rref_calls", "count"),
    ("exactlin.rref_in_cells", "count"),
    ("exactlin.rank_total", "count"),
    ("exactlin.matmul_s", "s"),
    ("exactlin.matmul_macs", "count"),
    ("exactlin.bernoulli_s", "s"),
    ("exactlin.bernoulli_calls", "count"),
    ("exactlin.bernoulli_exponent", "1"),  # slope of per-prime sweep time in p
    ("exactlin.self_s", "s"),
    ("manin.validate_s", "s"),
    ("manin.points_checked", "count"),
    ("manin.self_s", "s"),
    ("hecke.apply_s", "s"),
    ("hecke.merel_terms", "count"),     # Merel matrices times points
    ("hecke.self_s", "s"),
    ("lvalues.report_s", "s"),
    ("lvalues.dual_act_s", "s"),
    ("lvalues.dual_act_calls", "count"),
    ("lvalues.dual_act_cells", "count"),  # sum of (r+1)^2
    ("lvalues.self_s", "s"),
    ("eisspace.eigenspace_s", "s"),
    ("eisspace.eigenvector_s", "s"),
    ("eisspace.hecke_dual_s", "s"),
    ("eisspace.self_s", "s"),
    ("cli.self_s", "s"),
    ("case.max_s", "s"),                # slowest case, median over untraced passes
    ("other_s", "s"),                   # traced wall time outside every span
    ("trace.wall_s", "s"),              # = the self_s metrics + other_s
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "1"),      # median traced / untraced wall time
)


def manifest(whys):
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in whys.items()],
        "end_to_end": list(END_TO_END),
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in PER_LAYER],
    }


def spawn(root, job):
    """Run child.py; return (set-up seconds, its result, or None without a job)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), root],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(json.dumps(job) if job else "",
                                  timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed with exit code {proc.returncode}")
    return setup, (json.loads(out.splitlines()[-1]) if job else None)


def run_pass(root, workload, cases, traced, setups):
    """One pass, a child per case; appends each child's set-up time to setups."""
    results = []
    for case in cases:
        setup, result = spawn(root, {"workload": workload, "case": case, "trace": traced})
        setups.append(setup)
        results.append(result)
    out = {"wall": sum(r["wall"] for r in results),
           "rss_mb": max(r["rss_mb"] for r in results),
           "cases": results}
    if traced:
        # one timeline: each case's spans shifted past the cases before it
        spans, offset = [], 0.0
        for r in results:
            base = len(spans)
            spans += [[name, parent + base if parent >= 0 else -1,
                       start + offset, end + offset, counts]
                      for name, parent, start, end, counts in r["spans"]]
            offset += r["wall"]
        out["spans"] = spans
        out["layers"] = tracing.layer_metrics(spans, out["wall"])
    return out


def check_outputs(oracle, cases, passes):
    attempted, problems = 0, []
    for done in passes:
        for case, got in zip(cases, done["cases"], strict=True):
            attempted += 1
            errors = [got["error"]] if got["error"] else oracle.check(case, got["record"])
            if errors:
                problems.append(f"{case}: {'; '.join(errors)}")
    return attempted, problems


def layer_result(untraced, traced):
    """Per-layer metrics of the median traced pass, plus cross-pass metrics."""
    units = dict(PER_LAYER)
    counts = [{k: v for k, v in r["layers"].items() if units[k] == "count"} for r in traced]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("exact counts differ between traced passes")
    pick = sorted(traced, key=lambda r: r["wall"])[(len(traced) - 1) // 2]
    metrics = dict(pick["layers"])
    metrics["case.max_s"] = statistics.median(
        max(c["wall"] for c in r["cases"]) for r in untraced)
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall"] for r in traced)
                                       / statistics.median(r["wall"] for r in untraced))
    return {name: metrics[name] for name, _ in PER_LAYER}, pick


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json in the current directory and exit")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cyclomanin", "__init__.py")):
        print("run from the root of a cyclomanin checkout: src/cyclomanin not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.write_manifest:
        with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
            fh.write(json.dumps(manifest(workloads.WORKLOADS), indent=2) + "\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    cases = workloads.make_cases(args.workload, args.seed)
    setups = [spawn(root, None)[0] for _ in range(SETUP_SAMPLES)]
    passes = {False: [], True: []}
    start, longest = time.perf_counter(), 0.0
    for traced in itertools.cycle((False, True) if args.trace else (False,)):
        t0 = time.perf_counter()
        passes[traced].append(run_pass(root, args.workload, cases, traced, setups))
        longest = max(longest, time.perf_counter() - t0)
        have_all = passes[False] and (passes[True] or not args.trace)
        if have_all and time.perf_counter() - start + longest > args.seconds:
            break

    oracle = workloads.Oracle(args.workload, root)
    attempted, problems = check_outputs(oracle, cases, passes[False] + passes[True])
    for line in problems[:20]:
        print("MISMATCH", line, file=sys.stderr)
    if args.trace:
        values, pick = layer_result(passes[False], passes[True])
        units = dict(PER_LAYER)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "cases": cases,
                       "metrics": values, "spans": tracing.span_records(pick["spans"])},
                      fh)
    else:
        units = {m["name"]: m["unit"] for m in END_TO_END}
        values = {
            "wall_s": statistics.median(r["wall"] for r in passes[False]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes[False]),
            "setup_s": statistics.median(setups),
        }

    print("environment", json.dumps(passes[False][0]["cases"][0]["env"]))
    for traced, label in ((False, "untraced"), (True, "traced")):
        if passes[traced]:
            walls = ", ".join(f"{r['wall']:.3f}" for r in passes[traced])
            print(f"{args.workload} seed={args.seed}: {len(cases)} cases, "
                  f"{label} pass wall times {walls} s")
    print(f"{len(setups)} set-up samples")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_ratio = {len(problems) / attempted:.6g} fraction "
          f"({len(problems)} of {attempted})")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
