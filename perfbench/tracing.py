"""Spans around calls into the package's public functions, and the per-layer
metrics derived from them.

`Tracer.install` patches the names callers look up: every module
attribute bound to a spanned function (so imported names and
function-local `from .x import y` are covered), and methods on their
class.  Nothing under src/ is edited.  Spans stay in memory as
[name, parent, start, end, counts], parent being an index into the list
or -1, and are written out by the caller.

Leaf arithmetic helpers (inv_mod, omega_pow, pow_arr, binom_table, ...)
are not spanned: they run thousands of times per case, and their time
belongs to the function that called them.
"""

import functools
import importlib
import math
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "cyclok2", "eisspace", "exactlin", "hecke", "lvalues", "manin")

SPANNED = {
    "cyclok2": ("build_cyclo_module", "e_table", "e_manin", "verify_hecke_eigenvalue",
                "rho_basis", "xi_class", "CycloModule.galois_matrix"),
    "exactlin": ("rref_mod", "kernel_mod", "matmul_mod", "coords_in_rowspace",
                 "is_irregular_pair", "bernoulli_over_k_mod"),
    "manin": ("enumerate_X", "is_supported_at_infty", "ManinTable.relation_checks"),
    "hecke": ("merel_set", "hecke_apply"),
    "lvalues": ("dual_act_matrix", "gamma_infty_invariants", "l_values_from_rho",
                "lvalue_identity_report"),
    "eisspace": ("eis_eigenspace", "eis_eigenvector", "hecke_matrix_dual",
                 "level1_space", "boundary_space", "conj_matrix"),
    "cli": ("main",),
}


def _matmul_macs(args, out):
    a, b = np.shape(args[0]), np.shape(args[1])
    return {"macs": math.prod(a) * (b[-1] if len(b) > 1 else 1)}


def _rref_counts(args, out):
    return {"cells": math.prod(np.shape(args[0])), "rank": len(out[1])}


def _counters(hecke):
    merel_set = hecke.merel_set
    return {
        "cyclok2.build_cyclo_module": lambda args, out: {"p": args[0]},
        "exactlin.rref_mod": _rref_counts,
        "exactlin.matmul_mod": _matmul_macs,
        "exactlin.is_irregular_pair": lambda args, out: {"p": args[0]},
        "manin.ManinTable.relation_checks": lambda args, out: {"points": len(args[0].points)},
        "hecke.hecke_apply": lambda args, out: {
            "terms": len(merel_set(args[1])) * len(args[0].points)},
        "lvalues.dual_act_matrix": lambda args, out: {"cells": (args[1] + 1) ** 2},
    }


class Tracer:
    """Records a span for every call of a spanned function once installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._counters = {}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, out)
            return out

        return traced

    def install(self):
        """Patch every spanned function and method of the package."""
        mods = {m: importlib.import_module(f"cyclomanin.{m}") for m in MODULES}
        self._counters = _counters(mods["hecke"])
        for modname, attrs in SPANNED.items():
            mod = mods[modname]
            for attr in attrs:
                name = f"{modname}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                    continue
                orig = getattr(mod, attr)
                traced = self.wrap(name, orig)
                for other in mods.values():
                    for key in [k for k, v in vars(other).items() if v is orig]:
                        setattr(other, key, traced)
        return self


def span_records(spans):
    """Spans as JSON objects, counts inlined."""
    return [dict(name=name, parent=parent, start=start, end=end, **(counts or {}))
            for name, parent, start, end, counts in spans]


def _slope(points):
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass lasting `wall` seconds.

    A span's self time is its duration minus the time its child spans
    cover; each module's self times plus `other_s` (time outside every
    span) add up to `wall`.
    """
    dur = [end - start for _, _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    self_s = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    build_times, sweep_times = [], defaultdict(float)
    for i, (name, parent, _, _, counts) in enumerate(spans):
        self_s[name] += dur[i] - covered[i]
        total[name] += dur[i]
        calls[name] += 1
        for key, val in (counts or {}).items():
            if key != "p":
                count[f"{name}:{key}"] += val
        if name == "cyclok2.build_cyclo_module":
            build_times.append((counts["p"], dur[i]))
        elif name == "exactlin.is_irregular_pair":
            sweep_times[counts["p"]] += dur[i]
        elif (name == "exactlin.rref_mod" and parent >= 0
              and spans[parent][0] == "cyclok2.build_cyclo_module"):
            count["relation_cells"] += counts["cells"]
    module_self = {m: sum((v for k, v in self_s.items() if k.split(".")[0] == m), 0.0)
                   for m in MODULES}
    other = wall - sum(d for d, s in zip(dur, spans) if s[1] < 0)
    accounted = sum(module_self.values()) + other
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError(f"span self times add up to {accounted}, pass took {wall}")
    metrics = {f"{m}.self_s": module_self[m] for m in MODULES}
    metrics.update({
        "cyclok2.build_s": total["cyclok2.build_cyclo_module"],
        "cyclok2.assembly_s": self_s["cyclok2.build_cyclo_module"],
        "cyclok2.relation_cells": count["relation_cells"],
        "cyclok2.relation_mb": count["relation_cells"] * 8 / 2 ** 20,
        "cyclok2.hecke_check_s": self_s["cyclok2.verify_hecke_eigenvalue"],
        "cyclok2.rho_s": self_s["cyclok2.rho_basis"],
        "cyclok2.galois_s": self_s["cyclok2.CycloModule.galois_matrix"],
        "cyclok2.build_exponent": _slope(build_times),
        "exactlin.rref_s": self_s["exactlin.rref_mod"],
        "exactlin.rref_calls": calls["exactlin.rref_mod"],
        "exactlin.rref_in_cells": count["exactlin.rref_mod:cells"],
        "exactlin.rank_total": count["exactlin.rref_mod:rank"],
        "exactlin.matmul_s": self_s["exactlin.matmul_mod"],
        "exactlin.matmul_macs": count["exactlin.matmul_mod:macs"],
        "exactlin.bernoulli_s": (self_s["exactlin.is_irregular_pair"]
                                 + self_s["exactlin.bernoulli_over_k_mod"]),
        "exactlin.bernoulli_calls": calls["exactlin.bernoulli_over_k_mod"],
        # per-prime sweep time; below p = 50 call overhead hides the recursion
        "exactlin.bernoulli_exponent": _slope(
            [(p, t) for p, t in sweep_times.items() if p >= 50]),
        "manin.validate_s": self_s["manin.ManinTable.relation_checks"],
        "manin.points_checked": count["manin.ManinTable.relation_checks:points"],
        "hecke.apply_s": self_s["hecke.hecke_apply"],
        "hecke.merel_terms": count["hecke.hecke_apply:terms"],
        "lvalues.report_s": self_s["lvalues.lvalue_identity_report"],
        "lvalues.dual_act_s": self_s["lvalues.dual_act_matrix"],
        "lvalues.dual_act_calls": calls["lvalues.dual_act_matrix"],
        "lvalues.dual_act_cells": count["lvalues.dual_act_matrix:cells"],
        "eisspace.eigenspace_s": self_s["eisspace.eis_eigenspace"],
        "eisspace.eigenvector_s": self_s["eisspace.eis_eigenvector"],
        "eisspace.hecke_dual_s": self_s["eisspace.hecke_matrix_dual"],
        "other_s": other,
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    })
    return metrics
