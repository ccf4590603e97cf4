"""Command-line entry point: every verification as a subcommand.

Each subcommand prints one CheckReport as JSON on stdout and exits 0
iff every check passed (1 on a failed check, 2 on usage errors).
The two subcommands whose reports carry a table, irregular-pairs (pair
sweeps) and lvalues (L-value vectors), can additionally write it as CSV
via --csv; fixture regeneration goes through the fixtures subcommand and
writes canonical JSON files.
"""

import argparse
import csv
import os
import sys

from .cyclok2 import (ALL_FLAGS, build_cyclo_module, e_table, rho_basis,
                      verify_hecke_eigenvalue)
from .eisspace import eis_eigenspace
from .exactlin import (check_weight, irregular_weights, is_irregular_pair,
                       is_prime)
from .lvalues import l_values_from_rho, lvalue_identity_report
from .reports import CheckReport, canonical_json

CYCLO_FIXTURE_PS = (5, 7, 11, 13, 37)
EIS_FIXTURE_PAIRS = (
    (37, 32, "paper"), (59, 44, "paper"), (67, 58, "paper"),
    (101, 68, "paper"), (103, 24, "paper"),
    (7, 4, "derived"), (11, 8, "derived"), (13, 6, "derived"),
)
LVALUE_FIXTURE_PAIRS = ((37, 32), (5, 4))


FLAG_FORMS = "'all', a range such as F1-F4, or a comma list such as F1,F2,F3,F4,F6"


def parse_flags(text):
    """Relation-family selector: 'all', a range 'F1-F4', or a comma list."""
    if text in (None, "", "all"):
        return ALL_FLAGS
    if "-" in text:
        try:
            lo, hi = text.split("-")
            picked = tuple(f"F{i}" for i in range(int(lo[1:]), int(hi[1:]) + 1))
        except ValueError:
            raise ValueError(f"--flags {text!r} is not {FLAG_FORMS}") from None
    else:
        picked = tuple(s.strip() for s in text.split(","))
    for f in picked:
        if f not in ALL_FLAGS:
            raise ValueError(f"--flags: unknown relation family {f!r}; use {FLAG_FORMS}")
    return picked


def cmd_verify_manin(args):
    flags = parse_flags(args.flags)
    rep = CheckReport("verify-manin",
                      {"p": args.p, "n": args.n, "flags": list(flags)})
    module = build_cyclo_module(args.p, args.n, flags)
    tab = e_table(module)
    for name, bad in tab.relation_checks().items():
        rep.add(f"{name} relation", bad is None,
                "holds at every point" if bad is None else f"fails at {bad}")
    rep.add("module dimension", True, module.dim)
    return rep


def cmd_verify_hecke(args):
    module = build_cyclo_module(args.p, args.n, parse_flags(args.flags))
    qs = (2, 3) if args.q is None else (args.q,)
    return verify_hecke_eigenvalue(module, qs=qs)


def cmd_verify_lvalues(args):
    return lvalue_identity_report(args.p, args.k)


def cmd_eis_dim(args):
    try:
        primes = tuple(int(s) for s in args.primes.split(","))
    except ValueError:
        raise ValueError(f"--primes {args.primes!r} is not a comma list such as 2,3") from None
    rep = CheckReport("eis-dim",
                      {"p": args.p, "k": args.k, "primes": list(primes)})
    eis = eis_eigenspace(args.p, args.k, primes)
    want = 1 if is_irregular_pair(args.p, args.k) else 0
    rep.add("plus-Eisenstein dimension matches irregularity",
            eis.dim_plus_eisenstein == want, eis.to_dict())
    return rep


def cmd_irregular_pairs(args):
    if args.max_p < 3:
        raise ValueError("--max-p must be at least 3")
    pairs = []
    nprimes = 0
    for p in range(3, args.max_p + 1):
        if not is_prime(p):
            continue
        nprimes += 1
        pairs += [[p, k] for k in irregular_weights(p)]
    rep = CheckReport("irregular-pairs", {"max_p": args.max_p})
    rep.add(f"swept {nprimes} primes", True, {"pairs": pairs})
    rep.table = (("p", "k"), pairs)
    return rep


def cmd_lvalues(args):
    check_weight(args.k, args.p)
    module = build_cyclo_module(args.p)
    rep = CheckReport("lvalues", {"p": args.p, "k": args.k})
    rhos = rho_basis(module, args.k)
    rep.add("functional count", True, len(rhos))
    rows = []
    for r_i, lv in enumerate(l_values_from_rho(module, rhos, args.k)):
        rep.add(f"L-values for rho{r_i}", True,
                {"values": lv.to_dict(), "excluded": sorted(lv.excluded)})
        rows += [(r_i, i, v) for i, v in
                 sorted(lv.to_dict().items(), key=lambda kv: int(kv[0]))]
    rep.table = (("rho", "i", "value"), rows)
    return rep


def _write_fixture(rep, outdir, name, payload):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(canonical_json(payload))
    rep.fixtures_written.append(path)


def cyclo_fixture_payload(p, n=1):
    module = build_cyclo_module(p, n)
    hecke = verify_hecke_eigenvalue(module)
    checks = {"manin": True}
    for c in hecke.checks:
        key = "hecke_" + c["name"].split()[0]
        checks[key] = checks.get(key, True) and c["pass"]
    return {"p": p, "n": n, "flags": list(ALL_FLAGS),
            "dim": module.dim, "checks": checks}


def eis_fixture_payload(p, k, source):
    payload = eis_eigenspace(p, k, (2, 3)).to_dict()
    payload["source"] = source
    return payload


def lvalue_fixture_payload(p, k):
    module = build_cyclo_module(p)
    rhos = rho_basis(module, k)
    payload = {"p": p, "k": k, "functionals": len(rhos), "values": {},
               "excluded": []}
    if len(rhos):
        lv, = l_values_from_rho(module, rhos[:1], k)
        payload["values"] = lv.to_dict()
        payload["excluded"] = sorted(lv.excluded)
    return payload


def cmd_fixtures(args):
    rep = CheckReport("fixtures",
                      {"scope": args.scope, "dir": args.fixtures})
    if args.scope in ("cyclo", "all"):
        for p in CYCLO_FIXTURE_PS:
            _write_fixture(rep, args.fixtures, f"cyclo_p{p}_n1.json",
                           cyclo_fixture_payload(p))
    if args.scope in ("lvalues", "all"):
        for p, k in LVALUE_FIXTURE_PAIRS:
            _write_fixture(rep, args.fixtures, f"lvalues_p{p}_k{k}.json",
                           lvalue_fixture_payload(p, k))
    if args.scope in ("eis", "all"):
        for p, k, source in EIS_FIXTURE_PAIRS:
            _write_fixture(rep, args.fixtures, f"eis_p{p}_k{k}.json",
                           eis_fixture_payload(p, k, source))
    rep.add(f"{args.scope} fixtures recomputed", True,
            len(rep.fixtures_written))
    return rep


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cyclomanin",
        description="Verify cyclotomic Steinberg-symbol identities, Hecke "
                    "eigenvalues, mod-p L-values, and Eisenstein eigenspaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **flag_spec):
        sp = sub.add_parser(name, help=help_text)
        for flag, (kind, default, required, *doc) in flag_spec.items():
            sp.add_argument(flag, type=kind, default=default, required=required,
                            help=doc[0] if doc else None)
        sp.set_defaults(func=func)
        return sp

    # only the subcommands whose reports carry a table take --csv
    csv_spec = (str, "", False, "also write the report's table as CSV here")

    add("verify-manin", cmd_verify_manin,
        "check that e(x,y) satisfies the three Manin relations",
        **{"--p": (int, None, True), "--n": (int, 1, False),
           "--flags": (str, "all", False)})
    add("verify-hecke", cmd_verify_hecke,
        "check (e|T_q) = (q + sigma_q) e away from the axes",
        **{"--p": (int, None, True), "--n": (int, 1, False),
           "--q": (int, None, False), "--flags": (str, "all", False)})
    add("verify-lvalues", cmd_verify_lvalues,
        "check L(psi,i) = rho(xi_i) for odd i, plus the twist identity",
        **{"--p": (int, None, True), "--k": (int, None, True)})
    add("eis-dim", cmd_eis_dim,
        "dimension of the plus-Eisenstein eigenspace at weight k",
        **{"--p": (int, None, True), "--k": (int, None, True),
           "--primes": (str, "2", False,
                        "Hecke primes S, comma-separated (default 2); a small S "
                        "can over-count at a regular pair, and the dimension can "
                        "only fall as S grows")})
    add("irregular-pairs", cmd_irregular_pairs,
        "sweep irregular pairs (p, k) with p up to --max-p",
        **{"--max-p": (int, None, True), "--csv": csv_spec})
    add("lvalues", cmd_lvalues,
        "tabulate the mod-p special L-values attached to each functional",
        **{"--p": (int, None, True), "--k": (int, None, True), "--csv": csv_spec})
    fx = add("fixtures", cmd_fixtures,
             "recompute derived fixtures and write canonical JSON",
             **{"--fixtures": (str, "fixtures", False)})
    fx.add_argument("scope", nargs="?", default="all",
                    choices=("cyclo", "lvalues", "eis", "all"))
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        rep = args.func(args)
    except ValueError as exc:
        ap.exit(2, f"usage error: {exc}\n")
    sys.stdout.write(rep.to_json() + "\n")
    if getattr(args, "csv", "") and rep.table is not None:
        header, rows = rep.table
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return 0 if rep.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
