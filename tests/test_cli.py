"""End-to-end runs of every CLI subcommand, in process."""

import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cyclomanin.cli import main, parse_flags
from cyclomanin.cyclok2 import build_cyclo_module, e_manin
from cyclomanin.exactlin import matmul_mod
from cyclomanin.hecke import hecke_apply
from cyclomanin.reports import CheckReport

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_schema(rep):
    assert set(rep) == {"checks", "command", "fixtures_written", "params"}
    for c in rep["checks"]:
        assert set(c) == {"details", "name", "pass"}


def test_verify_manin_passes(capsys):
    code, rep = run_cli(capsys, "verify-manin", "--p", "5")
    assert code == 0
    check_schema(rep)
    names = [c["name"] for c in rep["checks"]]
    assert names == ["unit-diagonal relation", "two-term relation",
                     "three-term relation", "module dimension"]
    assert all(c["pass"] for c in rep["checks"])


def test_verify_manin_level_two(capsys):
    code, rep = run_cli(capsys, "verify-manin", "--p", "5", "--n", "2")
    assert code == 0
    assert rep["params"] == {"p": 5, "n": 2, "flags": list(parse_flags("all"))}


def test_verify_hecke_passes(capsys):
    code, rep = run_cli(capsys, "verify-hecke", "--p", "7")
    assert code == 0
    check_schema(rep)
    assert {c["name"] for c in rep["checks"]} == {
        "T_2 eigenvalue q + sigma_q off the axes",
        "T_2 deviation supported at infinity",
        "T_3 eigenvalue q + sigma_q off the axes",
        "T_3 deviation supported at infinity"}


def test_verify_hecke_single_prime(capsys):
    code, rep = run_cli(capsys, "verify-hecke", "--p", "5", "--q", "3")
    assert code == 0
    assert all("T_3" in c["name"] for c in rep["checks"])


def test_verify_hecke_fails_without_the_hecke_families(capsys):
    code, rep = run_cli(capsys, "verify-hecke", "--p", "5", "--flags", "F1-F4")
    assert code == 1
    assert not all(c["pass"] for c in rep["checks"])


def test_failing_verify_hecke_names_its_first_point(capsys):
    p = 37
    code, rep = run_cli(capsys, "verify-hecke", "--p", str(p), "--flags", "F1-F4")
    assert code == 1
    module = build_cyclo_module(p, 1, parse_flags("F1-F4"))
    e = e_manin(module)
    off_axis = e.points.prod(axis=1) % p != 0
    for q, check in zip((2, 3), rep["checks"][::2]):
        expect = (q * e.values + matmul_mod(e.values, module.galois_matrix(q).T, p)) % p
        bad = ((hecke_apply(e, q).values - expect) % p).any(axis=1) & off_axis
        assert bad.any() and check["name"] == f"T_{q} eigenvalue q + sigma_q off the axes"
        x, y = e.points[bad.argmax()].tolist()     # the first in enumerate_X order
        assert check["details"] == (f"fails at {int(bad.sum())} of {int(off_axis.sum())} "
                                    f"points, first at ({x}, {y})")


def test_verify_lvalues(capsys):
    code, rep = run_cli(capsys, "verify-lvalues", "--p", "37", "--k", "32")
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["functional-count"]["details"] == {"count": 1}
    assert by_name["odd-values-match-xi[rho0]"]["details"]["3"] == 14


def test_eis_dim_irregular_and_regular(capsys):
    code, rep = run_cli(capsys, "eis-dim", "--p", "37", "--k", "32",
                        "--primes", "2,3")
    assert code == 0
    details = rep["checks"][0]["details"]
    assert details["dims"] == {"total": 5, "boundary": 1, "parabolic": 4,
                               "plus_eisenstein": 1}
    code, rep = run_cli(capsys, "eis-dim", "--p", "7", "--k", "4")
    assert code == 0
    assert rep["checks"][0]["details"]["dims"]["plus_eisenstein"] == 0


def test_irregular_pairs_sweep_and_csv(capsys, tmp_path):
    out = tmp_path / "pairs.csv"
    code, rep = run_cli(capsys, "irregular-pairs", "--max-p", "110",
                        "--csv", str(out))
    assert code == 0
    assert rep["checks"][0]["details"]["pairs"] == \
        [[37, 32], [59, 44], [67, 58], [101, 68], [103, 24]]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "k"]
    assert rows[1:] == [["37", "32"], ["59", "44"], ["67", "58"],
                        ["101", "68"], ["103", "24"]]


def test_irregular_pairs_sweep_to_1000(capsys):
    code, rep = run_cli(capsys, "irregular-pairs", "--max-p", "1000")
    assert code == 0
    check = rep["checks"][0]
    assert check["name"] == "swept 167 primes"
    pairs = check["details"]["pairs"]
    assert len(pairs) == 81
    assert len({p for p, _ in pairs}) == 64
    assert [691, 12] in pairs and [691, 200] in pairs


def test_lvalues_table_and_csv(capsys, tmp_path):
    out = tmp_path / "lv.csv"
    code, rep = run_cli(capsys, "lvalues", "--p", "37", "--k", "32",
                        "--csv", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rho", "i", "value"]
    assert rows[1] == ["0", "1", "excluded"]
    assert rows[2] == ["0", "2", "0"]
    assert rows[3] == ["0", "3", "14"]
    assert len(rows) == 1 + 31
    assert [r[1] for r in rows[1:]] == [str(i) for i in range(1, 32)]


def test_fixtures_regenerate_bit_exact(capsys, tmp_path):
    outdir = tmp_path / "fx"
    code, rep = run_cli(capsys, "fixtures", "all", "--fixtures", str(outdir))
    assert code == 0
    written = {Path(p).name for p in rep["fixtures_written"]}
    checked_in = {p.name for p in FIXTURE_DIR.glob("*.json")}
    assert written == checked_in and len(written) == 15
    for name in sorted(written):
        fresh = (outdir / name).read_bytes()
        stored = (FIXTURE_DIR / name).read_bytes()
        assert fresh == stored, f"fixture drift in {name}"


def test_fixtures_scope_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        code, rep = run_cli(capsys, "fixtures", "lvalues",
                            "--fixtures", str(outdir))
        assert code == 0
        assert len(rep["fixtures_written"]) == 2
    for name in ("lvalues_p37_k32.json", "lvalues_p5_k4.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    payload = json.loads((a / "lvalues_p37_k32.json").read_text())
    assert payload["functionals"] == 1
    assert payload["values"]["3"] == 14
    assert payload["excluded"] == [1, 31]


def test_usage_errors_exit_two(capsys):
    for argv in (["verify-manin", "--p", "4"],
                 ["verify-manin", "--p", "5", "--flags", "F9"],
                 ["verify-lvalues", "--p", "5", "--k", "5"],
                 ["eis-dim", "--p", "7", "--k", "4", "--primes", "7"],
                 ["eis-dim", "--p", "7", "--k", "4", "--primes", "1"],
                 ["eis-dim", "--p", "7", "--k", "4", "--primes", "4"],
                 ["eis-dim", "--p", "9", "--k", "4"],
                 ["eis-dim", "--p", "3", "--k", "4"],
                 ["verify-hecke", "--p", "37", "--q", "37"],
                 ["verify-hecke", "--p", "7", "--q", "4"],
                 ["lvalues", "--p", "5", "--k", "10"],
                 ["eis-dim", "--p", "2147483647", "--k", "12"],
                 ["eis-dim", "--p", "4294967291", "--k", "12"],
                 ["verify-manin", "--p", "100003"],
                 ["verify-manin", "--p", "37", "--n", "2"],
                 ["irregular-pairs", "--max-p", "2"],
                 ["no-such-command"],
                 []):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_eis_dim_names_the_int64_bound(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eis-dim", "--p", "2147483647", "--k", "12"])
    assert err.value.code == 2
    assert "too large for exact int64 sums of 6 products" in capsys.readouterr().err


def test_report_without_checks_does_not_pass():
    rep = CheckReport("verify-hecke", {})
    assert not rep.all_pass
    rep.add("one check", True)
    assert rep.all_pass


def test_parse_flags_forms():
    assert parse_flags("all") == parse_flags(None)
    assert parse_flags("F1-F4") == ("F1", "F2", "F3", "F4")
    assert parse_flags("F1,F2,F3,F4,F6") == ("F1", "F2", "F3", "F4", "F6")
    with pytest.raises(ValueError):
        parse_flags("F8")


def readme_commands():
    """The commands of the README's command-line block, comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("cyclomanin ")]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, rep = run_cli(capsys, *argv[1:])
        assert code == 0, argv
        check_schema(rep)
    for name in ("pairs.csv", "lv.csv"):
        with open(tmp_path / name, newline="") as fh:
            assert len(list(csv.reader(fh))) > 1, name
    written = sorted(p.name for p in (tmp_path / "fixtures").glob("*.json"))
    assert written == sorted(p.name for p in FIXTURE_DIR.glob("*.json"))
