"""Source layout rules that no other test sees."""

import ast
import importlib
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "cyclomanin").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    # imports sit at module level, so the module graph is visible and a
    # cycle fails at import time rather than on first call
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [f"{path.name}:{node.lineno}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"function-local imports at {', '.join(local)}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_bare_asserts(path):
    # python -O strips assert statements, so no check may rely on one
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements at {', '.join(found)}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_imports_from_tests(path):
    # tests/oracles.py and the tests stay off every verifier path
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert not {name.split(".")[0] for name in names} & {"tests", "oracles"}


def spanned_names():
    # perfbench/tracing.py's SPANNED, read with ast rather than by importing perfbench
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPANNED" for t in node.targets))


def test_traced_names_exist():
    # the traced benchmark patches every name in perfbench/tracing.py's
    # SPANNED; a deleted one raises only in a traced run, so look them up here
    missing = []
    for mod, names in spanned_names().items():
        for name in names:
            obj = importlib.import_module(f"cyclomanin.{mod}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod}.{name}")
    assert not missing, f"spanned names missing from cyclomanin: {', '.join(missing)}"


# public names of src/cyclomanin that only the tests reach, each with its reason
TEST_ONLY = {
    "CycloModule.gen_coords": "the tests' accessor for the class of one symbol",
}


def unreferenced(src_dir):
    """Public defs, classes and methods ("Class.method") of src_dir that no
    name in src_dir or perfbench/ and no entry of SPANNED refers to."""
    trees = [ast.parse(path.read_text()) for path in sorted(src_dir.glob("*.py"))]
    used = {part for names in spanned_names().values() for name in names
            for part in name.split(".")}
    for tree in trees + [ast.parse(path.read_text())
                         for path in (ROOT / "perfbench").glob("*.py")]:
        used |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    defs = [(node.name, node) for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [(f"{qual}.{item.name}", item) for qual, node in defs
             if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, ast.FunctionDef)]
    return sorted(qual for qual, node in defs
                  if not node.name.startswith("_") and node.name not in used)


def test_every_public_name_has_a_caller_outside_tests():
    # reference code the tests alone call lives in tests/oracles.py
    assert unreferenced(ROOT / "src" / "cyclomanin") == sorted(TEST_ONLY)


def test_a_test_only_function_is_caught(tmp_path):
    shutil.copytree(ROOT / "src" / "cyclomanin", tmp_path / "cyclomanin")
    with open(tmp_path / "cyclomanin" / "hecke.py", "a") as fh:
        fh.write("\n\ndef hecke_trace(e, m):\n    return hecke_apply(e, m).values.sum()\n")
    assert "hecke_trace" in unreferenced(tmp_path / "cyclomanin")
