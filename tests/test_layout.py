"""Source layout rules that no other test sees."""

import ast
import importlib
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


def test_traced_names_exist():
    # the traced benchmark patches every name in perfbench/tracing.py's
    # SPANNED; a deleted one raises only in a traced run, so look them up
    # here, reading the table with ast rather than importing perfbench
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    spanned = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "SPANNED" for t in node.targets))
    missing = []
    for mod, names in spanned.items():
        for name in names:
            obj = importlib.import_module(f"cyclomanin.{mod}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod}.{name}")
    assert not missing, f"spanned names missing from cyclomanin: {', '.join(missing)}"
