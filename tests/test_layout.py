"""Source layout rules that no other test sees."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "cyclomanin").glob("*.py"))


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
