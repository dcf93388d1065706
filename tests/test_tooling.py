"""Source-level checks on the library code."""

import ast
from pathlib import Path

import amap

SRC = Path(amap.__file__).parent


def test_library_has_no_assert_statements():
    # asserts vanish under python -O; library invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_library_has_no_function_level_imports():
    # an import inside a function hides a module dependency, as a circular
    # import workaround does; every import belongs at module level
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                             if isinstance(inner, (ast.Import, ast.ImportFrom)))
    assert not found, found
