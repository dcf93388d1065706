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
