"""Source-level checks on the library code."""

import ast
import importlib
from collections import Counter
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


def test_trees_are_built_only_from_a_nu_series_or_a_map():
    # trees.py builds trees from a nu-series and graphs.decompose_successors
    # builds them from a map; a third tree builder would fail this check
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "trees.py":
            allowed = set(ast.walk(module))
        elif path.name == "graphs.py":
            allowed = {node for f in ast.walk(module)
                       if isinstance(f, ast.FunctionDef) and f.name == "decompose_successors"
                       for node in ast.walk(f)}
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(module)
                     if isinstance(node, ast.Call) and node not in allowed
                     and getattr(node.func, "id", getattr(node.func, "attr", None)) == "RootedTree")
    assert not found, found


def test_graph_size_errors_are_raised_only_in_graphs():
    # graphs._check_size and graphs.render decide every size bound; a hand
    # copy of either elsewhere would fail this check
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "GraphSizeError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_caller_spells_out_a_uniform_cycle():
    # a Component takes one period of its trees, so a cycle with one tree
    # all round is passed as (tree,), never as an r-fold repetition
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Component"
                    and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult)
                            for arg in node.args[1:])):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_object_is_built_behind_its_constructor():
    # X.__new__(X) skips X.__init__ and its checks; every object is built
    # through its one constructor
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks `import *`
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "amap" if path.stem == "__init__" else f"amap.{path.stem}"
        module = importlib.import_module(name)
        found.extend(f"{name}.{export}" for export in getattr(module, "__all__", ())
                     if not hasattr(module, export))
    assert not found, found


def test_whole_table_ops_map_no_scalar_op():
    # a list op that maps a scalar op costs one method call per element; the
    # table ops read the field's tables instead
    scalar = {"add", "sub", "mul", "div", "inv", "pow"}
    repeated = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    module = ast.parse((SRC / "finitefield.py").read_text())
    gf = next(node for node in module.body if isinstance(node, ast.ClassDef) and node.name == "GF")
    ops = [f for f in gf.body if isinstance(f, ast.FunctionDef)
           and (f.name.endswith("_all") or f.name == "inverse_table")]
    assert len(ops) == 4
    found = []
    for op in ops:
        called = {id(node.func) for node in ast.walk(op) if isinstance(node, ast.Call)}
        in_loop = {id(node) for loop in ast.walk(op) if isinstance(loop, repeated)
                   for node in ast.walk(loop)}
        for node in ast.walk(op):
            if (isinstance(node, ast.Attribute) and node.attr in scalar
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    # a bound scalar op may be mapped later, so it counts too
                    and (id(node) in in_loop or id(node) not in called)):
                found.append(f"{op.name}:{node.lineno}")
    assert not found, found


def test_every_private_definition_is_named_outside_itself():
    # a `_`-prefixed function or class that nothing in the package names is
    # dead, as a kernel left behind by its replacement would be; references
    # inside its own body (recursion) do not count
    modules = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]

    def names(tree):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))

    everywhere = sum((names(module) for module in modules), Counter())
    private = [node for module in modules for node in ast.walk(module)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert private
    found = [f"{node.name}:{node.lineno}" for node in private
             if everywhere[node.name] == names(node)[node.name]]
    assert not found, found
