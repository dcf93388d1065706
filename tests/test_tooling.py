"""Source-level checks on the library code, and a run of its README example."""

import ast
import functools
import importlib
import math
import re
from collections import Counter
from pathlib import Path

import amap
from amap import applications
from amap.dynamics import predicted_graph
from amap.graphs import Component, brute_graph
from amap.integers import IntegerDomain
from amap.quadorder import QuadOrder
from amap.trees import RootedTree

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


def test_only_graphs_decomposes_a_map():
    # graphs.brute_graph reads a decomposition into a whole graph, and every
    # check compares whole graphs; a family check that walked the periodic
    # points of a decomposition by hand would fail this check
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graphs.py":
            continue
        module = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(module)
                     if "decompose_successors" in {getattr(node, "id", None),
                                                   getattr(node, "attr", None)}
                     or isinstance(node, ast.ImportFrom)
                     and any(a.name == "decompose_successors" for a in node.names))
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


def test_no_family_table_is_built_by_deletion_or_insertion():
    # the Redei tables number P^1(F_q) less the roots of a by arithmetic on
    # the code, so no table is patched afterwards: no `del` of a subscript
    # and no `.insert(` call in applications.py
    module = ast.parse((SRC / "applications.py").read_text())
    found = [node.lineno for node in ast.walk(module)
             if isinstance(node, ast.Delete)
             and any(isinstance(t, ast.Subscript) for t in ast.walk(node))
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "insert"]
    assert not found, found


def test_field_element_codes_are_checked_only_in_finitefield():
    # GF.check_codes states the rule for an element code; a hand copy of
    # the check elsewhere would fail this check
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "finitefield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and any(
                    isinstance(part, ast.Constant) and "field element code" in str(part.value)
                    for part in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_prime_field_polynomial_arithmetic_has_no_nested_loop():
    # over a prime field a product, division or gcd is packed big-int
    # arithmetic; the coefficient double loops it replaced live on only as
    # test references (test_packed_poly.py).  Checked: every `k == 1` branch of
    # polynomials.py, also one picked through a name bound to such a test
    # (`packed = F.k == 1 and ...; if packed:`), and each module function it
    # calls, transitively.
    module = ast.parse((SRC / "polynomials.py").read_text())
    functions = {f.name: f for f in module.body if isinstance(f, ast.FunctionDef)}

    def tests_k_is_1(test):
        return any(isinstance(c, ast.Compare) and getattr(c.left, "attr", None) == "k"
                   and isinstance(c.ops[0], ast.Eq)
                   and getattr(c.comparators[0], "value", None) == 1 for c in ast.walk(test))
    flags = {node.targets[0].id for node in ast.walk(module) if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name) and tests_k_is_1(node.value)}

    def is_prime_field_test(test):
        return tests_k_is_1(test) or any(isinstance(n, ast.Name) and n.id in flags
                                         for n in ast.walk(test))

    def nested(node):
        # a loop in the body of a loop; a comprehension's iterables may hold
        # one, since that runs once and not once per element
        if isinstance(node, (ast.For, ast.While)):
            inner = node.body + node.orelse
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            if len(node.generators) > 1:
                return True
            inner = [getattr(node, "elt", None) or node.value] + node.generators[0].ifs
        else:
            return False
        return any(isinstance(x, (ast.For, ast.While, ast.comprehension))
                   for part in inner for x in ast.walk(part))

    todo = [stmt for node in ast.walk(module) if isinstance(node, ast.If)
            and is_prime_field_test(node.test) for stmt in node.body]
    assert len(todo) >= 3  # the branches of Poly.__mul__, Poly.__divmod__ and Poly.gcd
    packed = functions["_distinct_degree"]  # and the packed distinct-degree loop
    assert any(isinstance(node, ast.While) and packed.lineno < node.lineno < packed.end_lineno
               for stmt in todo for node in ast.walk(stmt))
    seen, found = set(), []
    while todo:
        for node in ast.walk(todo.pop()):
            if nested(node):
                found.append(node.lineno)
            name = getattr(getattr(node, "func", None), "id", None)
            if isinstance(node, ast.Call) and name in functions and name not in seen:
                seen.add(name)
                todo.append(functions[name])
    assert seen and not found, found


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
    # table ops, and the sum body that add_all and sub_all share, read the
    # field's tables instead
    scalar = {"add", "sub", "mul", "div", "inv", "pow"}
    repeated = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    module = ast.parse((SRC / "finitefield.py").read_text())
    gf = next(node for node in module.body if isinstance(node, ast.ClassDef) and node.name == "GF")
    ops = [f for f in gf.body if isinstance(f, ast.FunctionDef)
           and (f.name.endswith("_all") or f.name == "inverse_table")]
    assert {f.name for f in ops} == {"add_all", "sub_all", "_sum_all", "mul_all", "inverse_table"}
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


def _names(tree):
    """How often each name is read in `tree`, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_private_definition_is_named_outside_itself():
    # a `_`-prefixed function or class that nothing in the package names is
    # dead, as a kernel left behind by its replacement would be; references
    # inside its own body (recursion) do not count
    modules = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum((_names(module) for module in modules), Counter())
    private = [node for module in modules for node in ast.walk(module)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert private
    found = [f"{node.name}:{node.lineno}" for node in private
             if everywhere[node.name] == _names(node)[node.name]]
    assert not found, found


def test_every_public_graph_and_tree_function_has_a_library_caller():
    # graph and tree algebra that only the tests use lives with the tests
    # (references.py), so a public module-level function of
    # graphs.py or trees.py that nothing else in the package names fails
    # this check; re-exports in __init__.py and references inside its own
    # body do not count
    modules = {path.name: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(module) for module in modules.values()), Counter())
    # perfbench/tracer.py wraps graphs.disjoint_sum in a span, looked up by
    # name, and fails on a missing name
    kept = {"disjoint_sum"}
    public = [node for name in ("graphs.py", "trees.py") for node in modules[name].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    found = [node.name for node in public
             if node.name not in kept and everywhere[node.name] == _names(node)[node.name]]
    assert not found, found


def _domain_calls(node, domains):
    """How many domains node builds: a constructor call or a name bound to a
    domain counts once, twice inside a comprehension (once per item), and
    not at all inside a lambda, which builds nothing until it runs."""
    if isinstance(node, ast.Lambda):
        return 0
    own = node.id in domains if isinstance(node, ast.Name) else isinstance(node, ast.Call) \
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
            "IntegerDomain", "PolyDomain", "QuadOrder")
    inner = sum(_domain_calls(child, domains) for child in ast.iter_child_nodes(node))
    return (own + inner) * (2 if isinstance(node, COMPREHENSIONS) else 1)


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_only_the_domains_module_lists_domains():
    # the one domain list is tests/domains.py: a test module that binds at
    # module level, or parametrizes a test over, a collection of two or more
    # domains fails this check
    found = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        bound = [node for node in module.body if isinstance(node, ast.Assign)]
        domains = {target.id for node in bound if _domain_calls(node.value, ()) == 1
                   for target in node.targets if isinstance(target, ast.Name)}
        tops = [node.value for node in bound] + [
            d for node in ast.walk(module) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for d in node.decorator_list]
        found.extend(f"{path.name}:{node.lineno}" for top in tops for node in ast.walk(top)
                     if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict) + COMPREHENSIONS)
                     and _domain_calls(node, domains) >= 2)
    assert not found, found


def test_no_test_module_imports_another_test_module():
    # a referee or helper that two modules use lives in references.py (the
    # domain list and its references in domains.py); an import from a test_*
    # module fails this check, wherever in the file it stands
    found = [f"{path.name}:{node.lineno}" for path in sorted(Path(__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             for name in ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                          [alias.name for alias in node.names] if isinstance(node, ast.Import)
                          else [])
             if name.split(".")[0].startswith("test_")]
    assert not found, found


def test_no_test_module_redefines_a_shared_referee_or_helper():
    # a referee or helper that two modules use is defined once, at module
    # level in references.py or domains.py: a function of the same name in
    # any other test module, at any depth, is a second copy and fails this
    # check by name
    here = Path(__file__).parent
    shared = {node.name for name in ("references.py", "domains.py")
              for node in ast.parse((here / name).read_text()).body
              if isinstance(node, ast.FunctionDef)}
    assert {"check_factorization", "trial_factor", "scan_splitting", "divisors",
            "reference_redei_successors", "reference_chebyshev_successors",
            "reference_linearized_successors", "redei_by_powers", "chebyshev_by_powers",
            "brute_fold", "assert_prediction_matches_the_walk",
            "assert_prediction_is_the_brute_graph", "assert_one_line_error"} <= shared
    found = [f"{path.name}:{node.lineno} {node.name}" for path in sorted(here.glob("*.py"))
             if path.name not in ("references.py", "domains.py")
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in shared]
    assert not found, found


TABLE_PATH = re.compile(r"_(redei|chebyshev)_(prime|field)_successors")


def _spelled_names(node):
    """The identifiers a node spells: a name, an attribute, an imported name
    or its alias, or a string constant (as `getattr` would take it)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname or ""]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def test_no_test_module_names_one_table_path_of_two():
    # the Redei and Chebyshev tables each have a prime-field path and a
    # list-op path; tests reach them only through `_redei_successors` and
    # `_chebyshev_successors`, so no test judges one path by the other, and
    # a test module that names either path fails this check
    paths = [name for name in vars(applications) if TABLE_PATH.fullmatch(name)]
    assert len(paths) == 4, paths
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(Path(__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             for name in _spelled_names(node) if TABLE_PATH.fullmatch(name)]
    assert not found, found


CODE_TEXT_MODULES = {"references.py", "test_trees.py", "test_graphs.py",
                     "test_component_periods.py", "test_interned_ids.py", "test_cli.py"}
"""The text referee and the tests of the code format itself."""


def _spells_code_text(node):
    """A string constant holding a component code C<len>[ or its %-format,
    or made only of two or more parentheses (a tree code), or an f-string
    whose text starts with C and a replacement field."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and bool(re.search(r"C(%d|[0-9]+)\[", node.value)
                                                    or re.fullmatch(r"[()]{2,}", node.value))
    return (isinstance(node, ast.JoinedStr) and len(node.values) > 1
            and isinstance(node.values[0], ast.Constant) and node.values[0].value == "C"
            and isinstance(node.values[1], ast.FormattedValue))


def test_only_the_references_spell_the_component_code():
    # the code text is spelled on the test side by the text referee in
    # references.py and by the format's own tests, so a change of the format
    # rewrites those alone; every other test module compares trees and
    # graphs by key, and one that spells a code fails this check
    found = [f"{path.name}:{node.lineno}" for path in sorted(Path(__file__).parent.glob("*.py"))
             if path.name not in CODE_TEXT_MODULES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if _spells_code_text(node)]
    assert not found, found


DERIVED_OPERATIONS = {"element_in_ideal", "mul_mod", "ideal_pow", "euler_phi", "local_rows",
                      "gcd_chain", "a_decomposition", "congruence_solution_count"}
EVERY_ENTRY = ast.dump(ast.parse("ENTRIES.values()", mode="eval").body)


def test_every_derived_domain_operation_is_checked_on_every_entry():
    # an operation is checked on every domain when a test parametrized over
    # domains.ENTRIES (or its class, or a module-level mark) names it in an
    # assert or in what an asserting loop runs over, itself or in the test
    # helpers it names; an operation that only builds a case checks nothing
    modules = [ast.parse(path.read_text(), filename=str(path))
               for path in sorted(Path(__file__).parent.glob("*.py"))]
    helpers = {}
    for node in (n for module in modules for n in module.body if isinstance(n, ast.FunctionDef)):
        helpers.setdefault(node.name, []).append(node)
    todo = []
    for module in modules:
        bound = {target.id: node.value for node in module.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        todo += [func for node in ast.walk(module) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and any(EVERY_ENTRY in ast.dump(bound.get(getattr(d, "id", None), d))
                         for d in node.decorator_list)
                 for func in ast.walk(node) if isinstance(func, ast.FunctionDef)]
    assert todo
    checked, seen = set(), set()
    while todo:
        func = todo.pop()
        if func in seen:
            continue
        seen.add(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                todo += helpers.get(node.id, [])
            elif isinstance(node, ast.Assert):
                checked |= _names(node.test).keys()
            elif isinstance(node, ast.For) and any(isinstance(n, ast.Assert) for n in ast.walk(node)):
                checked |= _names(node.iter).keys()
    assert not DERIVED_OPERATIONS - checked, sorted(DERIVED_OPERATIONS - checked)


def test_map_trees_are_built_from_counts_and_only_when_used(monkeypatch):
    # each distinct subtree of a map is built once, from one entry per
    # distinct child: a list with one entry per leaf child, or a tree that
    # hangs nowhere, would fail this check
    entries = []
    real = RootedTree.__init__

    def counting(self, children=()):
        entries.append(len(children))
        real(self, children)

    monkeypatch.setattr(RootedTree, "__init__", counting)
    star = [0] * (10**5 + 1)  # 10^5 leaves on a fixed point
    assert brute_graph(len(star), star).node_count == len(star)
    assert entries == [1]
    entries.clear()
    permutation = list(range(1, 10**5)) + [0]
    assert brute_graph(10**5, permutation).node_count == 10**5
    assert entries == []
    path = [max(v - 1, 0) for v in range(8000)]  # a path into a fixed point
    assert brute_graph(len(path), path).node_count == 8000
    assert len(entries) == 7999 and max(entries) <= 2  # LEAF exists beforehand


def test_prediction_is_bounded_by_the_prime_powers(monkeypatch):
    # n is the product of the first 20 odd primes, where a divisor walk makes
    # 2^20 rows and as many ideal products: the prediction makes one ideal
    # product per prime power and one Component per class of its graph
    n = math.prod([p for p in range(3, 75) if all(p % q for q in range(2, p))])
    muls, built = [], []
    real_mul, real_init = IntegerDomain.ideal_mul, Component.__init__

    def counting_mul(self, *args):
        muls.append(args)
        return real_mul(self, *args)

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(IntegerDomain, "ideal_mul", counting_mul)
    monkeypatch.setattr(Component, "__init__", counting_init)
    graph = predicted_graph(IntegerDomain(), 2, n).graph
    assert len(IntegerDomain().factor(n)) == 20
    assert len(muls) <= 20
    assert len(built) == len(graph.classes)
    assert graph.node_count == n


def test_quadratic_factor_makes_only_the_check_products(monkeypatch):
    # QuadOrder.factor reads the exponents off the HNF; its one use of
    # ideal_mul is the check that the prime powers multiply back to n, so
    # every product inside it is one that check makes.  The instances are
    # the 40 ZI-unit predictions of the predict benchmark's seed 3.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    cycles = importlib.import_module("workloads").setup("predict", 3, False, 40)
    calls = [inst.call for cycle in cycles for inst in cycle if inst.slot == "ZI-unit"]
    depth, counts, results = [0], Counter(), []
    real_mul, real_factor = QuadOrder.ideal_mul, QuadOrder.factor

    def counting_mul(self, *args):
        counts["inside" if depth[0] else "outside"] += 1
        return real_mul(self, *args)

    def counting_factor(self, n):
        depth[0] += 1
        try:
            pairs = real_factor(self, n)
        finally:
            depth[0] -= 1
        results.append((self, pairs))
        return pairs

    monkeypatch.setattr(QuadOrder, "ideal_mul", counting_mul)
    monkeypatch.setattr(QuadOrder, "factor", counting_factor)
    for call in calls:
        call()
    inside = counts["inside"]
    counts.clear()
    for order, pairs in results:  # the check alone, replayed outside factor
        powers = [order.ideal_pow(prime, e) for prime, e in pairs]
        if powers:
            functools.reduce(order.ideal_mul, powers)
    assert len(calls) == 40 and len(results) >= 40
    assert inside == counts["outside"] <= 113, inside  # 436 by the power search


def test_readme_python_blocks_run():
    # the README's library example must track the API it shows
    text = (SRC.parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
