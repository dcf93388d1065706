"""The linear successor table and the interned tree labelling, against the
code they replaced.

`domains.reference_successors` keeps the earlier per-residue body of
`dynamics.brute_amap_graph` (one `mul_mod` and one dict lookup per residue),
and `references.reference_decompose` the first body of
`graphs.decompose_successors` (a walk for the cycles, one `RootedTree` per
node), as test-only references; `references.reference_code` renders the
canonical code from the same walk as eager text.
"""

import itertools
import operator
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amap import finitefield
from amap.base import Domain
from amap.dynamics import brute_amap_graph
from amap.finitefield import GF, field
from amap.graphs import FunctionalGraph, brute_graph, decompose_successors
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain, _digit_sums, _fp_linear_table
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import RootedTree
from domains import ENTRIES, reference_successors
from references import branch_maps, cyc, random_maps, reference_code, reference_decompose


# ---- seeded instances: each entry's, small and few ----

# every residue is listed, so per family of domains the cases are as few and
# small as the hand-written ones this source replaced: (largest norm, count)
TABLE = {"Z": (1100, 72), "poly": (729, 40), "quad": (300, 72)}


def _cases(family):
    """(domain, a, n) from the grid of each entry of a kind: Z, poly or quad."""
    cap, count = TABLE.get(family, (300, 72))
    return [(entry.dom, a, n) for entry in ENTRIES.values()
            if entry.dom.domain_json()["kind"] == family
            for a, n in entry.instances(cap, count)[:count]]


FAMILIES = sorted({entry.dom.domain_json()["kind"] for entry in ENTRIES.values()})


@pytest.mark.parametrize("family", FAMILIES)
def test_successor_table_matches_per_residue_reference(family):
    for dom, a, n in _cases(family):
        case = (dom, dom.describe_element(a), dom.describe_ideal(n))
        table = dom.successors(a, n)
        expected = reference_successors(dom, a, n)
        assert table == expected, case
        assert brute_amap_graph(dom, a, n).code == reference_code(expected), case


def _first_row_branches(dom, a, n):
    """The branches a case takes where `successors` builds its first row:
    Z by a zero or a nonzero step (and a negative a, reduced first), Z[w] by
    the stride step s, the offset `base` of each stride, and c."""
    if isinstance(dom, IntegerDomain):
        return {"Z ar == 0" if dom.mul_mod(1, a, n) == 0 else "Z ar > 0"} | \
            ({"Z a < 0"} if a < 0 else set())
    z = dom.mul_mod(QuadInt(1, 0), a, n)
    s = n.c * z.x - z.y * n.b
    got = {"quad s == 0" if s == 0 else "quad s < 0" if s < 0 else "quad s > 0",
           "quad c == 1" if n.c == 1 else "quad c > 1"}
    if any(j * z.y % n.c for j in range(n.c)):
        got.add("quad base != 0")
    return got


def test_seeded_cases_reach_every_first_row_branch():
    reached = set()
    for dom, a, n in _cases("Z") + _cases("quad"):
        reached |= _first_row_branches(dom, a, n)
    assert reached == {"Z ar == 0", "Z ar > 0", "Z a < 0", "quad s == 0", "quad s < 0",
                       "quad s > 0", "quad c == 1", "quad c > 1", "quad base != 0"}


@pytest.mark.parametrize("family", FAMILIES)
def test_successor_table_contract(family):
    for dom, a, n in _cases(family)[::5]:
        residues = dom.residues(n)
        succ = dom.successors(a, n)
        assert len(succ) == len(residues) == dom.norm(n)
        for i, r in enumerate(residues):
            assert residues[succ[i]] == dom.mul_mod(r, a, n), (dom, a, n, i)


def test_unit_ideal_has_one_residue():
    for entry in ENTRIES.values():
        dom = entry.dom
        assert dom.residues(dom.unit_ideal) == [dom.reduce(dom.one_element, dom.unit_ideal)]
        for a in entry.elements:
            assert dom.successors(a, dom.unit_ideal) == [0]
            assert brute_amap_graph(dom, a, dom.unit_ideal) == cyc(1)


def test_domain_without_successor_table_raises():
    class Bare(IntegerDomain):
        successors = Domain.successors

    with pytest.raises(NotImplementedError):
        brute_amap_graph(Bare(), 2, 10)


# ---- the table comes from the generators, not from every residue ----

def test_brute_force_makes_one_product_per_additive_generator(monkeypatch):
    calls = [0]
    real = Domain.mul_mod

    def counting(self, a, b, n):
        calls[0] += 1
        return real(self, a, b, n)

    monkeypatch.setattr(Domain, "mul_mod", counting)
    F2, F9 = field(2), field(3, 2)
    O = QuadOrder(-5)
    # (domain, a, n, number of additive generators of D/n)
    for dom, a, n, r in (
            (IntegerDomain(), 6, 10**4, 1),
            (PolyDomain(F2), Poly(F2, (0, 1, 1)), Poly(F2, (1, 1) + (0,) * 12 + (1,)), 14),
            (PolyDomain(F9), Poly(F9, (3, 1)), Poly(F9, (1, 0, 2, 0, 1)), 8),
            (O, QuadInt(1, 1), O.principal(QuadInt(60, 0)), 2)):
        calls[0] = 0
        brute_amap_graph(dom, a, n)
        assert calls[0] <= r + 2, (dom, calls[0])


def _subtree_ids(trees):
    """Key -> ids of the tree objects with that key, over all subtrees."""
    ids, stack = {}, list(trees)
    while stack:
        t = stack.pop()
        ids.setdefault(t.key, set()).add(id(t))
        stack.extend(child for child, _ in t.counted)
    return ids


def test_each_distinct_tree_is_built_once(monkeypatch):
    built = [0]
    real = RootedTree.__init__

    def counting(self, *args):
        built[0] += 1
        real(self, *args)

    monkeypatch.setattr(RootedTree, "__init__", counting)
    g = brute_amap_graph(IntegerDomain(), 6, 2**9 * 3**4 * 5)
    hanging = [t for comp in g.components for t in comp.hanging]
    ids = _subtree_ids(hanging)
    assert all(len(objects) == 1 for objects in ids.values())
    assert built[0] == len(ids) - 1 < 20  # LEAF exists beforehand


def test_fixed_points_share_one_hanging_tree():
    g = brute_amap_graph(IntegerDomain(), 1, 10**4)
    assert len(g.components) == 10**4
    assert len({id(t) for comp in g.components for t in comp.hanging}) == 1


# ---- the decomposition against the earlier walk ----

def _least_node_first(decomposition):
    """The walk's components, each cycle (and its trees) turned to start at
    its least node, in the order of that node."""
    turned = []
    for cycle, trees in decomposition:
        i = cycle.index(min(cycle))
        turned.append((cycle[i:] + cycle[:i], trees[i:] + trees[:i]))
    return sorted(turned, key=lambda pair: pair[0][0])


def _sharing(labels):
    """Each position's label renumbered in order of first appearance, so two
    lists agree exactly when they split the positions alike."""
    first = {}
    return [first.setdefault(x, len(first)) for x in labels]


def test_decomposition_matches_reference_walk():
    for succ in random_maps(random.Random(11)) + branch_maps(random.Random(17)):
        got = list(decompose_successors(succ))
        want = _least_node_first(reference_decompose(succ))
        assert [c for c, _ in got] == [c for c, _ in want], succ
        words = [[t.key for t in ts] for _, ts in got]
        assert words == [[t.key for t in ts] for _, ts in want], succ
        # one object per distinct tree, among the hanging trees and below
        assert _sharing(id(t) for _, ts in got for t in ts) == \
            _sharing(key for word in words for key in word), succ
        ids = _subtree_ids(t for _, ts in got for t in ts)
        assert all(len(objects) == 1 for objects in ids.values()), succ


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60), st.booleans(), st.data())
def test_relabelling_a_map_keeps_its_graph(seeds, forest, data):
    n = len(seeds)
    # a forest map sends each v > 0 below itself, so its trees run deep
    succ = [s % (v if forest and v else n) for v, s in enumerate(seeds)]
    perm = data.draw(st.permutations(range(n)))
    relabelled = [0] * n
    for v, s in enumerate(succ):
        relabelled[perm[v]] = perm[s]
    graph = brute_graph(n, relabelled)
    assert graph.key == brute_graph(n, succ).key
    assert graph.node_count == n


def test_out_of_range_successor_names_first_offender():
    for succ, message in (([0, 1, 7, -1], r"successor\(2\) = 7 out"),
                          ([0, -1, 9, 0], r"successor\(1\) = -1 out"),
                          ([3, 2, 1, 4], r"successor\(3\) = 4 out")):
        with pytest.raises(ValueError, match=message):
            brute_graph(4, succ)
    assert brute_graph(0, []) == FunctionalGraph()
    # the decomposition checks too: a negative entry read as an index from
    # the end made [-1, 0] a cycle [0, -1], and [1, -2] a walk with no end
    for succ, message in (([-1, 0], r"successor\(0\) = -1 out"),
                          ([1, -2], r"successor\(1\) = -2 out")):
        with pytest.raises(ValueError, match=message):
            list(decompose_successors(succ))


def test_decomposition_reads_every_table_type_alike():
    # the library passes lists and GF.code_array arrays; tuples read alike
    kinds = (list, tuple, lambda succ: array("I", succ), lambda succ: array("l", succ))
    rng = random.Random(19)
    maps = random_maps(rng)[::4] + branch_maps(rng)
    for succ in maps:
        want = [(c, [t.key for t in ts]) for c, ts in decompose_successors(succ)]
        for kind in kinds[1:]:
            got = [(c, [t.key for t in ts]) for c, ts in decompose_successors(kind(succ))]
            assert got == want, (kind, succ)
    # an entry >= n fails as an index, a negative one by `min`: each names
    # the first offender, in every type that holds it
    for succ, message in (([3, 2, 1, 4], r"successor\(3\) = 4 out"),
                          ([0, 5, 9, 0], r"successor\(1\) = 5 out")):
        for kind in kinds:
            with pytest.raises(ValueError, match=message):
                list(decompose_successors(kind(succ)))
    for succ, message in (([0, 1, 7, -1], r"successor\(2\) = 7 out"),
                          ([0, -1, 9, 0], r"successor\(1\) = -1 out"),
                          ([1, 0, 0, -2], r"successor\(3\) = -2 out"),
                          ([1, -9, 0, 0], r"successor\(1\) = -9 out")):
        for kind in kinds[:2] + kinds[3:]:
            with pytest.raises(ValueError, match=message):
                list(decompose_successors(kind(succ)))


# ---- division by a monic divisor ----

@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_division_by_a_monic_divisor_takes_no_inverse(p, k, monkeypatch):
    F = GF(p, k)
    rng = random.Random(p * k)
    cases = []
    for _ in range(60):
        a = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 12))])
        b = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 6))] + [1])
        cases.append((a, b))
    calls = []
    real = GF.inv
    monkeypatch.setattr(GF, "inv", lambda self, a: calls.append(a) or real(self, a))
    for a, b in cases:
        q, r = divmod(a, b)  # the two conditions fix q and r
        assert q * b + r == a and r.degree < b.degree
    assert calls == []


# ---- the F_p-linear table builder ----

def _digits(i, p, r):
    return [i // p**m % p for m in range(r)]


def _from_digits(digits, p):
    return sum(d * p**m for m, d in enumerate(digits))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_linear_table_matches_digit_vector_reference(p):
    rng = random.Random(p)
    for r in range(7):  # r = 0: the one-entry table of the zero space
        for images in ([p**m for m in range(r)], [rng.randrange(p**r) for _ in range(r)]):
            # coordinate t of the image of i: the digits of i, most significant
            # first as `product` yields them, dotted with column t
            columns = list(zip(*(_digits(img, p, r) for img in reversed(images))))
            want = [_from_digits([sum(map(operator.mul, digits, column)) % p
                                  for column in columns], p)
                    for digits in itertools.product(range(p), repeat=r)]
            assert _fp_linear_table(images, p) == want, (r, images)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_sums_are_digitwise_sums(p):
    rng = random.Random(p)
    for width in range(1, 5):
        # g above p^width: only its low `width` digits count
        for g in [0, p**width - 1] + [rng.randrange(p**(width + 2)) for _ in range(4)]:
            gd = _digits(g, p, width)
            assert _digit_sums(g, p, width) == [
                _from_digits([(x + y) % p for x, y in zip(_digits(v, p, width), gd)], p)
                for v in range(p**width)], (width, g)


def test_default_modulus_is_not_tested_again(monkeypatch):
    calls = []
    real = finitefield.is_irreducible
    monkeypatch.setattr(finitefield, "is_irreducible",
                        lambda f: calls.append(f) or real(f))
    assert GF(2, 9).modulus == next(finitefield.irreducibles(field(2), 9)).coeffs
    assert GF(3, 4).k == 4
    assert calls == []
    GF(2, 2, (1, 1, 1))
    assert len(calls) == 1
    with pytest.raises(ValueError):
        GF(3, 2, (1, 0, 0))
