"""The linear successor table and the interned tree labelling, against the
code they replaced.

`reference_successors` keeps the earlier per-residue body of
`dynamics.brute_amap_graph` (one `mul_mod` and one dict lookup per residue)
and `reference_decompose` the earlier body of `graphs.decompose_successors`
(a walk for the cycles, one `RootedTree` per node) unchanged, as test-only
references.  `reference_mul` and `reference_divmod` keep the earlier bodies
of `Poly.__mul__` and `Poly.__divmod__`, which call the field once per
coefficient pair also over a prime field.
"""

import itertools
import operator
import random

import pytest

from amap import finitefield
from amap.base import Domain
from amap.dynamics import brute_amap_graph
from amap.finitefield import GF, field
from amap.graphs import Component, FunctionalGraph, brute_graph, decompose_successors
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain, _digit_sums, _fp_linear_table
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import LEAF, RootedTree


def reference_successors(dom, a, n):
    residues = dom.residues(n)
    index = {r: i for i, r in enumerate(residues)}
    ar = dom.reduce(a, n)
    return [index[dom.mul_mod(r, ar, n)] for r in residues]


def _build_tree(root, children) -> RootedTree:
    """Tree of the nodes below `root`, where children[v] lists v's children."""
    order = [root]
    for v in order:  # breadth first: the loop also visits what it appends
        order.extend(children[v])
    built = {}
    for v in reversed(order):
        kids = children[v]
        built[v] = RootedTree(built[c] for c in kids) if kids else LEAF
    return built[root]


def reference_decompose(succ):
    """Split a successor map into (cycle nodes, hanging trees) per component.

    The i-th hanging tree is rooted at the i-th cycle node; cycle nodes are
    listed in cycle order.
    """
    n = len(succ)
    state = bytearray(n)  # 0 unseen, 1 on current walk, 2 finished
    on_cycle = bytearray(n)
    cycles = []
    for start in range(n):
        if state[start]:
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = succ[v]
        if state[v] == 1:
            cycle = path[path.index(v):]
            cycles.append(cycle)
            for u in cycle:
                on_cycle[u] = 1
        for u in path:
            state[u] = 2

    children = [[] for _ in range(n)]
    for v in range(n):
        if not on_cycle[v]:
            children[succ[v]].append(v)

    return [(cycle, [_build_tree(c, children) for c in cycle]) for cycle in cycles]


def reference_code(succ):
    return FunctionalGraph((Component(len(cycle), trees), 1)
                           for cycle, trees in reference_decompose(succ)).code


def reference_mul(self, other):
    F = self.field
    a, b = self.coeffs, other.coeffs
    if not a or not b:
        return Poly(F)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return Poly(F, out)


def reference_divmod(self, other):
    F = self.field
    rem = list(self.coeffs)
    dv = other.coeffs
    dd = len(dv) - 1
    inv_lead = F.inv(dv[-1])
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            q = F.mul(c, inv_lead)
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] = F.sub(rem[i - dd + j], F.mul(q, dv[j]))
    return Poly(F, quot), Poly(F, rem)


# ---- seeded instances: (domain, element a, ideal n) ----

def _z_cases(rng):
    Z = IntegerDomain()
    cases = []
    for n in (1, 2, 12, 97, 360, 1000, 1024):
        for a in (1, -1, n + 1, 0, n, -3 * n, 2, -6, 7, rng.randint(-10**4, 10**4)):
            cases.append((Z, a, n))
    return cases


def _poly_cases(rng):
    cases = []
    # (p, k, largest degree): k > 1 for both p = 2 and odd p
    for p, k, top in ((2, 1, 9), (3, 1, 6), (5, 1, 3), (2, 2, 4), (2, 3, 3),
                      (3, 2, 3), (5, 2, 2), (7, 1, 3)):
        F = field(p, k)
        D = PolyDomain(F)

        def rand_poly(deg):
            return Poly(F, [rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)])

        for deg in range(top + 1):
            n = rand_poly(deg).monic()
            for a in (rand_poly(rng.randrange(0, 2 * top + 1)),
                      rand_poly(0),                        # a unit
                      n * rand_poly(rng.randrange(0, 3)),  # a in n
                      -D.one_element):
                cases.append((D, a, n))
    return cases


def _quad_cases(rng):
    cases = []
    for d in (-1, -2, -5, -7, -15):
        O = QuadOrder(d)
        w = QuadInt(0, 1)
        ideals = [O.unit_ideal, O.principal(QuadInt(6, 0)),
                  O.principal(QuadInt(3, -2)), O.principal(QuadInt(-4, 5))]
        # ideals above 2, 3 and 5, non-principal when the class group is not trivial
        for p in (2, 3, 5):
            ideals.extend(O.rational_prime_splitting(p)[1])
        ideals.append(O.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)]))
        ideals.append(O.ideal_mul(ideals[-1], O.ideal_from_generators([QuadInt(3, 0),
                                                                       QuadInt(1, 1)])))
        for n in ideals:
            for a in (QuadInt(1, 0), QuadInt(-1, 0), w,
                      QuadInt(rng.randint(-30, 30), rng.randint(-30, 30)),
                      QuadInt(-7, -3), QuadInt(n.a, 0), QuadInt(n.b, n.c)):
                if not a.is_zero:
                    cases.append((O, a, n))
    return cases


CASES = {"Z": _z_cases(random.Random(7)), "poly": _poly_cases(random.Random(8)),
         "quad": _quad_cases(random.Random(9))}


@pytest.mark.parametrize("family", sorted(CASES))
def test_successor_table_matches_per_residue_reference(family):
    for dom, a, n in CASES[family]:
        case = (dom, dom.describe_element(a), dom.describe_ideal(n))
        table = dom.successors(a, n)
        expected = reference_successors(dom, a, n)
        assert table == expected, case
        assert brute_amap_graph(dom, a, n).code == reference_code(expected), case


@pytest.mark.parametrize("family", sorted(CASES))
def test_successor_table_contract(family):
    for dom, a, n in CASES[family][::5]:
        residues = dom.residues(n)
        succ = dom.successors(a, n)
        assert len(succ) == len(residues) == dom.norm(n)
        for i, r in enumerate(residues):
            assert residues[succ[i]] == dom.mul_mod(r, a, n), (dom, a, n, i)


def test_unit_ideal_has_one_residue():
    Z, D, O = IntegerDomain(), PolyDomain(field(3, 2)), QuadOrder(-5)
    for dom, a in ((Z, 5), (D, Poly(field(3, 2), (4, 1))), (O, QuadInt(2, 1))):
        assert dom.successors(a, dom.unit_ideal) == [0]
        assert brute_amap_graph(dom, a, dom.unit_ideal).code == "C1[()]"


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
    """Code -> ids of the tree objects with that code, over all subtrees."""
    ids, stack = {}, list(trees)
    while stack:
        t = stack.pop()
        ids.setdefault(t.code, set()).add(id(t))
        stack.extend(t.children)
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

def _random_maps(rng):
    maps = [[], [0], [1, 0], [0, 0, 1, 2],
            # two loops with the same two child trees, peeled in opposite orders
            [0, 0, 0, 1, 2, 2, 6, 6, 6, 7, 7, 8]]
    for _ in range(400):
        n = rng.randrange(1, 80)
        kind = rng.randrange(4)
        if kind == 0:
            succ = [rng.randrange(n) for _ in range(n)]
        elif kind == 1:  # forests hanging into a few cycles
            succ = [rng.randrange(v) if v and rng.random() < 0.9 else rng.randrange(n)
                    for v in range(n)]
        elif kind == 2:  # permutations
            succ = list(range(n))
            rng.shuffle(succ)
        else:  # relabelled a-maps
            a = rng.randrange(n)
            perm = list(range(n))
            rng.shuffle(perm)
            inv = {p: i for i, p in enumerate(perm)}
            succ = [inv[a * perm[v] % n] for v in range(n)]
        maps.append(succ)
    return maps


def _least_node_first(decomposition):
    """The walk's components, each cycle (and its trees) turned to start at
    its least node, in the order of that node."""
    turned = []
    for cycle, trees in decomposition:
        i = cycle.index(min(cycle))
        turned.append((cycle[i:] + cycle[:i], trees[i:] + trees[:i]))
    return sorted(turned, key=lambda pair: pair[0][0])


def test_decomposition_matches_reference_walk():
    for succ in _random_maps(random.Random(11)):
        got = list(decompose_successors(succ))
        want = _least_node_first(reference_decompose(succ))
        assert [c for c, _ in got] == [c for c, _ in want], succ
        assert [[t.code for t in ts] for _, ts in got] == \
            [[t.code for t in ts] for _, ts in want], succ
        assert brute_graph(len(succ), succ).code == reference_code(succ)
        ids = _subtree_ids(t for _, ts in got for t in ts)
        assert all(len(objects) == 1 for objects in ids.values()), succ


def test_out_of_range_successor_names_first_offender():
    for succ, message in (([0, 1, 7, -1], r"successor\(2\) = 7 out"),
                          ([0, -1, 9, 0], r"successor\(1\) = -1 out"),
                          ([3, 2, 1, 4], r"successor\(3\) = 4 out")):
        with pytest.raises(ValueError, match=message):
            brute_graph(4, succ)
    assert brute_graph(0, []).code == ""


# ---- prime-field polynomial arithmetic against the field calls ----

@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_field_poly_arithmetic_matches_field_calls(p):
    F = field(p)
    rng = random.Random(p)
    for _ in range(150):
        a = Poly(F, [rng.randrange(p) for _ in range(rng.randrange(0, 14))])
        b = Poly(F, [rng.randrange(p) for _ in range(rng.randrange(0, 9))])
        assert (a * b).coeffs == reference_mul(a, b).coeffs
        if not b.is_zero:
            q, r = divmod(a, b)
            rq, rr = reference_divmod(a, b)
            assert (q.coeffs, r.coeffs) == (rq.coeffs, rr.coeffs)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_division_by_a_monic_divisor_takes_no_inverse(p, k, monkeypatch):
    F = GF(p, k)
    rng = random.Random(p * k)
    cases = []
    for _ in range(60):
        a = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 12))])
        b = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 6))] + [1])
        cases.append((a, b, reference_divmod(a, b)))
    calls = []
    real = GF.inv
    monkeypatch.setattr(GF, "inv", lambda self, a: calls.append(a) or real(self, a))
    for a, b, (rq, rr) in cases:
        q, r = divmod(a, b)
        assert q * b + r == a and r.degree < b.degree
        assert (q.coeffs, r.coeffs) == (rq.coeffs, rr.coeffs)
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
