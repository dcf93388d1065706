"""The linear successor table and the interned tree labelling, against the
code they replaced.

`reference_successors` keeps the earlier per-residue body of
`dynamics.brute_amap_graph` (one `mul_mod` and one dict lookup per residue),
`reference_decompose` the first body of `graphs.decompose_successors` (a
walk for the cycles, one `RootedTree` per node) and `peeling_decompose` the
body it had next (peeling, one label per cycle node as its cycle is yielded,
trees built from one entry per child) unchanged, as test-only references.  `reference_mul` and `reference_divmod` keep the earlier bodies
of `Poly.__mul__` and `Poly.__divmod__`, which call the field once per
coefficient pair also over a prime field.
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


def peeling_decompose(succ):
    """Yield (cycle nodes, hanging trees) per component, in the order of the
    least cycle node, each cycle starting there; labels as in `graphs`."""
    n = len(succ)
    indeg = [0] * n
    for s in succ:
        indeg[s] += 1
    children = indeg[:]  # on a cycle, one of these is the cycle predecessor
    inner = {}  # node -> labels of its peeled inner children
    trees = [LEAF]
    label_of = {(0,): 0}

    def label(v, tree_kids):
        kids = sorted(inner.pop(v, ()))
        key = (tree_kids - len(kids), *kids)  # the leaf children come first
        t = label_of.get(key)
        if t is None:
            t = label_of[key] = len(trees)
            trees.append(RootedTree([LEAF] * key[0] + [trees[k] for k in kids]))
        return t

    ready = []
    for s in [succ[v] for v in range(n) if not indeg[v]]:
        indeg[s] -= 1
        if not indeg[s]:
            ready.append(s)
    while ready:
        frontier, ready = ready, []
        for v in frontier:
            t = label(v, children[v])
            s = succ[v]
            inner.setdefault(s, []).append(t)
            indeg[s] -= 1
            if not indeg[s]:
                ready.append(s)

    for start in range(n):
        if not indeg[start]:
            continue
        cycle = [start]
        v = succ[start]
        while v != start:
            indeg[v] = 0
            cycle.append(v)
            v = succ[v]
        yield cycle, [trees[label(v, children[v] - 1)] if children[v] > 1 else LEAF
                      for v in cycle]


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


def _negative_stride_cases():
    """Z[w] cases with s < 0, which the seeded ideals miss: n = 2*P for a
    split P = {p, b + w} with b > 0, so n = {2p, 2b + 2w}, and a = w."""
    cases = []
    for d, p in ((-1, 5), (-2, 3)):
        O = QuadOrder(d)
        for P in O.rational_prime_splitting(p)[1]:
            n = O.ideal_mul(O.principal(QuadInt(2, 0)), P)
            for a in (QuadInt(0, 1), QuadInt(1, 1), QuadInt(-3, 5)):
                cases.append((O, a, n))
    return cases


def test_seeded_cases_reach_every_first_row_branch():
    extra = _negative_stride_cases()
    for dom, a, n in extra:
        assert dom.successors(a, n) == reference_successors(dom, a, n), (dom, a, n)
    reached = set()
    for dom, a, n in CASES["Z"] + CASES["quad"] + extra:
        reached |= _first_row_branches(dom, a, n)
    assert reached == {"Z ar == 0", "Z ar > 0", "Z a < 0", "quad s == 0", "quad s < 0",
                       "quad s > 0", "quad c == 1", "quad c > 1", "quad base != 0"}


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


def _sharing(labels):
    """Each position's label renumbered in order of first appearance, so two
    lists agree exactly when they split the positions alike."""
    first = {}
    return [first.setdefault(x, len(first)) for x in labels]


def _relabelled(rng, succ):
    perm = list(range(len(succ)))
    rng.shuffle(perm)
    out = [0] * len(succ)
    for v, s in enumerate(succ):
        out[perm[v]] = perm[s]
    return out


def _hung_on_a_cycle(rng, m, hung):
    """A cycle 0 -> 1 -> ... -> 0 of length m, then `hung` more nodes, each
    sent to a cycle node or to an earlier hung node."""
    return [(v + 1) % m for v in range(m)] + [rng.randrange(v) for v in range(m, m + hung)]


def _branch_maps(rng):
    maps = []
    # two a-maps with different nu-series, side by side: every cycle carries
    # one tree all round, but not every cycle the same tree
    for (a1, n1), (a2, n2) in (((2, 12), (3, 18)), ((2, 8), (1, 5)), ((6, 72), (10, 50)),
                               ((2, 24), (3, 27)), ((4, 40), (9, 81))):
        union = [a1 * v % n1 for v in range(n1)] + [n1 + a2 * v % n2 for v in range(n2)]
        maps.append(_relabelled(rng, union))
    for _ in range(40):
        m = rng.randrange(2, 12)
        # leaves on some cycle nodes only
        some = [(v + 1) % m for v in range(m)]
        some += [rng.randrange(m // 2 + 1) for _ in range(rng.randrange(1, 2 * m))]
        maps.append(_relabelled(rng, some))
        # trees of depth 2 or more at the cycle nodes
        maps.append(_relabelled(rng, _hung_on_a_cycle(rng, m, rng.randrange(m, 6 * m))))
    maps.append([max(v - 1, 0) for v in range(8000)])  # a path into a fixed point
    maps.append([0] * (10**5 + 1))  # a star of 10^5 leaves on a fixed point
    return maps


def test_decomposition_matches_the_peeling_it_replaced():
    for succ in _random_maps(random.Random(13)) + _branch_maps(random.Random(17)):
        got = list(decompose_successors(succ))
        want = list(peeling_decompose(succ))
        assert [c for c, _ in got] == [c for c, _ in want], succ
        words = [[t.key for t in ts] for _, ts in got]
        assert words == [[t.key for t in ts] for _, ts in want], succ
        if len(succ) < 1000:  # a deep tree's code costs O(depth^2)
            assert [[t.code for t in ts] for _, ts in got] == \
                [[t.code for t in ts] for _, ts in want], succ
        # one object per distinct tree, as in the peeling
        objects = _sharing(id(t) for _, ts in got for t in ts)
        assert objects == _sharing(id(t) for _, ts in want for t in ts), succ
        assert objects == _sharing(key for word in words for key in word), succ


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
    assert brute_graph(0, []).code == ""
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
    maps = _random_maps(rng)[::4] + _branch_maps(rng)
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
