"""The test-side referees and helpers that more than one test module uses:
one referee per library operation.  A test module imports from here and
from `domains`, never from another test module, and defines no function
under a name defined here or there (tooling tests check both).

The factorization law is stated once, by `check_factorization`, which judges
each prime by a referee of its kind: `trial_factor` (trial division, the
earlier body of `base.factor_int`) in Z, `rabin_is_irreducible` (Rabin's
test, the earlier body of `polynomials.is_irreducible`) in F_q[x], and in a
quadratic order `scan_splitting` (the earlier body of
`QuadOrder.rational_prime_splitting`, which scans every residue mod p).

The dynamics layer has two laws, each stated once.  The oracle law,
`assert_prediction_is_the_brute_graph`: the structure theorem's prediction
is the brute-force graph, with N(n) nodes.  The formula law,
`assert_prediction_matches_the_walk`: the prediction is the graph read off
every divisor (`walk_prediction`).  The CLI's refusal rule is stated once
too, by `assert_one_line_error`: exit 2, one `error:` line, empty stdout.

Here are also the prime-field list loops (`list_mul`, `list_divmod`) on the
primes of every slot width, the residue products of the order search
(`assert_products_agree`), the counting laws over listed residues, the
operands (`cyc`, `extended_tree`, `partial_tree`) and the tensor products,
the first walk of `graphs.decompose_successors`, the seeded maps the graph
tests run on (`random_maps`, `branch_maps`), Booth's least rotation and a
principality search.

The family layer has one referee per table: the per-point bodies
`reference_redei_successors`, `reference_chebyshev_successors` and
`reference_linearized_successors` at small degree, and at large degree the
scalar powers `redei_by_powers` (`base.power` over pairs) and
`chebyshev_by_powers` (over the matrix [[x, -1], [1, 0]]), which use no
doubling identity.  The Chebyshev fold is refereed by `brute_fold`, the
brute-force graph of x -> n*x on Z/m taken modulo negation.

The canonical code as eager text is the one referee of the graph layer:
`ref_tree_code` wraps a node's sorted child codes, `ref_component_code`
reads a cycle from its least rotation by trying every rotation,
`ref_graph_code` joins the sorted component codes, and `reference_code`
gives a map's code over the walk.  Only `component_text` spells the
component code `C<len>[...]` (a tooling test checks it).
"""

import functools
import math
import random
from collections import Counter

from amap.base import power
from amap.cli import main as cli_main
from amap.dynamics import _corrupt, predicted_graph, verify
from amap.graphs import (DEFAULT_MAX_NODES, Component, FunctionalGraph, GraphSizeError,
                         brute_graph, materialize)
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder, SplitType
from amap.trees import LEAF, RootedTree, _partials, _validated, elementary_tree
from domains import divisor_table, divisors, generators

# ---- prime-field polynomial arithmetic ----

SLOT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 1009, 65537, 2**32 + 15)
"""F_2, whose slots are bits under XOR and which never reads the byte table;
every row of `polynomials._MOD_BYTES` (one-byte slots, 3 <= p <= 13 at low
degree); then two-byte (17), four-byte (1009), eight-byte (65537) and wider
slots (2^32 + 15)."""


def list_mul(a: Poly, b: Poly) -> Poly:
    F = a.field
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return Poly(F)
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y, i):
                out[j] += xi * yj
    p = F.p
    return Poly(F, [c % p for c in out])


def list_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    F = a.field
    rem = list(a.coeffs)
    dv = b.coeffs
    dd = len(dv) - 1
    inv_lead = 1 if dv[-1] == 1 else F.inv(dv[-1])
    quot = [0] * max(len(rem) - dd, 0)
    p = F.p
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] % p
        if c:
            q = c if inv_lead == 1 else c * inv_lead % p
            quot[i - dd] = q
            for j, dj in enumerate(dv, i - dd):
                rem[j] -= q * dj
    return Poly(F, quot), Poly(F, [c % p for c in rem])


# ---- the factorization law ----

def trial_factor(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of a positive integer, by 2, 3 and
    every 6k +- 1 up to the square root."""
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def rabin_is_irreducible(f: Poly) -> bool:
    """Rabin's irreducibility test over F_q: f of degree n divides
    x^(q^n) - x and is coprime to x^(q^(n/r)) - x for each prime r | n."""
    if f.degree < 1:
        return False
    F = f.field
    n = f.degree
    x = Poly.x(F)
    for r, _ in trial_factor(n):
        h = x.pow_mod(F.q ** (n // r), f)
        if f.gcd(h - x).degree != 0:
            return False
    return x.pow_mod(F.q**n, f) == x % f


def scan_splitting(order: QuadOrder, p: int):
    """Primes above the rational prime p, classified by the roots of w's
    minimal polynomial among all residues mod p."""
    roots = [r for r in range(p) if (r * r - order._t * r - order._s) % p == 0]
    if not roots:
        return SplitType.INERT, [order.principal(QuadInt(p, 0))]
    primes = [order.ideal_from_generators([QuadInt(p, 0), QuadInt(-r, 1)])
              for r in roots]
    primes.sort(key=order._ideal_key)
    if len(roots) == 2:
        return SplitType.SPLIT, primes
    return SplitType.RAMIFIED, primes


def is_prime_ideal(dom, ideal) -> bool:
    """Whether `ideal` is a prime of dom in normalized form, by the referee
    of the domain's kind: a positive int that trial division leaves whole; a
    monic polynomial over the domain's field that Rabin's test passes; or a
    prime that `scan_splitting` lists above the one rational prime under the
    norm."""
    if isinstance(dom, PolyDomain):
        return ideal.field == dom.field and ideal.is_monic and rabin_is_irreducible(ideal)
    if isinstance(dom, QuadOrder):
        under = trial_factor(ideal.norm)
        return len(under) == 1 and ideal in scan_splitting(dom, under[0][0])[1]
    return type(ideal) is int and trial_factor(ideal) == [(ideal, 1)]


def check_factorization(dom, n, factors) -> None:
    """The factorization law, stated once: `factors`, what `dom.factor(n)`
    returned, is a list of distinct primes in `_ideal_key` order, each
    normalized and judged prime by `is_prime_ideal`, with positive int
    exponents; their powers multiply back to n (to monic n in F_q[x], where
    n may be any nonzero polynomial) and their norms to N(n).  A sorted list
    of distinct primes whose product is n is the one factorization."""
    assert isinstance(factors, list), n
    keys = [dom._ideal_key(prime) for prime, _ in factors]
    assert keys == sorted(keys) and len(set(map(repr, keys))) == len(keys), (n, factors)
    product = dom.unit_ideal
    for prime, e in factors:
        assert type(e) is int and e >= 1, (n, prime, e)
        assert is_prime_ideal(dom, prime), (n, prime)
        product = dom.ideal_mul(product, dom.ideal_pow(prime, e))
    assert product == (n.monic() if isinstance(dom, PolyDomain) else n), (n, factors)
    assert dom.norm(n) == math.prod(dom.norm(prime) ** e for prime, e in factors), (n, factors)


# ---- domain laws over listed residues ----

def assert_products_agree(dom, n, elements, rng, pairs=20):
    lift, mul = dom._product_mod(n)
    one = lift(dom.one_element)
    residues = [dom.reduce(x, n) for x in elements]
    for x, r in zip(elements, residues):
        assert lift(x) == lift(r), (n, x)
    for _ in range(pairs):
        (x, r), (y, s) = rng.sample(list(zip(elements, residues)), 2)
        assert (lift(x) == lift(y)) == (r == s), (n, x, y)
        assert mul(lift(x), lift(y)) == lift(dom.mul_mod(x, y, n)), (n, x, y)
    # a product's residue is a factor again: powers agree with mul_mod's
    x, e = rng.choice(elements), rng.randrange(2, 500)
    want = power(dom.reduce(x, n), e, lambda u, v: dom.mul_mod(u, v, n),
                 dom.reduce(dom.one_element, n))
    assert power(lift(x), e, mul, one) == lift(want), (n, x, e)


CAP = 400
"""Norm cap of the moduli whose residues a law lists."""


@functools.cache
def small_moduli(entry) -> list:
    """The divisors of norm at most `CAP` of the entry's moduli and of the
    principal ideals of its instances' elements, in `_ideal_key` order."""
    dom = entry.dom
    sources = entry.moduli + [dom.principal(a) for a, _ in entry.instances()
                              if not dom.is_zero(a)]
    small = {m for n in sources for m in divisors(dom, n) if dom.norm(m) <= CAP}
    return sorted(small, key=dom._ideal_key)


def counted_moduli(entry, count, seed) -> list:
    """A seeded sample of `count` of the entry's small moduli (all of them
    when there are fewer), in `_ideal_key` order."""
    moduli = small_moduli(entry)
    return sorted(random.Random(seed).sample(moduli, min(count, len(moduli))),
                  key=entry.dom._ideal_key)


def check_residue_classes(dom, n) -> None:
    """For each divisor m of n, the residues x with gcd(<x>, n) = m number
    phi(n/m), m = <1> giving the units."""
    residues = dom.residues(n)
    assert len(set(residues)) == len(residues) == dom.norm(n), n
    classes = Counter(n if dom.is_zero(x) else dom.ideal_gcd(dom.principal(x), n)
                      for x in residues)
    divs = divisors(dom, n)
    assert classes.keys() <= set(divs), n
    for m in divs:
        assert classes[m] == dom.euler_phi(dom.ideal_div(n, m)), (n, m)


def _member(dom, n):
    """A nonzero element of the ideal n: its last nonzero generator."""
    return [g for g in generators(dom, dom.describe_ideal(n)) if not dom.is_zero(g)][-1]


def check_congruences(dom, n, elements, rng) -> None:
    """`congruence_solution_count(a, b, n)` against the count of residues x
    with a*x = b mod n, for a among 0, a member of n, an element and a
    member of the least prime of n (at n = p^alpha, 0 < v_p(a) < alpha when
    alpha > 1), and b among 0, a member of n, an element and a*y for a
    residue y."""
    residues = dom.residues(n)
    zero = dom.one_element - dom.one_element
    gen = _member(dom, n)
    for a in (zero, dom.mul(gen, rng.choice(elements)), rng.choice(elements),
              *(_member(dom, p) for p, _ in dom.factor(n)[:1])):
        images = Counter(dom.mul_mod(a, x, n) for x in residues)
        for b in (zero, dom.mul(gen, rng.choice(elements)), rng.choice(elements),
                  dom.mul(a, rng.choice(residues))):
            assert dom.congruence_solution_count(a, b, n) == images[dom.reduce(b, n)], (a, b, n)


# ---- the structure theorem: its oracle law and its formula law ----

def assert_prediction_is_the_brute_graph(dom, a, n):
    """The oracle law: the prediction of x -> a*x on D/n is isomorphic to
    the brute-force graph, which has N(n) nodes."""
    report = verify(dom, a, n)
    assert report.isomorphic, (dom, a, n)
    assert report.node_count == dom.norm(n), (dom, a, n)


def walk_prediction(dom, a, n):
    """The tree of x -> a*x on D/n and the cycle rows (m, phi(m), ord_m(a))
    of every divisor m of n1, each giving phi(m)/ord_m(a) cycles of length
    ord_m(a): the earlier divisor-walk body of `predicted_graph`, which each
    caller turns into its own graph form."""
    nu, n1 = dom.gcd_chain(a, n)
    return elementary_tree(nu), divisor_table(dom, a, n1)


def assert_prediction_matches_the_walk(dom, a, n):
    """The prediction by prime powers against `walk_prediction`: equal graphs,
    and the summands are the walk's rows at the unit ideal and prime powers.
    Up to `DEFAULT_MAX_NODES` nodes the codes are compared as text too, and
    the corrupted control's code is the walk's with the first component in
    code order replaced by its cycle one node longer."""
    got = predicted_graph(dom, a, n)
    tree, table = walk_prediction(dom, a, n)
    graph = FunctionalGraph((Component(r, (tree,)), phi // r) for _, phi, r in table)
    summands = tuple({"divisor": dom.describe_ideal(m), "cycle_len": r,
                      "multiplicity": phi // r} for m, phi, r in table)
    assert got.graph == graph, (dom, a, n)
    n1 = dom.a_decomposition(a, n)[1]
    local = [row for m, row in zip(divisors(dom, n1), summands) if len(dom.factor(m)) <= 1]
    assert got.summands == tuple(local), (dom, a, n)
    if got.graph.node_count <= DEFAULT_MAX_NODES:
        rows = sorted((ref_component_code(r, [tree.code]), r, phi // r) for _, phi, r in table)
        codes = [code for code, _, count in rows for _ in range(count)]
        assert got.graph.code == ref_graph_code(codes), (dom, a, n)
        longer = ref_component_code(rows[0][1] + 1, [tree.code])
        assert _corrupt(got.graph).code == ref_graph_code([longer] + codes[1:]), (dom, a, n)


# ---- the family maps ----

def redei_points(F, a_code) -> list:
    """The points of the Redei tables in their numbering: None (infinity)
    first, then every finite point but the roots of a, in code order."""
    return [None] + [x for x in F.elements() if F.mul(x, x) != a_code]


def reference_redei_successors(F, n, a_code):
    """The Redei map through the pair recurrence, n - 1 steps a point: the
    earlier per-point body of `redei_check`."""
    points = redei_points(F, a_code)
    index = {pt: i for i, pt in enumerate(points)}

    def step(x):
        num, den = x, F.one  # (x + sqrt(a))^1
        for _ in range(n - 1):
            num, den = (F.add(F.mul(num, x), F.mul(den, a_code)),
                        F.add(num, F.mul(den, x)))
        if den == 0:
            return None
        return F.mul(num, F.inv(den))

    return [index[None if pt is None else step(pt)] for pt in points]


def reference_chebyshev_successors(F, n):
    """T_n at every code by T_(k+1) = x*T_k - T_(k-1), n - 1 steps a point:
    the earlier per-point body of `chebyshev_check`."""
    two = F.add(F.one, F.one)

    def cheb(c):
        prev, cur = two, c  # T_0, T_1
        for _ in range(n - 1):
            prev, cur = cur, F.sub(F.mul(c, cur), prev)
        return cur

    return [cheb(c) for c in F.elements()]


def reference_linearized_successors(E, frob, coeffs):
    """sum_i coeffs[i] * x^(q^i) at every code, one scalar product a point
    and coefficient, with frob the table of x -> x^q: the earlier per-point
    body of `linearized_check`."""
    succ = []
    for c in E.elements():
        acc = 0
        x = c
        for i, ai in enumerate(coeffs):
            if i:
                x = frob[x]
            if ai:
                acc = E.add(acc, E.mul(ai, x))
        succ.append(acc)
    return succ


def redei_by_powers(F, n, a_code, x):
    """R_n(x), None at a pole: (x + sqrt(a))^n = num + den*sqrt(a) by
    `base.power` over pairs, O(log n) products."""
    def pair_mul(s, t):
        return (F.add(F.mul(s[0], t[0]), F.mul(a_code, F.mul(s[1], t[1]))),
                F.add(F.mul(s[0], t[1]), F.mul(s[1], t[0])))

    num, den = power((x, F.one), n, pair_mul, (F.one, 0))
    return F.mul(num, F.inv(den)) if den else None


def chebyshev_by_powers(F, n, x):
    """T_n(x) from M^(n-1), M = [[x, -1], [1, 0]], by `base.power`:
    (T_n, T_(n-1)) = M^(n-1) (T_1, T_0), O(log n) products."""
    def mat_mul(s, t):
        return tuple(tuple(F.add(F.mul(s[i][0], t[0][j]), F.mul(s[i][1], t[1][j]))
                           for j in range(2)) for i in range(2))

    m = power(((x, F.neg(F.one)), (F.one, 0)), n - 1, mat_mul, ((F.one, 0), (0, F.one)))
    return F.add(F.mul(m[0][0], x), F.mul(m[0][1], F.add(F.one, F.one)))


def brute_fold(n, m):
    """brute_graph of x -> n*x on (Z/m)/+-1, on the orbit names 0..m/2."""
    Z = IntegerDomain()
    succ, neg = Z.successors(n, m), Z.successors(-1, m)
    half = m // 2
    assert all(min(x, neg[x]) == x for x in range(half + 1))
    return brute_graph(half + 1, [min(succ[x], neg[succ[x]]) for x in range(half + 1)])


# ---- graph operands and the tensor products ----

def cyc(m, tree=LEAF):
    """Cycle of length m with a copy of `tree` hanging at every cycle node."""
    return FunctionalGraph([(Component(m, (tree,)), 1)])


def extended_tree(tree):
    """The extended tree {T}: a loop at the root of T."""
    return cyc(1, tree)


def partial_tree(seq, k):
    """k-th partial tree of the sequence, for 0 <= k <= len(seq)."""
    seq = _validated(seq)
    if not 0 <= k <= len(seq):
        raise ValueError(f"k must be between 0 and {len(seq)}, got {k}")
    return _partials(seq, k)[k]


def build_trees(roots, children, make=lambda kids: RootedTree(kids) if kids else LEAF):
    """node -> make() of the values of its children, from the leaves up, at
    every node of the trees below `roots`, where children[v] lists v's
    children: `RootedTree`s by default."""
    order = list(roots)
    for v in order:  # breadth first: the loop also visits what it appends
        order.extend(children[v])
    built = {}
    for v in reversed(order):
        built[v] = make([built[c] for c in children[v]])
    return built


def reference_tensor(g1, g2, max_nodes=DEFAULT_MAX_NODES):
    """Functional graph of the product map, built by brute enumeration."""
    s1, s2 = materialize(g1), materialize(g2)
    n1, n2 = len(s1), len(s2)
    if n1 * n2 > max_nodes:
        raise GraphSizeError(f"product would have {n1 * n2} nodes (cap {max_nodes})")
    succ = [0] * (n1 * n2)
    for i in range(n1):
        row = i * n2
        ti = s1[i] * n2
        for j in range(n2):
            succ[row + j] = ti + s2[j]
    return brute_graph(n1 * n2, succ, max_nodes=max_nodes)


def _tree_successors(arg):
    """Partial successor map of a tree (root unmapped) or extended tree {T}.

    Returns (succ, root) with node 0 the root; succ[root] is None for a bare
    tree and root itself for an extended tree.
    """
    if isinstance(arg, RootedTree):
        tree, looped = arg, False
    elif isinstance(arg, FunctionalGraph):
        if len(arg.components) != 1 or arg.components[0].cycle_len != 1:
            raise ValueError("extended-tree argument must be a single Cyc(1, T)")
        tree, looped = arg.components[0].hanging[0], True
    else:
        raise TypeError("expected a RootedTree or an extended tree")
    succ = [0 if looped else None]  # then the nodes below the root, depth first
    stack = [(child, 0) for child in reversed(tree.children)]
    while stack:
        sub, parent = stack.pop()
        node_id = len(succ)
        succ.append(parent)
        stack.extend((child, node_id) for child in reversed(sub.children))
    return succ, 0


def reference_restricted_tensor(arg1, arg2, max_nodes=DEFAULT_MAX_NODES):
    """Hanging tree at the pair of roots in the tensor of two (extended) trees.

    Each argument is either a rooted tree or an extended tree {T}; the result
    is the connected component of the root pair, as a tree rooted there.
    """
    s1, r1 = _tree_successors(arg1)
    s2, r2 = _tree_successors(arg2)
    n1, n2 = len(s1), len(s2)
    if n1 * n2 > max_nodes:
        raise GraphSizeError(f"product would have {n1 * n2} nodes (cap {max_nodes})")
    pre1 = [[] for _ in range(n1)]
    pre2 = [[] for _ in range(n2)]
    for v, s in enumerate(s1):
        if s is not None:
            pre1[s].append(v)
    for v, s in enumerate(s2):
        if s is not None:
            pre2[s].append(v)
    # preimage pairs; skip the self-loop when both are extended
    children = {}
    stack = [(r1, r2)]
    while stack:
        x, y = pair = stack.pop()
        kids = [(u, v) for u in pre1[x] for v in pre2[y] if (u, v) != pair]
        children[pair] = kids
        stack.extend(kids)
    return build_trees([(r1, r2)], children)[r1, r2]


# ---- the decomposition of a map, and its code as eager text ----

def _walk(succ):
    """(cycles, children): each cycle in cycle order from the node where a
    walk first met it, and children[v], the nodes off the cycles sent to v."""
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
    return cycles, children


def reference_decompose(succ):
    """Split a successor map into (cycle nodes, hanging trees) per component.

    The i-th hanging tree is rooted at the i-th cycle node; cycle nodes are
    listed in cycle order.
    """
    cycles, children = _walk(succ)
    trees = build_trees([v for cycle in cycles for v in cycle], children)
    return [(cycle, [trees[v] for v in cycle]) for cycle in cycles]


def ref_tree_code(child_codes):
    """A node's code: its children's codes in sorted order, wrapped."""
    return "(%s)" % "".join(sorted(child_codes))


def component_text(cycle_len, codes):
    """The code of a cycle read from a given node: `codes` are the codes of
    the trees at its nodes in cyclic order from there."""
    return "C%d[%s]" % (cycle_len, ",".join(codes))


def ref_component_code(cycle_len, codes):
    """codes: one period of hanging-tree codes; the cycle repeats it, and
    its code is read from the least rotation, found by trying every one."""
    full = list(codes) * (cycle_len // len(codes))
    # one code all round is its own least rotation: no quadratic search
    best = full if len(set(full)) == 1 else min(full[r:] + full[:r] for r in range(len(full)))
    return component_text(cycle_len, best)


def ref_graph_code(component_codes):
    """component_codes: one code per copy of a component."""
    return ";".join(sorted(component_codes))


def reference_code(succ):
    """Canonical code of a map's graph, as text, on the walk's cycles and
    trees."""
    cycles, children = _walk(succ)
    codes = build_trees([v for cycle in cycles for v in cycle], children, ref_tree_code)
    return ref_graph_code(ref_component_code(len(cycle), [codes[v] for v in cycle])
                          for cycle in cycles)


def random_maps(rng):
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


def branch_maps(rng):
    """Maps that reach each branch of the decomposition: unions of two a-maps,
    leaves on some cycle nodes only, deep trees at the cycle nodes, an
    8000-node path and a star of 10^5 leaves."""
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


# ---- least rotations and principal ideals ----

def booth_min_rotation(items):
    """Index of a least rotation of a sequence of comparable items.

    Booth's least-rotation algorithm (Booth 1980), linear in the length:
    a failure function over the doubled sequence, with the candidate start
    k moved past every mismatch that shows a smaller rotation.
    """
    m = len(items)
    s = list(items) * 2
    fail = [-1] * (2 * m)
    k = 0
    for j in range(1, 2 * m):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:  # here i == -1
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def is_principal(order, ideal):
    """Whether an ideal of small norm N has a generator: some z in it with
    N(z) = N, since then <z> lies in the ideal with the same norm."""
    r = 2 * math.isqrt(ideal.norm) + 2
    return any(order.norm_element(z) == ideal.norm and ideal.contains(z)
               for z in (QuadInt(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)))


# ---- the CLI ----

def assert_one_line_error(capsys, argv):
    """The CLI's refusal rule: exit 2, one `error:` line on stderr and
    nothing on stdout.  Returns the captured output."""
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
    assert captured.out == "", argv
    return captured
