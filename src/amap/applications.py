"""Specializations of the structure theorem to concrete map families.

Four families are covered: degree-n rational maps on the projective line
built from the binomial pair recurrence (Redei functions), Chebyshev
polynomials, endomorphisms of ordinary elliptic curves given by their
quadratic-order data, and linearized polynomials acting on extension
fields.  Each checker derives the predicted structure from the generic
machinery and verifies it against brute-force evaluation of the actual
map.

The Redei and Chebyshev maps are evaluated at every point, as whole tables:
``_BLOCK`` points at a time, with one ``GF`` list operation per arithmetic
step.  They are built by doubling over the bits of the degree n, so a table
costs O(q log n) field operations.  A linearized map is F_p-linear: it is
evaluated at an F_p basis only, and ``polynomials._fp_linear_table`` fills in
its table, as it does the quotient-ring successor table.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

from .base import factor_int, power
from .dynamics import (JsonReport, Report, assemble_prediction, brute_amap_graph,
                       nu_series, predicted_graph)
from .finitefield import GF, field, quadratic_character
from .graphs import (DEFAULT_MAX_CODE_BYTES, DEFAULT_MAX_NODES, _check_size, brute_graph,
                     decompose_successors, render)
from .integers import IntegerDomain
from .polynomials import Poly, PolyDomain, _fp_linear_table
from .quadorder import QuadInt, QuadOrder
from .trees import RootedTree, elementary_tree

__all__ = ["redei_check", "chebyshev_check", "linearized_check",
           "ec_generic_trees", "ChebyshevReport", "LinearizedReport",
           "ECTreesReport"]

_Z = IntegerDomain()

# points per list pass: bounds the temporaries, which a whole-field pass
# would make as large as the field
_BLOCK = 4096


def _blocks(items) -> Iterator[list]:
    """The items as consecutive lists of at most _BLOCK."""
    it = iter(items)
    while block := list(islice(it, _BLOCK)):
        yield block


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factor_int(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fac[0]


def _field_for(q: int) -> GF:
    p, k = _prime_power(q)
    return field(p, k)


# ---- Redei functions ----

def _redei_pairs(F: GF, xs: list[int], squares: list[int], n: int,
                 a: int) -> tuple[list[int], list[int]]:
    """(u, v) with (x + sqrt(a))^n = u + v*sqrt(a), for each x in xs, given
    x^2 for each.

    Left to right over the bits of n: square, then multiply by x + sqrt(a)
    on a one bit.  The first square is (x^2 + a) + 2x*sqrt(a).
    """
    if n == 1:
        return xs, [1] * len(xs)
    const_a = [a] * len(xs)
    u, v = F.add_all(squares, const_a), F.add_all(xs, xs)
    for i, bit in enumerate(bin(n)[3:]):
        if i:
            uv = F.mul_all(u, v)
            u = F.add_all(F.mul_all(u, u), F.mul_all(const_a, F.mul_all(v, v)))
            v = F.add_all(uv, uv)
        if bit == "1":
            u, v = (F.add_all(F.mul_all(u, xs), F.mul_all(const_a, v)),
                    F.add_all(u, F.mul_all(v, xs)))
    return u, v


def _redei_successors(F: GF, n: int, a: int) -> Sequence[int]:
    """Successor table of the Redei map on P^1(F_q) less the roots of a.

    Point 0 is infinity and point i > 0 the i-th finite non-root.  A pole
    goes to infinity; the roots of a are fixed points that nothing else
    reaches, so dropping them leaves a closed map.
    """
    inv = F.inverse_table()
    succ = F.code_array([0])  # infinity is absorbing; x is at x + 1 for now
    roots = []
    for xs in _blocks(range(F.q)):
        squares = F.mul_all(xs, xs)
        if a in squares:
            roots.extend(x for x, y in zip(xs, squares) if y == a)
        num, den = _redei_pairs(F, xs, squares, n, a)
        ratio = F.mul_all(num, [inv[d] for d in den])
        succ.extend([y + 1 if d else 0 for y, d in zip(ratio, den)])
    if not roots:
        return succ
    i, j = sorted(r + 1 for r in roots)
    del succ[j], succ[i]
    out = F.code_array()
    for block in _blocks(succ):
        out.extend([s - (s > i) - (s > j) for s in block])
    return out


def redei_check(q: int, n: int, a: int, max_nodes: int = DEFAULT_MAX_NODES) -> Report:
    """Check the degree-n Redei map with parameter a over P^1(F_q).

    The map is evaluated through the pair recurrence for (x + sqrt(y))^n,
    so no square roots are needed; poles go to the absorbing point at
    infinity.  The domain drops the fixed points +-sqrt(a) when they exist.
    All q finite points are evaluated as one table, at a cost of O(q log n)
    field operations.
    """
    F = _field_for(q)
    if F.q % 2 == 0:
        raise ValueError("q must be odd")
    a_code = a % F.p if F.k == 1 else a
    if not 0 <= a_code < F.q:
        raise ValueError(f"{a} is not a field element code")
    if a_code == 0:
        raise ValueError("the parameter a must be nonzero")
    if n < 1:
        raise ValueError("the degree n must be positive")

    chi = quadratic_character(F, a_code)
    m = q - chi  # P^1(F_q) less the 1 + chi square roots of a
    _check_size(m, max_nodes)
    brute = brute_graph(m, _redei_successors(F, n, a_code), max_nodes=max_nodes)

    prediction = predicted_graph(_Z, n, m)
    return Report.compare(
        _Z, n, m, prediction.graph, prediction.summands, brute,
        params={"family": "redei", "q": q, "a": a_code, "n": n, "chi": chi})


# ---- Chebyshev polynomials ----

@dataclass
class ChebyshevReport(JsonReport):
    """Generic-tree check for one Chebyshev polynomial over one field."""

    family = "chebyshev"

    q: int
    n: int
    ok: bool
    tree_plus_code: str
    tree_minus_code: str
    node_count: int
    periodic_checked: int
    skipped: list[int]
    mismatches: list[dict]


def _generic_tree(m: int, n: int) -> RootedTree:
    """Elementary tree of the n-part of m (the tree hanging in x -> x^n)."""
    return elementary_tree(_Z.gcd_chain(n, m)[0])


def _chebyshev_successors(F: GF, n: int) -> tuple[Sequence[int], bytearray]:
    """T_n at every code of F, and a mark on every square.

    The ladder keeps (T_k, T_k+1) from k = 1 and doubles over the bits of n
    with T_2k = T_k^2 - 2 and T_2k+1 = T_k * T_k+1 - x.
    """
    two = F.add(F.one, F.one)
    succ = F.code_array()
    is_square = bytearray(F.q)
    for xs in _blocks(range(F.q)):
        squares = F.mul_all(xs, xs)
        for y in squares:
            is_square[y] = 1
        twos = [two] * len(xs)
        lo, hi = xs, F.sub_all(squares, twos)
        bits = bin(n)[3:]
        for i, bit in enumerate(bits, 1):
            more = i < len(bits)  # after the last bit only T_n is needed
            if bit == "1":
                lo, hi = (F.sub_all(F.mul_all(lo, hi), xs),
                          F.sub_all(F.mul_all(hi, hi), twos) if more else None)
            else:
                lo, hi = (F.sub_all(F.mul_all(lo, lo), twos),
                          F.sub_all(F.mul_all(lo, hi), xs) if more else None)
        succ.extend(lo)
    return succ, is_square


def chebyshev_check(q: int, n: int,
                    max_nodes: int = DEFAULT_MAX_NODES) -> ChebyshevReport:
    """Check the hanging trees at periodic points of T_n over F_q.

    Periodic points other than +-2 carry one of two trees, selected by the
    quadratic character of c^2 - 4; the components through +-2 are skipped
    and reported, not predicted.  T_n is evaluated at all q points as one
    table, at a cost of O(q log n) field operations.
    """
    F = _field_for(q)
    if F.q % 2 == 0:
        raise ValueError("q must be odd")
    if n < 1:
        raise ValueError("the degree n must be positive")
    two = F.add(F.one, F.one)
    minus_two = F.neg(two)
    four = F.mul(two, two)

    _check_size(q, max_nodes)
    succ, is_square = _chebyshev_successors(F, n)
    tree_plus = _generic_tree(q - 1, n)
    tree_minus = _generic_tree(q + 1, n)

    checked = 0
    skipped: list[int] = []
    mismatches: list[dict] = []
    periodic = ((c, tree) for cycle, trees in decompose_successors(succ)
                for c, tree in zip(cycle, trees))
    for block in _blocks(periodic):
        points = [c for c, _ in block]
        discriminants = F.sub_all(F.mul_all(points, points), [four] * len(points))
        for (c, tree), disc in zip(block, discriminants):
            if c == two or c == minus_two:
                skipped.append(c)
                continue
            chi = 1 if is_square[disc] else -1  # disc is nonzero away from +-2
            expected = tree_plus if chi == 1 else tree_minus
            checked += 1
            if tree != expected:
                mismatches.append({"point": c, "chi": chi,
                                   "tree": tree.code, "expected": expected.code})
    return ChebyshevReport(
        q=q, n=n, ok=not mismatches,
        tree_plus_code=tree_plus.code, tree_minus_code=tree_minus.code,
        node_count=q, periodic_checked=checked,
        skipped=skipped, mismatches=mismatches,
    )


# ---- linearized polynomials ----

@dataclass
class LinearizedReport(JsonReport):
    """Three-way agreement check for one q-associate map."""

    family = "linearized"

    q: int
    n: int
    f: list[int]
    isomorphic: bool
    predicted_code: str
    brute_field_code: str
    brute_quotient_code: str
    node_count: int
    summands: list


def _linearized_successors(E: GF, q: int, coeffs: list[int]) -> Sequence[int]:
    """sum_i coeffs[i] * x^(q^i) at every code x of E, from its images of the
    basis codes p^j (the map is F_p-linear)."""
    xs = [E.p**j for j in range(E.k)]
    images = [0] * E.k
    for i, ai in enumerate(coeffs):
        if i:
            xs = power(xs, q, E.mul_all, [1] * E.k)
        if ai:
            images = E.add_all(images, E.mul_all([ai] * E.k, xs))
    return E.code_array(_fp_linear_table(images, E.p))


def linearized_check(q: int, n: int, f: Poly | list[int],
                     max_nodes: int = DEFAULT_MAX_NODES) -> LinearizedReport:
    """Check the functional graph of the q-associate of f on F_{q^n}.

    Three graphs must coincide: the brute-force graph of c -> L_f(c) on
    the extension field, the brute-force graph of multiplication by f on
    F_q[x] modulo x^n - 1, and the predicted decomposition built from
    h = gcd(f, x^u - 1) with n = p^t * u.  L_f is evaluated only at the
    k*n basis codes p^j of F_{q^n}, by list operations of that length, and
    its table over all q^n points is filled in from those images, so no step
    passes over the whole field or makes a scalar field call per point.
    """
    p, k = _prime_power(q)
    F = field(p, k)
    if isinstance(f, list):
        for c in f:
            if not 0 <= c < q:
                raise ValueError(f"coefficient {c} is not a field element code in [0, {q})")
        f = Poly(F, f)
    if f.field != F:
        raise ValueError("f must have coefficients in F_q")
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if n < 1:
        raise ValueError("n must be positive")
    _check_size(q**n, max_nodes)

    # brute force on the extension field
    E = field(p, k * n)
    emb = E.embedding(F)

    succ = _linearized_successors(E, q, [emb[c] for c in f.coeffs])
    brute_field = brute_graph(E.q, succ, max_nodes=max_nodes)

    # brute force on the quotient ring
    D = PolyDomain(F)
    modulus = Poly.x_pow_minus_one(F, n)
    brute_quotient = brute_amap_graph(D, f, modulus, max_nodes=max_nodes)

    # predicted decomposition: n0 = h^(p^t), n1 = ((x^u - 1)/h)^(p^t)
    pt, u = _Z.a_decomposition(p, n)  # n = p^t * u with p not dividing u
    xu1 = Poly.x_pow_minus_one(F, u)
    h = f.gcd(xu1)
    prediction = assemble_prediction(D, f, nu_series(D, f, h**pt), (xu1 // h)**pt)
    predicted = prediction.graph

    return LinearizedReport(
        q=q, n=n, f=list(f.coeffs),
        isomorphic=(predicted == brute_field == brute_quotient),
        predicted_code=predicted.code,
        brute_field_code=brute_field.code,
        brute_quotient_code=brute_quotient.code,
        node_count=brute_field.node_count,
        summands=list(prediction.summands),
    )


# ---- elliptic-curve endomorphisms ----

@dataclass
class ECTreesReport(JsonReport):
    """Generic trees of an endomorphism given by quadratic-order data."""

    family = "ec-trees"

    d: int
    a: list[int]
    pi: list[int]
    n: int
    tree_plus_code: str
    tree_minus_code: str
    tree_plus_nodes: int
    tree_minus_nodes: int
    nu_plus: list[int]
    nu_minus: list[int]


def ec_generic_trees(d: int, a: QuadInt, pi: QuadInt, n: int) -> ECTreesReport:
    """Hanging trees at generic periodic points of an induced curve map.

    The endomorphism is identified by its quadratic-order element a and the
    Frobenius element pi; the trees for character +1 / -1 come from the
    a-decompositions of <pi^n - 1> and <pi^n + 1>.  A tree whose code
    would pass DEFAULT_MAX_CODE_BYTES raises GraphSizeError unrendered.
    """
    order = QuadOrder(d)
    if a.is_zero or pi.is_zero:
        raise ValueError("a and pi must be nonzero")
    if n < 1:
        raise ValueError("n must be positive")
    pin = order.pow_element(pi, n)
    one = QuadInt(1, 0)
    trees = []
    series = []
    for shifted in (pin - one, pin + one):
        if shifted.is_zero:
            raise ValueError("pi^n -+ 1 is zero; the quotient is not finite")
        nu = order.gcd_chain(a, order.principal(shifted))[0]
        series.append(nu)
        trees.append(elementary_tree(nu))
    tree_plus, tree_minus = trees
    return ECTreesReport(
        d=d, a=[a.x, a.y], pi=[pi.x, pi.y], n=n,
        tree_plus_code=render(tree_plus, DEFAULT_MAX_CODE_BYTES),
        tree_minus_code=render(tree_minus, DEFAULT_MAX_CODE_BYTES),
        tree_plus_nodes=tree_plus.node_count,
        tree_minus_nodes=tree_minus.node_count,
        nu_plus=list(series[0]), nu_minus=list(series[1]),
    )
