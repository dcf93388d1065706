"""Specializations of the structure theorem to concrete map families.

Four families are covered: degree-n rational maps on the projective line
built from the binomial pair recurrence (Redei functions), Chebyshev
polynomials, endomorphisms of ordinary elliptic curves given by their
quadratic-order data, and linearized polynomials acting on extension
fields.  Each checker derives the predicted structure from the generic
machinery and verifies it against brute-force evaluation of the actual
map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import factor_int
from .dynamics import (JsonReport, Report, assemble_prediction, brute_amap_graph,
                       nu_series, predicted_graph)
from .finitefield import GF, field, quadratic_character
from .graphs import (DEFAULT_MAX_CODE_BYTES, DEFAULT_MAX_NODES, _check_size, brute_graph,
                     decompose_successors, render)
from .integers import IntegerDomain
from .polynomials import Poly, PolyDomain
from .quadorder import QuadInt, QuadOrder
from .trees import RootedTree, elementary_tree

__all__ = ["redei_check", "chebyshev_check", "linearized_check",
           "ec_generic_trees", "ChebyshevReport", "LinearizedReport",
           "ECTreesReport"]

_Z = IntegerDomain()


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

def redei_check(q: int, n: int, a: int, max_nodes: int = DEFAULT_MAX_NODES) -> Report:
    """Check the degree-n Redei map with parameter a over P^1(F_q).

    The map is evaluated through the pair recurrence for (x + sqrt(y))^n,
    so no square roots are needed; poles go to the absorbing point at
    infinity.  The domain drops the fixed points +-sqrt(a) when they exist.
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
    excluded = {x for x in F.elements() if F.mul(x, x) == a_code}
    points: list[int | None] = [None]  # None encodes the point at infinity
    points.extend(x for x in F.elements() if x not in excluded)
    index = {pt: i for i, pt in enumerate(points)}

    def step(x: int) -> int | None:
        num, den = x, F.one  # (x + sqrt(a))^1
        for _ in range(n - 1):
            num, den = (F.add(F.mul(num, x), F.mul(den, a_code)),
                        F.add(num, F.mul(den, x)))
        if den == 0:
            return None
        return F.div(num, den)

    succ = [index[None if pt is None else step(pt)] for pt in points]
    brute = brute_graph(len(points), succ, max_nodes=max_nodes)

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


def chebyshev_check(q: int, n: int,
                    max_nodes: int = DEFAULT_MAX_NODES) -> ChebyshevReport:
    """Check the hanging trees at periodic points of T_n over F_q.

    Periodic points other than +-2 carry one of two trees, selected by the
    quadratic character of c^2 - 4; the components through +-2 are skipped
    and reported, not predicted.
    """
    F = _field_for(q)
    if F.q % 2 == 0:
        raise ValueError("q must be odd")
    if n < 1:
        raise ValueError("the degree n must be positive")
    two = F.add(F.one, F.one)
    minus_two = F.neg(two)
    four = F.mul(two, two)

    def cheb(c: int) -> int:
        prev, cur = two, c  # T_0, T_1
        for _ in range(n - 1):
            prev, cur = cur, F.sub(F.mul(c, cur), prev)
        return cur

    _check_size(q, max_nodes)
    succ = [cheb(c) for c in F.elements()]
    tree_plus = _generic_tree(q - 1, n)
    tree_minus = _generic_tree(q + 1, n)

    checked = 0
    skipped: list[int] = []
    mismatches: list[dict] = []
    for cycle, trees in decompose_successors(succ):
        for c, tree in zip(cycle, trees):
            if c == two or c == minus_two:
                skipped.append(c)
                continue
            chi = quadratic_character(F, F.sub(F.mul(c, c), four))
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


def linearized_check(q: int, n: int, f: Poly | list[int],
                     max_nodes: int = DEFAULT_MAX_NODES) -> LinearizedReport:
    """Check the functional graph of the q-associate of f on F_{q^n}.

    Three graphs must coincide: the brute-force graph of c -> L_f(c) on
    the extension field, the brute-force graph of multiplication by f on
    F_q[x] modulo x^n - 1, and the predicted decomposition built from
    h = gcd(f, x^u - 1) with n = p^t * u.
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
    frob = E.power_table(q)
    coeffs = [emb[c] for c in f.coeffs]

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
    brute_field = brute_graph(E.q, succ, max_nodes=max_nodes)

    # brute force on the quotient ring
    D = PolyDomain(F)
    modulus = Poly.x_pow_minus_one(F, n)
    brute_quotient = brute_amap_graph(D, f, modulus, max_nodes=max_nodes)

    # predicted decomposition: n0 = h^(p^t), n1 = ((x^u - 1)/h)^(p^t)
    t, u = 0, n
    while u % p == 0:
        u //= p
        t += 1
    pt = p**t
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
