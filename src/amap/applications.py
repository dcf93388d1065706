"""Specializations of the structure theorem to concrete map families.

Four families are covered: degree-n rational maps on the projective line
built from the binomial pair recurrence (Redei functions), Chebyshev
polynomials, endomorphisms of ordinary elliptic curves given by their
quadratic-order data, and linearized polynomials acting on extension
fields.  The Redei, Chebyshev and linearized checks predict a whole graph
with the generic machinery, Chebyshev's as two folded torus a-maps glued,
and compare its key with the brute-force graph of the actual map.

The Redei and Chebyshev maps are evaluated as whole tables, ``_BLOCK``
points at a time.  They are built by doubling over the bits of the degree
n, so a table costs O(q log n) field operations.  Over a prime field a
ladder step is one list comprehension per coordinate on ints mod p, and
only the points x <= (p - 1) / 2 are evaluated: the maps have a parity,
R_n(-x) = -R_n(x) (a pole mirrors to a pole) and T_n(-x) = (-1)^n T_n(x),
so the rest of the table is the evaluated half reversed.  Over an extension
field every point is evaluated, one ``GF`` list operation per arithmetic step.
Both Redei paths number P^1(F_q) less the roots r1 < r2 of a (r1 = r2 = q for
a non-square a) by one rule: code c is the point c + 1 - [c > r1] - [c > r2]
and infinity the point 0, so over F_p negation is y -> m + 1 - y on the points
y > 1, for m = p - chi(a) points.
A linearized map is F_p-linear: it is evaluated at an F_p basis only, and
``polynomials._fp_linear_table`` fills in its table, as it does the
quotient-ring successor table.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, islice

from .base import cycle_type, factor_int, power
from .dynamics import JsonReport, Report, brute_amap_graph, predicted_graph
from .finitefield import GF, field, quadratic_character
from .graphs import (DEFAULT_MAX_CODE_BYTES, DEFAULT_MAX_NODES, Component, FunctionalGraph,
                     _check_size, brute_graph, render)
from .integers import IntegerDomain
from .polynomials import Poly, PolyDomain, _fp_linear_table
from .quadorder import QuadInt, QuadOrder, _sqrt_mod
from .trees import elementary_tree, folded_tree

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


def _field_for(q: int) -> GF:
    fac = factor_int(q) if q >= 2 else []  # factor_int reads -9 as 9
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return field(*fac[0])


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

    Point 0 is infinity and code c the point c + 1 - [c > r1] - [c > r2],
    for r1 < r2 the roots of a.  A pole goes to infinity; the roots are fixed
    points that nothing else reaches, so dropping them leaves a closed map.
    A prime field computes on ints mod p, any other by `GF` list operations.
    """
    if F.k == 1:
        return _redei_prime_successors(F, n, a)
    return _redei_field_successors(F, n, a)


def _redei_field_successors(F: GF, n: int, a: int) -> Sequence[int]:
    """`_redei_successors` by `GF` list operations, over any field: for a
    square a a pass over the squares finds a root r, and -r is the other,
    then the ladder runs on the rest."""
    q = r1 = r2 = F.q
    inv = F.inverse_table()
    if quadratic_character(F, a) == 1:
        r = next(x for xs in _blocks(range(q)) for x, y in zip(xs, F.mul_all(xs, xs)) if y == a)
        r1, r2 = sorted((r, F.neg(r)))
    succ = F.code_array([0])  # infinity is absorbing
    for xs in _blocks(chain(range(r1), range(r1 + 1, r2), range(r2 + 1, q))):
        num, den = _redei_pairs(F, xs, F.mul_all(xs, xs), n, a)
        ratio = F.mul_all(num, [inv[d] for d in den])
        succ.extend([c + 1 - (c > r1) - (c > r2) if d else 0 for c, d in zip(ratio, den)])
    return succ


def _redei_prime_successors(F: GF, n: int, a: int) -> Sequence[int]:
    """`_redei_successors` over F_p, on ints mod p.

    The ladder runs on x <= (p - 1) / 2 but the lower root r1 of a (from
    Tonelli-Shanks), one comprehension per coordinate and step, and one last
    pass per block numbers each ratio.  R_n(-x) = -R_n(x), and negation
    reverses the points y > 1, so the upper half is the lower one reversed
    through y -> m + 1 - y, for m = p - chi(a) points.
    """
    p, h = F.p, (F.p - 1) // 2
    inv = F.inverse_table()
    root = _sqrt_mod(a, p)
    r1, r2 = (p, p) if root is None else sorted((root, p - root))
    m1 = p + 2 if root is None else p  # m + 1, for m = p - chi(a)
    bits, a2 = bin(n)[3:], 2 * a
    succ = F.code_array([0])  # infinity is absorbing
    for xs in _blocks(chain(range(min(r1, h + 1)), range(r1 + 1, h + 1))):
        if not bits:
            u, v = xs, [1] * len(xs)
        elif bits[0] == "0":  # (x + sqrt(a))^2 = (x^2 + a) + 2x*sqrt(a)
            u, v = [(x * x + a) % p for x in xs], [2 * x % p for x in xs]
        else:  # (x + sqrt(a))^3 = (x^3 + 3ax) + (3x^2 + a)*sqrt(a)
            u, v = [x * (x * x + 3 * a) % p for x in xs], [(3 * x * x + a) % p for x in xs]
        for bit in bits[1:]:
            if bit == "1":  # a square and the multiply after it, in one pass
                u, v = ([((s * s + a * t * t) * x + a2 * s * t) % p for s, t, x in zip(u, v, xs)],
                        [(s * s + a * t * t + 2 * s * t * x) % p for s, t, x in zip(u, v, xs)])
            else:
                u, v = ([(s * s + a * t * t) % p for s, t in zip(u, v)],
                        [2 * s * t % p for s, t in zip(u, v)])
        succ.extend([(c := s * inv[t] % p) + 1 - (c > r1) - (c > r2) if t else 0
                     for s, t in zip(u, v)])
    for j in range(len(succ) - 1, 1, -_BLOCK):  # x = h..1 gives -x = p - h..p - 1
        succ.fromlist([m1 - y if y > 1 else y for y in succ[j:max(j - _BLOCK, 1):-1]])
    return succ


def redei_check(q: int, n: int, a: int, max_nodes: int = DEFAULT_MAX_NODES) -> Report:
    """Check the degree-n Redei map with parameter a over P^1(F_q).

    The map is evaluated through the pair recurrence for (x + sqrt(y))^n,
    so no square roots are needed; poles go to the absorbing point at
    infinity.  The domain drops the fixed points +-sqrt(a) when they exist.
    The map is tabled at a cost of O(q log n) field operations.  Over F_p
    only x <= (p - 1) / 2 are evaluated, and R_n(-x) = -R_n(x) gives the
    rest: conjugating sqrt(a) turns (-x + sqrt(a))^n = (-1)^n (x - sqrt(a))^n
    into u(-x) = (-1)^n u(x) and v(-x) = (-1)^(n+1) v(x).
    """
    F = _field_for(q)
    if F.q % 2 == 0:
        raise ValueError("q must be odd")
    a_code = a % F.p if F.k == 1 else a
    F.check_codes([a_code])
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
    """Whole-graph check of one Chebyshev polynomial over one field: `ok` is key
    equality; `periodic_checked` counts every periodic point, none `skipped`."""

    family = "chebyshev"

    q: int
    n: int
    ok: bool
    predicted: FunctionalGraph
    brute: FunctionalGraph
    node_count: int
    periodic_checked: int
    skipped: list[int]


def _chebyshev_successors(F: GF, n: int) -> Sequence[int]:
    """T_n at every code of F.

    The ladder keeps (T_k, T_k+1) from k = 1 and doubles over the bits of n
    with T_2k = T_k^2 - 2 and T_2k+1 = T_k * T_k+1 - x.  A prime field
    computes on ints mod p, any other field by `GF` list operations.
    """
    if F.k == 1:
        return _chebyshev_prime_successors(F, n)
    return _chebyshev_field_successors(F, n)


def _chebyshev_field_successors(F: GF, n: int) -> Sequence[int]:
    """`_chebyshev_successors` by `GF` list operations, over any field."""
    two = F.add(F.one, F.one)
    succ = F.code_array()
    for xs in _blocks(range(F.q)):
        twos = [two] * len(xs)
        lo, hi = xs, F.sub_all(F.mul_all(xs, xs), twos)
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
    return succ


def _chebyshev_prime_successors(F: GF, n: int) -> Sequence[int]:
    """`_chebyshev_successors` over F_p, on ints mod p: one comprehension per
    ladder coordinate and step, from (T_2, T_3) or (T_3, T_4) read off x.
    The ladder runs on x <= (p - 1) / 2, and T_n(-x) = (-1)^n T_n(x) fills
    in the rest."""
    p, h = F.p, (F.p - 1) // 2
    bits = bin(n)[3:]
    succ = F.code_array()
    for xs in _blocks(range(h + 1)):
        if not bits:  # T_1
            lo = xs
        elif bits[0] == "0":  # (T_2, T_3)
            lo = [(x * x - 2) % p for x in xs]
            hi = [x * (x * x - 3) % p for x in xs] if bits[1:] else None
        else:  # (T_3, T_4)
            lo = [x * (x * x - 3) % p for x in xs]
            hi = [(x * x * (x * x - 4) + 2) % p for x in xs] if bits[1:] else None
        for i, bit in enumerate(bits[1:], 2):
            more = i < len(bits)  # after the last bit only T_n is needed
            if bit == "1":
                lo, hi = ([(s * t - x) % p for s, t, x in zip(lo, hi, xs)],
                          [(t * t - 2) % p for t in hi] if more else None)
            else:
                lo, hi = ([(s * s - 2) % p for s in lo],
                          [(s * t - x) % p for s, t, x in zip(lo, hi, xs)] if more else None)
        succ.extend(lo)
    for j in range(h, 0, -_BLOCK):
        upper = succ[j:max(j - _BLOCK, 0):-1]
        if n % 2:
            succ.fromlist([p - y if y else 0 for y in upper])
        else:
            succ.extend(upper)
    return succ


def _folded_torus(n: int, m: int) -> tuple[tuple[int, ...], list, int]:
    """x -> n*x on Z/m, m even, folded by x ~ -x: its nu-series, the
    (component, count) pairs of its folded cycles, and its points x = -x.
    A cycle holds its negatives, and folds onto itself, when some t, an odd
    multiple of each o_d/2, has -1 = n^t mod every prime power d > 2 of m1:
    when the o_d have one 2-part, a tag `cycle_type` joins.  Else it meets its
    negative; off x = -x a point and its negative keep disjoint trees T(nu).
    """
    nu, m1 = _Z.gcd_chain(n, m)
    tree = (elementary_tree(nu),)
    cycles = cycle_type([(o, None if d <= 2 else o & -o if pow(n, o // 2, d) == d - 1
                          else "out", phi // o) for d, phi, o in prime]
                        for prime in _Z.local_rows(n, m1))
    fixed = cycles.pop((1, None))  # the d | 2 points, the only untagged ones
    rows = [(Component(o, tree), c // 2) if tag == "out" else (Component(o // 2, tree), c)
            for (o, tag), c in cycles.items()]
    return nu, rows, fixed


def chebyshev_check(q: int, n: int,
                    max_nodes: int = DEFAULT_MAX_NODES) -> ChebyshevReport:
    """Check the whole functional graph of T_n over F_q, q odd.

    x = z + 1/z maps the tori z^(q-1) = 1 and z^(q+1) = 1 onto F_q, z and
    1/z to one point, and T_n(z + 1/z) = z^n + z^-n.  So T_n is x -> n*x on
    Z/(q-1) and on Z/(q+1), each folded by negation and the two glued at 0
    (x = 2) and at the half point (x = -2) (Lidl, Mullen and Turnwald,
    *Dickson Polynomials*, 1993).  T_n is tabled at a cost of O(q log n)
    field operations; over F_p only x <= (p - 1) / 2 are evaluated, and
    T_n(-x) = (-1)^n T_n(x) gives the rest.
    """
    F = _field_for(q)
    if F.q % 2 == 0:
        raise ValueError("q must be odd")
    if n < 1:
        raise ValueError("the degree n must be positive")
    _check_size(q, max_nodes)
    brute = brute_graph(q, _chebyshev_successors(F, n), max_nodes=max_nodes)

    (nu_plus, plus, fixed), (nu_minus, minus, _) = (_folded_torus(n, m) for m in (q - 1, q + 1))
    glued = Component(1, (folded_tree([nu_plus, nu_minus]),))
    predicted = FunctionalGraph(plus + minus + [(glued, fixed)])
    return ChebyshevReport(
        q=q, n=n, ok=predicted == brute, predicted=predicted, brute=brute, node_count=q,
        periodic_checked=sum(count * comp.cycle_len for comp, count in brute.counted),
        skipped=[],
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
    predicted: FunctionalGraph
    brute_field: FunctionalGraph
    brute_quotient: FunctionalGraph
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
    F_q[x] modulo x^n - 1, and the structure-theorem prediction on
    F_q[x]/(x^n - 1), where L_f acts as multiplication by f (Lidl and
    Niederreiter, *Finite Fields*, 3.4).  L_f is evaluated only at the
    k*n basis codes p^j of F_{q^n}, by list operations of that length, and
    its table over all q^n points is filled in from those images, so no step
    passes over the whole field or makes a scalar field call per point.
    """
    F = _field_for(q)
    if isinstance(f, list):
        f = Poly(F, f)
    if f.field != F:
        raise ValueError("f must have coefficients in F_q")
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if n < 1:
        raise ValueError("n must be positive")
    _check_size(q**n, max_nodes)

    # brute force on the extension field
    E = field(F.p, F.k * n)
    emb = E.embedding(F)

    succ = _linearized_successors(E, q, [emb[c] for c in f.coeffs])
    brute_field = brute_graph(E.q, succ, max_nodes=max_nodes)

    # brute force on the quotient ring
    D = PolyDomain(F)
    modulus = Poly.x_pow_minus_one(F, n)
    brute_quotient = brute_amap_graph(D, f, modulus, max_nodes=max_nodes)

    prediction = predicted_graph(D, f, modulus)
    return LinearizedReport(
        q=q, n=n, f=list(f.coeffs),
        isomorphic=(prediction.graph == brute_field == brute_quotient),
        predicted=prediction.graph, brute_field=brute_field, brute_quotient=brute_quotient,
        node_count=brute_field.node_count, summands=list(prediction.summands),
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
    shifted = (pin - QuadInt(1, 0), pin + QuadInt(1, 0))
    if any(s.is_zero for s in shifted):
        raise ValueError("pi^n -+ 1 is zero; the quotient is not finite")
    series = [order.gcd_chain(a, order.principal(s))[0] for s in shifted]
    tree_plus, tree_minus = map(elementary_tree, series)
    return ECTreesReport(
        d=d, a=[a.x, a.y], pi=[pi.x, pi.y], n=n,
        tree_plus_code=render(tree_plus, DEFAULT_MAX_CODE_BYTES),
        tree_minus_code=render(tree_minus, DEFAULT_MAX_CODE_BYTES),
        tree_plus_nodes=tree_plus.node_count,
        tree_minus_nodes=tree_minus.node_count,
        nu_plus=list(series[0]), nu_minus=list(series[1]),
    )
