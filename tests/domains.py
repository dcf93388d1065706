"""The one list of domains the tests run on, their seeded instances, and the
test-only domain references.

Each entry of `ENTRIES` is keyed by its CLI `--domain` spec and gives the
domain, seeded (a, n) instances under a norm cap and `decode` of the JSON
forms.  Every domain law runs on every entry, and the tests that check more
than a domain law draw their instances from here: a new domain is one entry.

The references keep earlier library bodies unchanged: `mult_order` the
order search on a whole modulus, and `LinearOrderReference` the search
before it, linear in the order; `divisors`, `divisor_table` and
`divisor_walk` the divisor-lattice walk that predictions read their cycles
off before `Domain.local_rows`; `FactorReference`, its three kind mixins and
`reference_nu_series` the bodies of `Domain.a_decomposition`,
`element_in_ideal`, `QuadOrder.ideal_div` and `dynamics.nu_series`, which
walk a prime factorization where the library walks gcds; and
`reference_successors` the per-residue body of `dynamics.brute_amap_graph`.
`reference(dom)` mixes them into a copy of a domain.
"""

import functools
import math
import random

from amap.base import Domain, NotCoprimeError, ZeroIdealError, check_positive_int
from amap.finitefield import field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadIdeal, QuadInt, QuadOrder


def mult_order(dom, a, n) -> int:
    """Order of a in the unit group mod n; requires gcd(<a>, n) = 1.

    Raises NotCoprimeError for a non-invertible a and RuntimeError unless
    a^phi(n) = 1 mod n.
    """
    dom._check_coprime(a, n)
    return dom._order(a, n, dom.euler_phi(n))


class LinearOrderReference:
    def mult_order(self, a, n) -> int:
        """Order of a in the unit group mod n; requires gcd(<a>, n) = 1."""
        g = n if self.is_zero(a) else self.ideal_gcd(self.principal(a), n)
        if g != self.unit_ideal:
            raise NotCoprimeError(
                f"element is not invertible modulo {self.describe_ideal(n)}")
        bound = self.euler_phi(n)
        one_r = self.reduce(self.one_element, n)
        ar = self.reduce(a, n)
        y = ar
        order = 1
        while y != one_r:
            y = self.reduce(self.mul(y, ar), n)
            order += 1
            if order > bound:
                raise RuntimeError("order exceeded Euler phi; broken arithmetic")
        return order


def divisor_walk(dom, n, order_at):
    """(m, phi(m), lcm of order_at(p^k, phi(p^k)) over the p^k || m) for
    every divisor m of n, sorted by `_ideal_key`."""
    one = dom.unit_ideal
    table = [(one, 1, 1)]
    for p, e in dom.factor(n):
        norm_p = dom.norm(p)
        powers = [(one, 1, 1)]
        pk = one
        for k in range(1, e + 1):
            pk = dom.ideal_mul(pk, p)
            phi = norm_p**k - norm_p ** (k - 1)
            powers.append((pk, phi, order_at(pk, phi)))
        table = [(dom.ideal_mul(m, pk), phi * phi_k, math.lcm(r, r_k))
                 for m, phi, r in table for pk, phi_k, r_k in powers]
    table.sort(key=lambda row: dom._ideal_key(row[0]))
    return table


def divisors(dom, n):
    """All ideal divisors, sorted by norm then by canonical encoding."""
    return [m for m, _, _ in divisor_walk(dom, n, lambda pk, phi: 1)]


def divisor_table(dom, a, n):
    """(m, phi(m), order of a mod m) for every divisor m, in `divisors` order.
    Requires gcd(<a>, n) = 1."""
    dom._check_coprime(a, n)
    return divisor_walk(dom, n, lambda pk, phi: dom._order(a, pk, phi))


class FactorReference:
    def a_decomposition(self, a, n):
        """Split n = n0 * n1 with n0 carrying exactly the primes dividing <a>."""
        if self.is_zero(a):
            raise ValueError("a-decomposition requires a nonzero element")
        n0 = n1 = self.unit_ideal
        for p, e in self.factor(n):
            pk = self.ideal_pow(p, e)
            if self.element_in_ideal(a, p):
                n0 = self.ideal_mul(n0, pk)
            else:
                n1 = self.ideal_mul(n1, pk)
        return n0, n1


class ReferenceZ(FactorReference):
    def element_in_ideal(self, a: int, n: int) -> bool:
        return a % check_positive_int(n) == 0


class ReferencePoly(FactorReference):
    def element_in_ideal(self, a: Poly, n: Poly) -> bool:
        if n.is_zero:
            raise ZeroIdealError("membership in the zero ideal")
        return (a % n).is_zero


class ReferenceQuad(FactorReference):
    def ideal_div(self, n: QuadIdeal, m: QuadIdeal) -> QuadIdeal:
        """Exact quotient via exponent subtraction on factorizations."""
        self._check_pair(n, m)
        fn = dict(self.factor(n))
        out = self.unit_ideal
        for p, e in self.factor(m):
            have = fn.pop(p, 0)
            if have < e:
                raise ValueError("ideal does not divide")
            if have > e:
                out = self.ideal_mul(out, self.ideal_pow(p, have - e))
        for p, e in fn.items():
            out = self.ideal_mul(out, self.ideal_pow(p, e))
        return out

    def element_in_ideal(self, a: QuadInt, n: QuadIdeal) -> bool:
        self._check_pair(n, n)
        return n.contains(a)


def reference_nu_series(dom: Domain, a, n0) -> tuple[int, ...]:
    """Norm sequence of the gcd chain of n0 against <a>.

    Requires every prime of n0 to divide <a>; the unit ideal gives the
    empty sequence.  The result is non-increasing and its product is the
    norm of n0.
    """
    if dom.is_zero(a):
        raise ValueError("nu-series requires a nonzero element")
    if dom.a_decomposition(a, n0)[1] != dom.unit_ideal:
        raise ValueError("some prime of the ideal does not divide the element")
    a_ideal = dom.principal(a)
    max_steps = sum(e for _, e in dom.factor(n0))
    norms: list[int] = []
    rem = n0
    while rem != dom.unit_ideal:
        g = dom.ideal_gcd(rem, a_ideal)
        norms.append(dom.norm(g))
        rem = dom.ideal_div(rem, g)
        if len(norms) > max_steps:
            raise RuntimeError("nu-series failed to terminate")
    if any(norms[i] < norms[i + 1] for i in range(len(norms) - 1)):
        raise RuntimeError("nu-series is not non-increasing")
    return tuple(norms)


def reference_successors(dom, a, n):
    residues = dom.residues(n)
    index = {r: i for i, r in enumerate(residues)}
    ar = dom.reduce(a, n)
    return [index[dom.mul_mod(r, ar, n)] for r in residues]


@functools.cache
def _reference_class(cls):
    kind = next(m for base, m in ((IntegerDomain, ReferenceZ), (PolyDomain, ReferencePoly),
                                  (QuadOrder, ReferenceQuad)) if issubclass(cls, base))
    return type(f"Reference{cls.__name__}", (LinearOrderReference, kind, cls), {})


def reference(dom):
    """A copy of dom whose class mixes in the linear order search and the
    factorization bodies of its kind."""
    ref = object.__new__(_reference_class(type(dom)))
    vars(ref).update(vars(dom))
    return ref


# ---- element and ideal forms ----

def element(dom, value):
    """The element whose `describe_element` form is value."""
    if isinstance(dom, PolyDomain):
        return Poly(dom.field, value)
    if isinstance(dom, QuadOrder):
        return QuadInt(*value)
    return value


def generators(dom, value):
    """Elements generating the ideal whose `describe_ideal` form is value:
    its generator, or the HNF basis {a, b + c*w} of a quadratic ideal."""
    if isinstance(dom, QuadOrder):
        (a, b), (_, c) = value
        return [QuadInt(a, 0), QuadInt(b, c)]
    return [element(dom, value)]


def _random_element(dom, rng, cap):
    """A random element whose principal ideal has norm about cap or less."""
    if isinstance(dom, PolyDomain):
        q, degree = dom.field.q, 0
        while q ** (degree + 1) <= cap:
            degree += 1
        return Poly(dom.field, [rng.randrange(q) for _ in range(rng.randint(1, degree + 1))])
    if isinstance(dom, QuadOrder):
        x, y = math.isqrt(cap // 2), math.isqrt(cap // (2 * -dom.d))
        return QuadInt(rng.randint(-x, x), rng.randint(-y, y))
    return rng.randint(-cap, cap)


# ---- the seeded source ----

def _seeded(dom, rng, cap, full):
    """(moduli, elements, grid, chains): the unit ideal, primes, prime powers,
    products of two primes and random principal ideals; 0, 1, -1 and random
    elements; each element and elements of n against each modulus n; and
    pairs with n divisible by a power of <a>."""
    n_least, n_randoms, n_small, n_large, n_chains = (4, 12, 3, 3, 32) if full else (
        3, 2, 2, 2, 6)
    one = dom.one_element

    def draw(bound):  # a nonzero element whose principal ideal has norm <= bound
        while True:
            a = _random_element(dom, rng, bound)
            if not dom.is_zero(a) and dom.norm(dom.principal(a)) <= bound:
                return a

    def power(p):  # the largest exponent e >= 2 with norm p^e under the cap, or 2
        e = 2
        while dom.norm(p) ** (e + 1) <= cap:
            e += 1
        return dom.ideal_pow(p, e)

    def members(n):  # nonzero elements of n
        gens = [g for g in generators(dom, dom.describe_ideal(n)) if not dom.is_zero(g)]
        return gens + [dom.mul(gens[-1], draw(60))]

    elements = [one - one, one, -one] + [draw(60) for _ in range(n_small)] + [
        draw(cap) for _ in range(n_large)]
    # principal ideals with norms spread evenly on a log scale up to the cap
    randoms = [dom.principal(draw(round(4 * (cap / 4) ** rng.random())))
               for _ in range(n_randoms)]
    primes = sorted({p for n in randoms + [dom.principal(a) for a in elements[3:]]
                     for p, _ in dom.factor(n)}, key=dom._ideal_key)
    least = primes[:n_least]
    products = [dom.ideal_mul(p, r) for i, p in enumerate(primes) for r in primes[i + 1:]
                if dom.norm(p) * dom.norm(r) <= cap]
    others = primes[n_least:]
    moduli = list(dict.fromkeys([
        dom.unit_ideal, *least, *rng.sample(others, min(n_least - 2, len(others))),
        *map(power, least[:n_least - 1]), dom.ideal_pow(least[0], 3),
        products[0], products[-1], rng.choice(products),
        dom.ideal_mul(dom.ideal_pow(least[1], 2), least[2]), *randoms]))
    grid = [(a, n) for n in moduli for a in elements + members(n)]
    chains = [(a, dom.ideal_mul(dom.principal(draw(200)),
                                dom.ideal_pow(dom.principal(a), rng.randint(0, 3))))
              for a in (draw(60) for _ in range(n_chains))]
    return moduli, elements, grid, chains


class Entry:
    """One domain of the list, with its seeded instances.

    Each of the five benchmark domains gives a norm cap, no lower than the
    largest norm its tests drew before this list, and draws four least
    primes, twelve random moduli, nine elements and 32 chain pairs.  The
    others take a cap of 1000, three least primes, two random moduli, seven
    elements and six chain pairs, so every law runs on every entry cheaply."""

    def __init__(self, spec: str, dom: Domain, cap: int | None = None):
        self.spec, self.dom, self.cap, self.full = spec, dom, cap or 1000, cap is not None

    @functools.cached_property
    def _source(self) -> tuple:
        """`_seeded`'s (moduli, elements, grid, chains), drawn on first use:
        a fault in the arithmetic then fails the tests that use them by name
        and does not stop the collection."""
        return _seeded(self.dom, random.Random(self.spec), self.cap, self.full)

    moduli = property(lambda self: self._source[0])
    elements = property(lambda self: self._source[1])

    def __repr__(self) -> str:
        """The test id: Z, F<q>[x] or quad<d>."""
        dom = self.dom
        if isinstance(dom, PolyDomain):
            return f"F{dom.field.q}[x]"
        return f"quad{dom.d}" if isinstance(dom, QuadOrder) else "Z"

    def decode(self, a_json, n_json):
        """(a, n) from their `describe_element` and `describe_ideal` forms."""
        dom = self.dom
        gens = [dom.principal(g) for g in generators(dom, n_json) if not dom.is_zero(g)]
        return element(dom, a_json), functools.reduce(dom.ideal_gcd, gens)

    def instances(self, cap=None, count=None) -> list:
        """The grid's (a, n) pairs, then the chains'.  Only those with
        norm(n) <= cap when a cap is given; of the grid only a seeded `count`,
        in order, when a count is given."""
        grid, chains = ([(a, n) for a, n in pairs if cap is None or self.dom.norm(n) <= cap]
                        for pairs in self._source[2:])
        if count is not None and count < len(grid):
            kept = random.Random(self.spec).sample(range(len(grid)), count)
            grid = [grid[i] for i in sorted(kept)]
        return grid + chains

    def sample(self, count, seed, cap=None):
        """`count` seeded instances with a nonzero a, from `instances(cap or self.cap)`."""
        pool = [(a, n) for a, n in self.instances(cap or self.cap) if not self.dom.is_zero(a)]
        return random.Random(seed).sample(pool, count)


ENTRIES = {entry.spec: entry for entry in [
    Entry("Z", IntegerDomain(), 5000),
    Entry("poly:2", PolyDomain(field(2)), 2**10),
    Entry("poly:3", PolyDomain(field(3)), 3**8),
    Entry("poly:5", PolyDomain(field(5))),
    Entry("poly:7", PolyDomain(field(7))),
    Entry("poly:2:2", PolyDomain(field(2, 2))),
    Entry("poly:2:3", PolyDomain(field(2, 3))),
    Entry("poly:3:2", PolyDomain(field(3, 2))),
    Entry("poly:5:2", PolyDomain(field(5, 2))),
    Entry("quad:-1", QuadOrder(-1), 4000),
    Entry("quad:-2", QuadOrder(-2)),
    Entry("quad:-3", QuadOrder(-3)),
    Entry("quad:-5", QuadOrder(-5), 4000),
    Entry("quad:-7", QuadOrder(-7)),
    Entry("quad:-15", QuadOrder(-15)),
    Entry("quad:-11", QuadOrder(-11)),
]}
