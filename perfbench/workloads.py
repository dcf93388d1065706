"""Seeded instances and correctness gates for the three benchmark workloads.

A workload's requests come in *cycles*.  A cycle holds one instance per
slot (a slot fixes the domain and the size band; the seed draws the
concrete element and ideal inside it) in a seeded order, so every seed puts
the same mix of work into every cycle, and a run is a whole number of
cycles, which keeps the metrics comparable between seeds.

An instance carries the timed request (`call`), a gate run outside the
timed region (`verdict`) and the verdict it must produce (`expected`).
A wrong verdict or an exception counts as a failure.

The program is driven only through its public API: ``verify``,
``predicted_graph``, ``redei_check``, ``chebyshev_check``,
``linearized_check``, ``ec_generic_trees`` and the reports' ``to_json``.
Each call looks the name up on the ``amap`` package at call time, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import amap  # noqa: E402
from amap import QuadInt  # noqa: E402

POOL_FILE = Path(__file__).resolve().parent / "predict_pool.json"
WORKLOADS = ("oracle", "predict", "families")


class GateError(Exception):
    """The output is malformed, so no verdict can be read from it."""


@dataclass
class Instance:
    slot: str                       # slot label, e.g. "Z-l"
    nodes: int                      # N: residues (or map points) of the instance
    call: Callable[[], Any]         # the timed request
    verdict: Callable[[Any], bool]  # gate on the output, outside the timed region
    expected: bool = True


# ---- small number theory on the benchmark side (independent of amap) ----

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_smooth(n: int, bound: int) -> bool:
    """Whether every prime factor of n > 0 is at most `bound`."""
    for f in range(2, bound + 1):
        if f * f > n:
            return n <= bound
        while n % f == 0:
            n //= f
    return n == 1


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def quad_norm(d: int, z: QuadInt) -> int:
    """Norm of x + y*w in the maximal order of Q(sqrt(d)), d < 0 squarefree."""
    if d % 4 == 1:
        return z.x * z.x + z.x * z.y + z.y * z.y * (1 - d) // 4
    return z.x * z.x - d * z.y * z.y


def code_digest(code: str) -> str:
    return hashlib.sha256(code.encode()).hexdigest()


# ---- domains ----

class Domains:
    """The domain objects of one process, built once during set-up."""

    def __init__(self) -> None:
        self.Z = amap.IntegerDomain()
        self.F2 = amap.PolyDomain(amap.field(2))
        self.F3 = amap.PolyDomain(amap.field(3))
        self.ZI = amap.QuadOrder(-1)
        self.Z5 = amap.QuadOrder(-5)
        self.by_spec = {"Z": self.Z, "poly:2": self.F2, "poly:3": self.F3,
                        "quad:-1": self.ZI, "quad:-5": self.Z5}

    def element(self, spec: str, data):
        dom = self.by_spec[spec]
        if spec == "Z":
            return data
        if spec.startswith("poly"):
            return amap.Poly(dom.field, data)
        return QuadInt(*data)

    def ideal(self, spec: str, data):
        """Ideal from its JSON form: an int, monic coefficients or an HNF."""
        dom = self.by_spec[spec]
        if spec == "Z":
            return data
        if spec.startswith("poly"):
            return dom.principal(amap.Poly(dom.field, data))
        (a, b), (_, c) = data
        return dom.ideal_from_generators([QuadInt(a, 0), QuadInt(b, c)])


# ---- oracle: verify() over five domains, N ~ 2^13 .. 2^16 ----

# (slot, domain spec, size band); poly bands are degrees, the rest norms.
# With the control a cycle holds 11 requests: four cheap ones (control, Z, F2-13),
# three in the middle (ZI-m twice, Z5-m, about 0.2-0.3 s on a 2-core x86
# VM with Python 3.11) and four dear ones (about 0.5 s).  The median
# request is then always one of the middle three, and does not jump between
# latency levels from one seed to the next.
# Moduli are drawn without large prime factors (the order search in the
# prediction is linear in the order, and a large prime would make it, not
# enumeration, the cost of a few random instances) and the bands are narrow,
# so that one slot costs about the same for every seed.
ORACLE_SLOTS = [
    ("Z-m", "Z", (40000, 44000)), ("Z-l", "Z", (60000, 65536)),
    ("F2-13", "poly:2", (13, 13)),
    ("ZI-m", "quad:-1", (34000, 37000)), ("ZI-m", "quad:-1", (34000, 37000)),
    ("Z5-m", "quad:-5", (30000, 33000)),
    ("F2-14", "poly:2", (14, 14)), ("F3-9", "poly:3", (9, 9)),
    ("ZI-l", "quad:-1", (56000, 62000)), ("Z5-l", "quad:-5", (56000, 62000)),
]
# Planted negative controls: verify(..., corrupt_cycle=True) must say False.
ORACLE_CONTROL_SLOTS = [("ctl-Z", "Z", (8192, 12288)),
                        ("ctl-ZI", "quad:-1", (8192, 12288))]
TINY_NORM_SHIFT = 5   # tiny runs divide norm bands by 32 ...
TINY_DEGREE_DROP = 5  # ... and lower polynomial degrees by 5


def _draw_poly(rng: random.Random, p: int, deg: int, monic: bool) -> list[int]:
    coeffs = [rng.randrange(p) for _ in range(deg)]
    return coeffs + [1 if monic else rng.randrange(1, p)]


def _smooth_poly(rng: random.Random, p: int, deg: int) -> list[int]:
    """Monic polynomial of degree `deg`, the product of two random monic
    factors of degree about deg/2, so no irreducible factor is large."""
    f = _draw_poly(rng, p, deg // 2, monic=True)
    g = _draw_poly(rng, p, deg - deg // 2, monic=True)
    out = [0] * deg + [0]
    for i, c in enumerate(f):
        for j, e in enumerate(g):
            out[i + j] = (out[i + j] + c * e) % p
    return out


def _draw_quad_ideal(rng, dom, d: int, lo: int, hi: int):
    """Ideal with norm in [lo, hi), the product of two principal ideals of
    norm about sqrt(N), in Z[sqrt(-5)] often times a non-principal prime
    above 2 or 3.  Returns (ideal, norm)."""
    while True:
        extra, extra_norm = None, 1
        if d == -5 and rng.random() < 0.5:
            p = rng.choice((2, 3))
            extra = rng.choice(dom.rational_prime_splitting(p)[1])
            extra_norm = p
        r = math.isqrt(math.isqrt(hi // extra_norm)) + 1
        zs = [QuadInt(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(2)]
        norm = quad_norm(d, zs[0]) * quad_norm(d, zs[1]) * extra_norm
        if lo <= norm < hi:
            ideal = dom.ideal_mul(dom.principal(zs[0]), dom.principal(zs[1]))
            if extra is not None:
                ideal = dom.ideal_mul(ideal, extra)
            return ideal, norm


def _oracle_instance(rng, doms: Domains, slot: str, spec: str, band, tiny: bool,
                     corrupt: bool) -> Instance:
    lo, hi = band
    if spec.startswith("poly"):
        if tiny:
            lo = hi = lo - TINY_DEGREE_DROP
    elif tiny:
        lo, hi = lo >> TINY_NORM_SHIFT, hi >> TINY_NORM_SHIFT
    dom = doms.by_spec[spec]
    if spec == "Z":
        n = rng.randrange(lo, hi)
        while not is_smooth(n, math.isqrt(hi)):
            n = rng.randrange(lo, hi)
        a = rng.randint(2, 60) * rng.choice((1, -1))
        nodes = n
    elif spec.startswith("poly"):
        p = dom.field.p
        n = doms.ideal(spec, _smooth_poly(rng, p, lo))
        a = amap.Poly(dom.field, _draw_poly(rng, p, 2, monic=False))
        nodes = p**lo
    else:
        d = dom.d
        n, nodes = _draw_quad_ideal(rng, dom, d, lo, hi)
        a = QuadInt(0, 0)
        while quad_norm(d, a) < 2:  # no zero, no unit
            a = QuadInt(rng.randint(-4, 4), rng.randint(-4, 4))

    def call():
        report = amap.verify(dom, a, n, corrupt_cycle=corrupt)
        return report, report.to_json()

    def verdict(out) -> bool:
        report, text = out
        doc = json.loads(text)
        if report.node_count != nodes or doc["node_count"] != nodes:
            raise GateError(f"node count {report.node_count}, expected {nodes}")
        if doc["isomorphic"] != report.isomorphic:
            raise GateError("JSON verdict disagrees with the report")
        return report.isomorphic

    return Instance(slot, nodes, call, verdict, expected=not corrupt)


def oracle_cycle(rng: random.Random, doms: Domains, tiny: bool) -> list[Instance]:
    out = [_oracle_instance(rng, doms, s, spec, band, tiny, corrupt=False)
           for s, spec, band in ORACLE_SLOTS]
    s, spec, band = rng.choice(ORACLE_CONTROL_SLOTS)
    out.append(_oracle_instance(rng, doms, s, spec, band, tiny, corrupt=True))
    rng.shuffle(out)
    return out


# ---- predict: predicted_graph() only, N ~ 10^4 .. 10^6 ----

def load_pool() -> dict:
    with open(POOL_FILE) as fh:
        return json.load(fh)


# Draws per cycle from each pool slot (default 1).  The order-search slots
# (about 0.3-0.5 s each on a 2-core x86 VM, Python 3.11) outnumber the
# five assembly-bound ones (under 0.15 s), so the median request is always an
# order search, and the top one (ZI-prime) is drawn often enough that the
# tail lies inside it rather than at the edge between two slots.
PREDICT_DRAWS = {"F2-prim": 2, "F3-prim": 2, "Z-prime": 2, "ZI-prime": 2}


def predict_cycle(rng: random.Random, doms: Domains, tiny: bool,
                  pool: dict) -> list[Instance]:
    """Draws from every pool slot.  Every pool instance carries the digest of
    its brute-force graph code, made by make_pool.py with brute_amap_graph."""
    out = []
    slots = pool["tiny" if tiny else "slots"]
    for slot in (s for s in slots for _ in range(PREDICT_DRAWS.get(s["slot"], 1))):
        spec = slot["domain"]
        inst = rng.choice(slot["instances"])
        dom = doms.by_spec[spec]
        a = doms.element(spec, inst["a"])
        n = doms.ideal(spec, inst["n"])
        nodes = inst["N"]
        digest = inst.get("sha256")

        def call(dom=dom, a=a, n=n):
            return amap.predicted_graph(dom, a, n)

        def verdict(pred, nodes=nodes, digest=digest) -> bool:
            if digest is None:
                return pred.graph.node_count == nodes
            return code_digest(pred.graph.code) == digest

        out.append(Instance(slot["slot"], nodes, call, verdict))
    rng.shuffle(out)
    return out


# ---- families: many small application checks ----

_ODD_PRIMES = [p for p in range(300, 3000) if is_prime(p)]
_TINY_PRIMES = [p for p in range(11, 60) if is_prime(p)]
# (q, n) with q in {2, 3, 4, 5}: every cycle checks one small field and one
# of 2^10 elements with four coefficients, so each run has as many of these
# dearest checks, which set the tail, and they cost alike
_LIN_SMALL = [(q, n) for q in (2, 3, 4, 5) for n in range(1, 11) if 8 <= q**n <= 256]
_LIN_LARGE = [(2, 10), (4, 5)]
_LIN_TINY = [(q, n) for q, n in _LIN_SMALL if q**n <= 64]
_EC_ORDERS = (-1, -2, -5, -6, -7, -10, -11, -15)
EC_MAX_PRIME = 3000


def _redei(rng, tiny: bool) -> Instance:
    q = rng.choice(_TINY_PRIMES if tiny else _ODD_PRIMES)
    deg = rng.randint(2, 6)
    a = rng.randrange(1, q)
    nodes = q + 1 - (1 + legendre(a, q))  # P^1 minus the fixed points +-sqrt(a)

    def call():
        report = amap.redei_check(q, deg, a)
        return report, report.to_json()

    def verdict(out) -> bool:
        report, text = out
        if report.node_count != nodes:
            raise GateError(f"redei node count {report.node_count} != {nodes}")
        return report.isomorphic and json.loads(text)["isomorphic"]

    return Instance("redei", nodes, call, verdict)


def _chebyshev(rng, tiny: bool) -> Instance:
    q = rng.choice(_TINY_PRIMES if tiny else _ODD_PRIMES)
    deg = rng.randint(2, 10)

    def call():
        report = amap.chebyshev_check(q, deg)
        return report, report.to_json()

    def verdict(out) -> bool:
        report, text = out
        # every finite functional graph has a periodic point
        if report.node_count != q or report.periodic_checked + len(report.skipped) < 1:
            raise GateError("chebyshev report covers the wrong point set")
        return report.ok and json.loads(text)["ok"]

    return Instance("chebyshev", q, call, verdict)


def _linearized(rng, tiny: bool, pairs) -> Instance:
    q, n = rng.choice(_LIN_TINY if tiny else pairs)
    deg = 3 if pairs is _LIN_LARGE else rng.randint(0, n + 2)
    coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]

    def call():
        report = amap.linearized_check(q, n, coeffs)
        return report, report.to_json()

    def verdict(out) -> bool:
        report, text = out
        if report.node_count != q**n:
            raise GateError(f"linearized node count {report.node_count} != {q**n}")
        return report.isomorphic and json.loads(text)["isomorphic"]

    return Instance("linearized", q**n, call, verdict)


def _ec_tree_ok(nu: list[int], nodes: int, shifted_norm: int, a_norm: int) -> bool:
    """Independent checks of one generic tree: its size is the product of its
    nu-series, that product divides |E|-like norm N(pi^n -+ 1), and every
    prime of it divides N(a)."""
    size = math.prod(nu)
    return (size == nodes and shifted_norm % size == 0
            and all(a_norm % p == 0 for p in prime_factors(size)))


def _ectrees(rng, tiny: bool) -> Instance:
    d = rng.choice(_EC_ORDERS)
    t, s = (1, (d - 1) // 4) if d % 4 == 1 else (0, d)  # w^2 = t*w + s
    span = 3 if tiny else 6
    while True:
        a = QuadInt(rng.randint(-5, 5), rng.randint(-3, 3))
        pi = QuadInt(rng.randint(-span, span), rng.randint(-span, span))
        n = rng.randint(1, 2 if tiny else 3)
        if a.is_zero or quad_norm(d, pi) < 2:
            continue  # a = 0 or pi a unit: pi^n -+ 1 may vanish
        pin = QuadInt(1, 0)
        for _ in range(n):
            yy = pin.y * pi.y
            pin = QuadInt(pin.x * pi.x + s * yy, pin.x * pi.y + pin.y * pi.x + t * yy)
        minus_norm = quad_norm(d, QuadInt(pin.x - 1, pin.y))
        plus_norm = quad_norm(d, QuadInt(pin.x + 1, pin.y))
        # factoring an ideal splits each rational prime below it by a search
        # linear in the prime: keep the primes small, the check is meant small
        if is_smooth(minus_norm, EC_MAX_PRIME) and is_smooth(plus_norm, EC_MAX_PRIME):
            break
    a_norm = quad_norm(d, a)

    def call():
        report = amap.ec_generic_trees(d, a, pi, n)
        return report, report.to_json()

    def verdict(out) -> bool:
        report, text = out
        doc = json.loads(text)
        if doc["tree_plus_code"] != report.tree_plus_code:
            raise GateError("JSON tree disagrees with the report")
        # no map is enumerated here; N is the size of the two trees built
        inst.nodes = report.tree_plus_nodes + report.tree_minus_nodes
        return (_ec_tree_ok(report.nu_plus, report.tree_plus_nodes, minus_norm, a_norm)
                and _ec_tree_ok(report.nu_minus, report.tree_minus_nodes,
                                plus_norm, a_norm))

    inst = Instance("ectrees", 0, call, verdict)
    return inst


# checks of each family per cycle
FAMILY_MIX = (("redei", _redei, 4), ("chebyshev", _chebyshev, 4),
              ("linearized", lambda rng, tiny: _linearized(rng, tiny, _LIN_SMALL), 1),
              ("linearized", lambda rng, tiny: _linearized(rng, tiny, _LIN_LARGE), 1),
              ("ectrees", _ectrees, 4))


def families_cycle(rng: random.Random, doms: Domains, tiny: bool) -> list[Instance]:
    out = [make(rng, tiny) for _, make, count in FAMILY_MIX for _ in range(count)]
    rng.shuffle(out)
    return out


# ---- set-up ----

def setup(workload: str, seed: int, tiny: bool, n_cycles: int) -> list[list[Instance]]:
    """Build the domains and `n_cycles` cycles of the workload's requests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    doms = Domains()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        return [oracle_cycle(rng, doms, tiny) for _ in range(n_cycles)]
    if workload == "predict":
        pool = load_pool()
        return [predict_cycle(rng, doms, tiny, pool) for _ in range(n_cycles)]
    return [families_cycle(rng, doms, tiny) for _ in range(n_cycles)]
