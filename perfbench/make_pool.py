"""Build predict_pool.json: the instances the `predict` workload draws from.

Each slot fixes a domain and a kind of instance whose prediction cost is
pinned by construction (the multiplicative order of `a` is known exactly),
so that every alternative in a slot costs about the same.  Every instance
stores N and the SHA-256 digest of the canonical code of its brute-force
graph, made here with brute_amap_graph and never with the predictor.  The
workload checks predicted_graph against these digests.

Run from the repository root (takes a few minutes, up to ~0.5 GB):

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import random
import sys
import time

from workloads import (POOL_FILE, Domains, amap, code_digest, is_prime, legendre,
                       prime_factors)

ALTERNATIVES = 6


def primitive_root(p: int) -> int:
    qs = prime_factors(p - 1)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def primes_in(rng, lo: int, hi: int, count: int, keep=lambda p: True) -> list[int]:
    out: set[int] = set()
    while len(out) < count:
        p = rng.randrange(lo, hi)
        if is_prime(p) and keep(p):
            out.add(p)
    return sorted(out)


def _poly_order_is(F, f, n, order: int) -> bool:
    """Whether f has exactly `order` modulo n (order's prime factors tested)."""
    one = amap.Poly.one(F)
    if f.pow_mod(order, n) != one:
        return False
    return all(f.pow_mod(order // q, n) != one for q in prime_factors(order))


def _fp2_order(x: int, y: int, p: int) -> int:
    """Order of x + y*t in F_p[t]/(t^2 + 5), p inert in Z[sqrt(-5)]."""
    def mul(u, v):
        return ((u[0] * v[0] - 5 * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)

    def power(u, e):
        r = (1, 0)
        while e:
            if e & 1:
                r = mul(r, u)
            u = mul(u, u)
            e >>= 1
        return r

    order = p * p - 1
    for q in prime_factors(order):
        while order % q == 0 and power((x % p, y % p), order // q) == (1, 0):
            order //= q
    return order


def build_slots(rng: random.Random, doms: Domains, k: int, tiny: bool) -> list[dict]:
    F2, F3 = doms.F2.field, doms.F3.field
    P = amap.Poly
    slots = []

    def slot(name, spec, instances):
        slots.append({"slot": name, "domain": spec, "instances": instances})

    def irreducibles(F, deg, want, keep=lambda f: True):
        out = []
        while len(out) < want:
            f = P(F, [rng.randrange(F.p) for _ in range(deg)] + [1])
            if f not in out and amap.is_irreducible(f) and keep(f):
                out.append(f)
        return out

    x2, x3 = P(F2, [0, 1]), P(F3, [0, 1])
    if tiny:
        # one small instance per domain kind, for the self-test
        slot("Z-prime", "Z", [{"a": primitive_root(p), "n": p}
                              for p in primes_in(rng, 500, 1000, k)])
        slot("F2-tree", "poly:2", [{"a": [0, 1], "n": list((f * P(F2, [0, 0, 1])).coeffs)}
                                   for f in irreducibles(F2, 5, k)])
        slot("ZI-prime", "quad:-1",
             [{"a": [primitive_root(p), 0],
               "n": doms.ZI.describe_ideal(doms.ZI.rational_prime_splitting(p)[1][0])}
              for p in primes_in(rng, 300, 600, k, lambda p: p % 4 == 1)])
        return slots

    # Z, p prime, a a primitive root: mult_order runs p - 1 steps
    slot("Z-prime", "Z", [{"a": primitive_root(p), "n": p}
                          for p in primes_in(rng, 600_000, 700_000, k)])
    # Z, n = 8p, a = 2g with 2g primitive mod p: a tree over a long cycle
    tree = []
    for p in primes_in(rng, 60_000, 70_000, k):
        g = next(2 * h for h in range(1, p) if 2 * h % p and all(
            pow(2 * h, (p - 1) // q, p) != 1 for q in prime_factors(p - 1)))
        tree.append({"a": g, "n": 8 * p})
    slot("Z-tree", "Z", tree)
    # Z, a = -1 on highly divisible n: orders <= 2, assembly of ~N/2 cycles
    smooth = [n for n in range(700_000, 1_000_000, 10)
              if max(prime_factors(n)) <= 13]
    slot("Z-neg", "Z", [{"a": -1, "n": n} for n in sorted(rng.sample(smooth, k))])
    # Z, a = 1: N fixed points
    smooth = [n for n in range(100_000, 200_000, 10) if max(prime_factors(n)) <= 11]
    slot("Z-one", "Z", [{"a": 1, "n": n} for n in sorted(rng.sample(smooth, k))])
    # F_2[x], n = x^3 * f with f irreducible of degree 13: 2^13 - 1 is prime,
    # so every a outside x*F_2[x] + F_2 has order 8191 modulo f
    x3cube = P(F2, [0, 0, 0, 1])
    slot("F2-tree", "poly:2",
         [{"a": rng.choice([[0, 1], [0, 1, 1], [0, 0, 1, 1]]),
           "n": list((f * x3cube).coeffs)} for f in irreducibles(F2, 13, k)])
    # F_2[x], n primitive of degree 14: x has order 2^14 - 1
    slot("F2-prim", "poly:2",
         [{"a": [0, 1], "n": list(f.coeffs)}
          for f in irreducibles(F2, 14, k, lambda f: _poly_order_is(F2, x2, f, 2**14 - 1))])
    # F_3[x], n primitive of degree 9: x has order 3^9 - 1
    slot("F3-prim", "poly:3",
         [{"a": [0, 1], "n": list(f.coeffs)}
          for f in irreducibles(F3, 9, k, lambda f: _poly_order_is(F3, x3, f, 3**9 - 1))])
    # Z[i], a prime of norm p = 1 mod 4 and a = g primitive mod p: order p - 1
    ZI = doms.ZI
    slot("ZI-prime", "quad:-1",
         [{"a": [primitive_root(p), 0],
           "n": ZI.describe_ideal(ZI.rational_prime_splitting(p)[1][0])}
          for p in primes_in(rng, 100_000, 120_000, k, lambda p: p % 4 == 1)])
    # Z[sqrt(-5)], <p> for p inert (N = p^2), a of full order p^2 - 1
    Z5 = doms.Z5
    inert = []
    for p in primes_in(rng, 200, 320, k, lambda p: legendre(-5, p) == -1):
        x = next(x for x in range(1, p) if _fp2_order(x, 1, p) == p * p - 1)
        inert.append({"a": [x, 1], "n": Z5.describe_ideal(Z5.principal(amap.QuadInt(p, 0)))})
    slot("Z5-inert", "quad:-5", inert)
    # Z[i], a = i (order 4) on <m>: many short cycles, assembly-bound
    slot("ZI-unit", "quad:-1",
         [{"a": [0, 1], "n": ZI.describe_ideal(ZI.principal(amap.QuadInt(m, 0)))}
          for m in sorted(rng.sample(range(280, 320), k))])
    return slots


def add_digests(doms: Domains, slots: list[dict]) -> None:
    for slot in slots:
        spec = slot["domain"]
        dom = doms.by_spec[spec]
        for inst in slot["instances"]:
            t0 = time.perf_counter()
            a = doms.element(spec, inst["a"])
            n = doms.ideal(spec, inst["n"])
            brute = amap.brute_amap_graph(dom, a, n, max_nodes=2 * 10**6)
            inst["N"] = brute.node_count
            inst["sha256"] = code_digest(brute.code)
            del brute
            print(f"{slot['slot']:9} N={inst['N']:8} "
                  f"{time.perf_counter() - t0:6.2f}s", file=sys.stderr, flush=True)


def main() -> None:
    rng = random.Random(20190104)
    doms = Domains()
    pool = {"slots": build_slots(rng, doms, ALTERNATIVES, tiny=False),
            "tiny": build_slots(rng, doms, 2, tiny=True)}
    add_digests(doms, pool["slots"] + pool["tiny"])
    with open(POOL_FILE, "w") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
