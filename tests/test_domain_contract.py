"""The domain laws, each stated once and run on every entry of
`domains.ENTRIES`: here `factor`, the norm, gcd and division, `reduce`,
`decode`, the residue classes, congruence counts, Euler phi, the local
rings D/p^alpha and `ideal_pow`, listing residues only for moduli of norm at
most `CAP`; in `test_gcd_chain` the gcd chain, the a-decomposition and
`element_in_ideal`; in `test_orders` the order search and `local_rows`; in
`test_successor_table` `successors` and `residues`; in `test_base` the unit
ideal, domain equality and the `--domain` spec.  The factorization law
(`check_factorization`, which judges each prime by `trial_factor`,
`rabin_is_irreducible` or `scan_splitting`), the residue-class and
congruence laws (`check_residue_classes`, `check_congruences`) and the
products of the order search (`assert_products_agree`) are helpers of
`references`, which other modules and the acceptance criteria call too.
"""

import functools
import random

import pytest

from amap.base import power
from domains import ENTRIES, divisors, generators, reference
from references import (CAP, assert_products_agree, check_congruences, check_factorization,
                        check_residue_classes, counted_moduli, small_moduli)

every_entry = pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)


@every_entry
def test_factorization_law(entry):
    # on the instances' ideals and products of two of them
    dom = entry.dom
    ideals = list(dict.fromkeys(n for _, n in entry.instances()))
    ideals += [dom.ideal_mul(m, n) for others in (ideals[1:], ideals[::-1])
               for m, n in zip(ideals, others)]
    assert len(ideals) >= (40 if entry.full else 20)
    for n in ideals:
        check_factorization(dom, n, dom.factor(n))


@every_entry
def test_norm_is_multiplicative(entry):
    dom = entry.dom
    for m in entry.moduli:
        for n in entry.moduli:
            assert dom.norm(dom.ideal_mul(m, n)) == dom.norm(m) * dom.norm(n), (m, n)


@every_entry
def test_ideal_gcd_and_ideal_div_agree(entry):
    dom, ref = entry.dom, reference(entry.dom)
    ideals = list(dict.fromkeys(n for _, n in entry.instances()))
    not_dividing = 0
    for n, m in zip(ideals, ideals[1:] + ideals[:1]):
        g = dom.ideal_gcd(n, m)
        assert g == dom.ideal_gcd(m, n)
        n_g, m_g = dom.ideal_div(n, g), dom.ideal_div(m, g)
        assert dom.ideal_gcd(n_g, m_g) == dom.unit_ideal, (n, m)
        assert dom.ideal_mul(m_g, g) == m, (n, m)
        for k in divisors(dom, n):  # g among them
            assert dom.ideal_mul(dom.ideal_div(n, k), k) == n, (n, k)
        # m divides n exactly when m holds the generators of n
        if all(ref.element_in_ideal(z, m) for z in generators(dom, dom.describe_ideal(n))):
            assert g == m, (n, m)
        else:
            with pytest.raises(ValueError):
                dom.ideal_div(n, m)
            not_dividing += 1
    assert not_dividing >= 10


@every_entry
def test_reduce_is_canonical_and_product_mod_agrees_with_mul_mod(entry):
    dom, ref, rng = entry.dom, reference(entry.dom), random.Random(entry.spec)
    for n in entry.moduli:
        elements = [a for a, m in entry.instances() if m == n]
        residues = [dom.reduce(a, n) for a in elements]
        if dom.norm(n) <= 1100:  # few enough residues to list
            assert set(residues) <= set(dom.residues(n)), n
        for a, r in zip(elements, residues):  # r is a's class's representative
            assert dom.reduce(r, n) == r and ref.element_in_ideal(a - r, n), (a, n)
        assert_products_agree(dom, n, elements, rng)


@every_entry
def test_decode_reads_the_described_forms(entry):
    dom = entry.dom
    for a, n in entry.instances():
        assert entry.decode(dom.describe_element(a), dom.describe_ideal(n)) == (a, n)


@every_entry
def test_residue_classes_number_phi(entry):
    dom = entry.dom  # 48 small moduli of a benchmark domain, 16 of another
    moduli = counted_moduli(entry, 48 if entry.full else 16, entry.spec)
    for n in moduli:
        check_residue_classes(dom, n)
    assert len(moduli) >= (48 if entry.full else 10)
    assert sum(1 < dom.norm(n) <= 200 for n in moduli) >= 8  # unit counts of norm <= 200
    # so the phi(m) over the m | n sum to N(n), here beyond the cap as well
    phi = functools.cache(dom.euler_phi)
    for n in set(entry.moduli + small_moduli(entry)):
        assert sum(map(phi, divisors(dom, n))) == dom.norm(n), n


@every_entry
def test_congruence_solution_counts(entry):
    dom, rng = entry.dom, random.Random(entry.spec)
    for n in counted_moduli(entry, 48 if entry.full else 16, entry.spec):
        check_congruences(dom, n, entry.elements, rng)


@every_entry
def test_euler_phi_is_multiplicative_on_coprime_moduli(entry):
    dom, moduli = entry.dom, entry.moduli
    coprime = [(m, n) for i, m in enumerate(moduli) for n in moduli[i + 1:]
               if dom.ideal_gcd(m, n) == dom.unit_ideal]
    for m, n in random.Random(entry.spec).sample(coprime, 60 if entry.full else 20):
        assert dom.euler_phi(dom.ideal_mul(m, n)) == dom.euler_phi(m) * dom.euler_phi(n), (m, n)


@functools.cache
def primes(entry) -> list:
    """The primes of the entry's moduli and small moduli, in `_ideal_key` order."""
    dom = entry.dom
    return sorted({p for n in entry.moduli + small_moduli(entry) for p, _ in dom.factor(n)},
                  key=dom._ideal_key)


@every_entry
def test_euler_phi_at_prime_powers(entry):
    dom = entry.dom
    for p in primes(entry):
        norm_p = dom.norm(p)
        for e in range(1, 6):
            assert dom.euler_phi(dom.ideal_pow(p, e)) == norm_p**e - norm_p ** (e - 1), (p, e)


@every_entry
def test_units_raised_to_phi_reduce_to_one(entry):
    # by mul_mod powers, not the order search, which itself assumes phi
    dom = entry.dom
    for a, n in entry.instances():
        if not dom.is_zero(a) and dom.ideal_gcd(dom.principal(a), n) == dom.unit_ideal:
            one = dom.reduce(dom.one_element, n)
            assert power(dom.reduce(a, n), dom.euler_phi(n),
                         lambda x, y: dom.mul_mod(x, y, n), one) == one, (a, n)


@every_entry
def test_reduce_respects_sums_and_products(entry):
    dom, rng = entry.dom, random.Random(entry.spec)
    for a, n in entry.instances():
        b = rng.choice(entry.elements)
        ra, rb = dom.reduce(a, n), dom.reduce(b, n)
        assert dom.reduce(a + b, n) == dom.reduce(ra + rb, n), (a, b, n)
        assert dom.reduce(dom.mul(a, b), n) == dom.mul_mod(ra, rb, n), (a, b, n)


@every_entry
def test_powers_of_a_prime_count_their_members(entry):
    # in D/p^alpha, N(p^alpha) <= CAP, the members of p^i number N(p^(alpha - i))
    dom = entry.dom
    for p in primes(entry)[:4]:
        alpha = 0
        while dom.norm(p) ** (alpha + 1) <= CAP:
            alpha += 1
        residues = dom.residues(dom.ideal_pow(p, alpha))
        for i in range(alpha + 1):
            p_i = dom.ideal_pow(p, i)
            members = sum(dom.element_in_ideal(x, p_i) for x in residues)
            assert members == dom.norm(dom.ideal_pow(p, alpha - i)), (p, alpha, i)


@every_entry
def test_ideal_pow_is_repeated_ideal_mul(entry):
    dom = entry.dom
    for p in primes(entry)[:4]:
        product = dom.unit_ideal
        for e in range(41):
            assert dom.ideal_pow(p, e) == product, (p, e)
            product = dom.ideal_mul(product, p)
