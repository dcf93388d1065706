"""Domain laws that no older test states, run on every entry of
`domains.ENTRIES`.  The older laws run on every entry too, in their modules:
`factor` in `test_arithmetic_layer`, the gcd chain and `element_in_ideal` in
`test_gcd_chain`, the order search, `local_rows` and the source's case kinds
in `test_orders`, `successors` and `residues` in `test_successor_table`, and
the unit ideal, domain equality and the `--domain` spec in `test_base`.
"""

import random

import pytest

from domains import ENTRIES, divisors, generators, reference
from test_product_mod import assert_products_agree

every_entry = pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)


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
