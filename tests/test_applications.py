import json
import random

import pytest

from amap.applications import (chebyshev_check, ec_generic_trees,
                               linearized_check, redei_check)
from amap.dynamics import nu_series
from amap.finitefield import field, quadratic_character
from amap.graphs import cyc
from amap.integers import IntegerDomain
from amap.quadorder import QuadInt
from amap.trees import LEAF, elementary_tree

Z = IntegerDomain()


@pytest.mark.parametrize("q", [-7, -2, 0, 1])
def test_checkers_reject_q_below_two(q):
    # factor_int takes |q|, so a negative q must not reach it
    for check in (lambda: redei_check(q, 2, 3), lambda: chebyshev_check(q, 2),
                  lambda: linearized_check(q, 2, [1, 1])):
        with pytest.raises(ValueError, match="is not a prime power"):
            check()


def test_linearized_rejects_non_field_codes():
    with pytest.raises(ValueError, match="not a field element code"):
        linearized_check(4, 2, [7])


class TestRedei:
    def test_q7_nonresidue_single_tree(self):
        rep = redei_check(7, 2, 3)
        assert rep.isomorphic
        assert rep.node_count == 8  # chi(3) = -1 over F_7
        assert rep.predicted_code == cyc(1, elementary_tree((2, 2, 2))).code

    def test_q5_residue_permutation(self):
        rep = redei_check(5, 3, 4)
        assert rep.isomorphic
        assert rep.node_count == 4  # two excluded square roots
        # permutation: 2 fixed points and one 2-cycle
        assert rep.brute_code == "C1[()];C1[()];C2[(),()]"

    def test_degree_one_is_identity(self):
        for q in (5, 7, 11):
            for a in (1, 2, 3):
                rep = redei_check(q, 1, a)
                assert rep.isomorphic
                assert all(c.startswith("C1[()]")
                           for c in rep.brute_code.split(";"))

    def test_node_count_matches_character(self):
        rng = random.Random(21)
        for _ in range(25):
            q = rng.choice([5, 7, 11, 13, 17])
            a = rng.randrange(1, q)
            n = rng.randint(1, 8)
            rep = redei_check(q, n, a)
            chi = quadratic_character(field(q), a)
            assert rep.node_count == q - chi
            assert rep.isomorphic

    def test_prime_power_field(self):
        rep = redei_check(9, 2, 2)
        assert rep.isomorphic and rep.node_count in (8, 10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            redei_check(8, 2, 1)  # even q
        with pytest.raises(ValueError):
            redei_check(7, 2, 0)  # a = 0

    def test_report_shape(self):
        data = json.loads(redei_check(7, 2, 3).to_json())
        assert data["params"]["family"] == "redei"
        assert {"domain", "a", "n", "isomorphic", "predicted_code",
                "brute_code", "node_count", "summands"} <= set(data)


class TestChebyshev:
    def test_q7_n2_trees(self):
        rep = chebyshev_check(7, 2)
        assert rep.ok
        assert rep.tree_plus_code == elementary_tree((2,)).code
        assert rep.tree_minus_code == elementary_tree((2, 2, 2)).code
        assert rep.periodic_checked >= 1
        assert 2 in rep.skipped  # c = 2 is a fixed point, not predicted

    def test_q5_n2_trees(self):
        rep = chebyshev_check(5, 2)
        assert rep.ok
        assert rep.tree_plus_code == elementary_tree((2, 2)).code
        assert rep.tree_minus_code == elementary_tree((2,)).code

    def test_permutation_case_leaf_trees(self):
        # n coprime to q^2 - 1 and to p: both generic trees are leaves
        rep = chebyshev_check(7, 5)
        assert rep.ok
        assert rep.tree_plus_code == LEAF.code
        assert rep.tree_minus_code == LEAF.code

    def test_small_sweep(self):
        for q in (3, 5, 7, 11, 13):
            for n in range(2, 7):
                rep = chebyshev_check(q, n)
                assert rep.ok, (q, n, rep.mismatches)

    def test_rejects_even_q(self):
        with pytest.raises(ValueError):
            chebyshev_check(4, 2)


class TestLinearized:
    def test_frobenius_on_f8(self):
        rep = linearized_check(2, 3, [0, 1])
        assert rep.isomorphic
        codes = rep.predicted_code.split(";")
        assert codes.count("C1[()]") == 2
        assert codes.count("C3[(),(),()]") == 2

    def test_x_plus_one_on_f4(self):
        rep = linearized_check(2, 2, [1, 1])
        assert rep.isomorphic
        assert rep.predicted_code == cyc(1, elementary_tree((2, 2))).code

    def test_constant_one_is_identity(self):
        rep = linearized_check(2, 3, [1])
        assert rep.isomorphic
        assert rep.predicted_code == ";".join(["C1[()]"] * 8)

    def test_three_way_agreement_small_random(self):
        rng = random.Random(22)
        cases = 0
        while cases < 25:
            q = rng.choice([2, 3, 4, 5])
            n = rng.randint(1, 6)
            if q**n > 1024:
                continue
            F = field(*_pk(q))
            deg = rng.randint(0, n + 2)
            coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            rep = linearized_check(q, n, coeffs)
            assert rep.isomorphic, (q, n, coeffs)
            assert rep.predicted_code == rep.brute_field_code
            assert rep.predicted_code == rep.brute_quotient_code
            cases += 1

    def test_char_divides_n(self):
        # the regime where x^n - 1 is not squarefree
        for q, n in ((2, 4), (2, 6), (3, 3), (3, 6), (4, 2), (5, 5)):
            rep = linearized_check(q, n, [1, 1])
            assert rep.isomorphic, (q, n)

    def test_rejects_zero_f(self):
        with pytest.raises(ValueError):
            linearized_check(2, 2, [])

    def test_size_cap(self):
        from amap.graphs import GraphSizeError
        with pytest.raises(GraphSizeError):
            linearized_check(2, 11, [0, 1], max_nodes=1000)


def _pk(q):
    from amap.applications import _prime_power
    return _prime_power(q)


class TestECTrees:
    def test_example_trees(self):
        rep = ec_generic_trees(-1, QuadInt(3, -1), QuadInt(-3, 8), 1)
        assert rep.nu_minus == [2, 2]
        assert rep.tree_minus_code == elementary_tree((2, 2)).code
        assert rep.nu_plus == [10, 2, 2, 2]
        assert rep.tree_plus_nodes == 80

    def test_unit_a_gives_leaves(self):
        rep = ec_generic_trees(-1, QuadInt(0, 1), QuadInt(-3, 8), 1)
        assert rep.tree_plus_code == LEAF.code
        assert rep.tree_minus_code == LEAF.code

    def test_consistency_with_nu_series(self):
        from amap.quadorder import QuadOrder
        order = QuadOrder(-5)
        a, pi = QuadInt(1, 1), QuadInt(2, 1)
        rep = ec_generic_trees(-5, a, pi, 2)
        pin = order.pow_element(pi, 2)
        n0, _ = order.a_decomposition(a, order.principal(pin - QuadInt(1, 0)))
        want = () if n0 == order.unit_ideal else nu_series(order, a, n0)
        assert tuple(rep.nu_plus) == want

    def test_rejects_torsion_collapse(self):
        # pi^n = 1 makes the quotient infinite; must be rejected
        with pytest.raises(ValueError):
            ec_generic_trees(-1, QuadInt(2, 1), QuadInt(0, 1), 4)

    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            ec_generic_trees(-1, QuadInt(0, 0), QuadInt(1, 1), 1)
