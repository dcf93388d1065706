"""The family checks on small worked fields, with expected graphs built by
`references.cyc`; the sweeps over many fields and degrees are acceptance
criteria 6 (Redei, with the node count q - chi), 7 (Chebyshev) and 8
(linearized, three-way).  The prediction `linearized_check` makes on
F_q[x]/(x^n - 1) is refereed by `references.walk_prediction`, through
`assert_prediction_matches_the_walk`, as every prediction is.
"""

import json
import random

import pytest

from amap import applications
from amap.applications import (chebyshev_check, ec_generic_trees,
                               linearized_check, redei_check)
from amap.base import factor_int
from amap.cli import main
from amap.dynamics import nu_series
from amap.finitefield import field
from amap.graphs import Component, FunctionalGraph, disjoint_sum
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt
from amap.trees import LEAF, RootedTree, elementary_tree
from references import assert_prediction_matches_the_walk, cyc


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
    with pytest.raises(ValueError, match="^5 is not a field element code in \\[0, 3\\)$"):
        linearized_check(3, 2, [5])


class TestRedei:
    def test_q7_nonresidue_single_tree(self):
        rep = redei_check(7, 2, 3)
        assert rep.isomorphic
        assert rep.node_count == 8  # chi(3) = -1 over F_7
        assert rep.predicted == cyc(1, elementary_tree((2, 2, 2)))

    def test_q5_residue_permutation(self):
        rep = redei_check(5, 3, 4)
        assert rep.isomorphic
        assert rep.node_count == 4  # two excluded square roots
        # permutation: 2 fixed points and one 2-cycle
        assert rep.brute == disjoint_sum([cyc(1), cyc(1), cyc(2)])

    def test_degree_one_is_identity(self):
        for q in (5, 7, 11):
            for a in (1, 2, 3):
                rep = redei_check(q, 1, a)
                assert rep.isomorphic
                assert rep.brute == disjoint_sum([cyc(1)] * rep.node_count)

    def test_prime_power_field(self):
        rep = redei_check(9, 2, 2)
        assert rep.isomorphic and rep.node_count in (8, 10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            redei_check(8, 2, 1)  # even q
        with pytest.raises(ValueError):
            redei_check(7, 2, 0)  # a = 0
        with pytest.raises(ValueError, match="^9 is not a field element code in \\[0, 9\\)$"):
            redei_check(9, 2, 9)
        # a prime field reads a as an integer mod p
        assert redei_check(7, 2, -3).isomorphic

    def test_report_shape(self):
        data = json.loads(redei_check(7, 2, 3).to_json())
        assert data["params"]["family"] == "redei"
        # a passing check writes its one code once
        assert {"domain", "a", "n", "isomorphic", "predicted_code",
                "brute_same_as", "node_count", "summands"} <= set(data)
        assert "brute_code" not in data and data["brute_same_as"] == "predicted"


class TestChebyshev:
    def test_q7_n2_trees(self):
        rep = chebyshev_check(7, 2)
        assert rep.ok and rep.predicted == rep.brute
        # -1 is a generic fixed point and carries T(2), the unfolded tree of
        # the torus Z/6; 2 carries the folds of Z/6 and Z/8 glued at 0
        generic = cyc(1, elementary_tree((2,)))
        assert rep.brute == disjoint_sum([cyc(1, RootedTree([elementary_tree((2, 2))])), generic])
        assert rep.periodic_checked == 2 and rep.skipped == []

    def test_q5_n2_trees(self):
        rep = chebyshev_check(5, 2)
        assert rep.ok and rep.predicted == rep.brute
        generic = cyc(1, elementary_tree((2,)))
        assert rep.brute == disjoint_sum([cyc(1, RootedTree([elementary_tree((2,))])), generic])

    def test_glued_minus_two_is_a_leaf(self):
        # T_4 on F_3: -2 = 1 is the glued 2-torsion child of 2 and has no children
        rep = chebyshev_check(3, 4)
        assert rep.ok
        assert rep.brute == rep.predicted == cyc(1, RootedTree([LEAF, LEAF]))

    def test_degree_one_is_the_identity(self):
        for q in (3, 7, 25):
            rep = chebyshev_check(q, 1)
            assert rep.ok and rep.brute == FunctionalGraph([(Component(1, (LEAF,)), q)])
            assert rep.periodic_checked == q

    def test_permutation_case_leaf_trees(self):
        # n coprime to q^2 - 1 and to p: T_n permutes F_q, every tree a leaf
        for q, n, pairs in ((7, 5, 1), (11, 7, 3)):
            rep = chebyshev_check(q, n)
            assert rep.ok and rep.brute == disjoint_sum([cyc(1)] * 5 + [cyc(2)] * pairs)
            assert all(comp.root == (LEAF,) for comp, _ in rep.predicted.counted)
            assert rep.periodic_checked == q

    def test_planted_corrupt_summand_fails(self, monkeypatch, capsys):
        # the first row of the Z/(q-1) fold gets a cycle one node longer, as
        # dynamics._corrupt does to a prediction
        real = applications._folded_torus

        def corrupt(n, m):
            nu, rows, fixed = real(n, m)
            if m == 12:
                (comp, count), *rest = rows
                rows = [(Component(comp.cycle_len + 1, comp.root), 1), (comp, count - 1), *rest]
            return nu, rows, fixed

        assert chebyshev_check(13, 2).ok
        monkeypatch.setattr(applications, "_folded_torus", corrupt)
        rep = chebyshev_check(13, 2)
        assert not rep.ok and rep.predicted != rep.brute
        assert main(["chebyshev", "--q", "13", "--n", "2"]) == 1
        assert not json.loads(capsys.readouterr().out)["ok"]

    def test_report_shape(self):
        data = json.loads(chebyshev_check(7, 2).to_json())
        assert list(data) == ["family", "q", "n", "ok", "predicted_code", "brute_same_as",
                              "node_count", "periodic_checked", "skipped"]
        assert data["brute_same_as"] == "predicted"

    def test_rejects_even_q(self):
        with pytest.raises(ValueError):
            chebyshev_check(4, 2)


class TestLinearized:
    def test_frobenius_on_f8(self):
        rep = linearized_check(2, 3, [0, 1])
        assert rep.isomorphic
        assert rep.predicted == disjoint_sum([cyc(1)] * 2 + [cyc(3)] * 2)

    def test_x_plus_one_on_f4(self):
        rep = linearized_check(2, 2, [1, 1])
        assert rep.isomorphic
        assert rep.predicted == cyc(1, elementary_tree((2, 2)))

    def test_constant_one_is_identity(self):
        rep = linearized_check(2, 3, [1])
        assert rep.isomorphic
        assert rep.predicted == disjoint_sum([cyc(1)] * 8)

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


# ---- the linearized prediction against the divisor walk ----

# 36 cases a field; the n range is trimmed on F_9 and F_25, where x^n - 1
# factors into primes of large norm, so each field takes under a second
@pytest.mark.parametrize("q, max_n", [(2, 12), (3, 12), (4, 12), (5, 12), (7, 12),
                                      (8, 12), (9, 8), (25, 6)])
def test_linearized_prediction_matches_the_walk(q, max_n):
    # the prediction `linearized_check` makes on F_q[x]/(x^n - 1)
    rng = random.Random(q)
    F = field(*factor_int(q)[0])
    D = PolyDomain(F)
    for _ in range(36):
        n = rng.randint(1, max_n)
        deg = rng.randint(0, n + 2)
        f = Poly(F, [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])
        assert_prediction_matches_the_walk(D, f, Poly.x_pow_minus_one(F, n))


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
