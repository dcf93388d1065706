"""The nu-series, predicted and brute-force graphs on worked instances, the
oracle law on every domain entry, and the report JSON.

The oracle law (`references.assert_prediction_is_the_brute_graph`) runs on
seeded instances of every entry here and on the sweep of acceptance
criterion 3; the worked example of Sec. 3 is criterion 1, the Gaussian
nu-series criterion 2, the tensor identities of extended trees criterion 4
and the corrupted control criterion 9 (`test_acceptance`).  The formula
law (`references.assert_prediction_matches_the_walk`) runs in
`test_orders`, and the refusals in `test_input_checks`.

`reference_as_dict` keeps the earlier `JsonReport.as_dict` over `asdict`
(with a graph field written as its code, or as the name of the first field
with an equal graph), as a test-only reference, the one referee of the
report dict.
"""

import json
import random
from dataclasses import asdict

import pytest

from amap.applications import chebyshev_check, ec_generic_trees, linearized_check, redei_check
from amap.dynamics import (brute_amap_graph, nu_series, predicted_graph, verify)
from amap.graphs import disjoint_sum
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import LEAF, Keyed, elementary_tree
from domains import ENTRIES
from references import assert_prediction_is_the_brute_graph, cyc, extended_tree

Z = IntegerDomain()
Z5 = QuadOrder(-5)


def sec3_instance():
    """The worked instance in Z[sqrt(-5)]: a = 1 + w, n = <6>."""
    return Z5, QuadInt(1, 1), Z5.principal(QuadInt(6, 0))


def reference_as_dict(report):
    out = {"family": report.family} if report.family is not None else {}
    written = []  # (graph, field name) of every code written so far
    for k, v in asdict(report).items():
        if isinstance(v, Keyed):  # a graph field is written as its code once
            same = [name for graph, name in written if graph == v]
            if same:
                out[f"{k}_same_as"] = same[0]
            else:
                out[f"{k}_code"] = v.code
                written.append((v, k))
        elif v is not None:
            out[k] = v
    return out


class TestNuSeries:
    def test_integer_example(self):
        assert nu_series(Z, 2, 8) == (2, 2, 2)

    def test_quad_example_norm_six(self):
        order, a, _ = sec3_instance()
        p1 = order.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
        p2 = order.ideal_from_generators([QuadInt(3, 0), QuadInt(1, 1)])
        n0 = order.ideal_mul(order.ideal_mul(p1, p1), p2)
        assert nu_series(order, a, n0) == (6, 2)

    def test_prime_power_closed_form(self):
        # for n0 = p^alpha and beta = v_p(a) the series is
        # (p^beta, ..., p^beta, p^e) with alpha = d*beta + e
        rng = random.Random(12)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            beta = rng.randint(1, 3)
            alpha = rng.randint(1, 6)
            coprime = rng.choice([1, p + 1, 2 * p + 1])
            a = p**beta * coprime
            d, e = divmod(alpha, beta)
            want = tuple([p**beta] * d + ([p**e] if e else []))
            assert nu_series(Z, a, p**alpha) == want

    def test_coprime_product_rule(self):
        # componentwise product after padding with ones
        rng = random.Random(13)
        for _ in range(40):
            a = rng.choice([2, 6, 12, 30])
            q1 = 2 ** rng.randint(1, 4)
            q2 = 3 ** rng.randint(1, 4) if a % 3 == 0 else 1
            if q2 == 1:
                continue
            s1, s2 = nu_series(Z, a, q1), nu_series(Z, a, q2)
            both = nu_series(Z, a, q1 * q2)
            d = max(len(s1), len(s2))
            s1 += (1,) * (d - len(s1))
            s2 += (1,) * (d - len(s2))
            assert both == tuple(x * y for x, y in zip(s1, s2))

    def test_coprime_product_rule_quad(self):
        order, a, _ = sec3_instance()
        p1 = order.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
        p2 = order.ideal_from_generators([QuadInt(3, 0), QuadInt(1, 1)])
        q1 = order.ideal_mul(p1, p1)
        q2 = p2
        s1 = nu_series(order, a, q1)
        s2 = nu_series(order, a, q2)
        both = nu_series(order, a, order.ideal_mul(q1, q2))
        d = max(len(s1), len(s2))
        s1 += (1,) * (d - len(s1))
        s2 += (1,) * (d - len(s2))
        assert both == tuple(x * y for x, y in zip(s1, s2))


class TestPredictedGraph:
    def test_identity_map(self):
        pred = predicted_graph(Z, 1, 5)
        assert pred.graph == disjoint_sum([cyc(1)] * 5)

    def test_doubling_mod_24(self):
        t = elementary_tree((2, 2, 2))
        pred = predicted_graph(Z, 2, 24)
        assert pred.graph == disjoint_sum([cyc(1, t), cyc(2, t)])

    def test_invertible_case_cycles_only(self):
        # gcd(a, n) = 1: tree is a leaf and phi-counts fill the ring
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(2, 100)
            a = rng.randint(1, 40)
            from math import gcd
            if gcd(a, n) != 1:
                continue
            pred = predicted_graph(Z, a, n)
            assert pred.tree == LEAF
            assert all(t == LEAF for c in pred.graph.components for t in c.hanging)

    def test_primary_nilpotent_case_single_tree(self):
        # n = p^alpha with p | a: the graph is one extended tree
        rng = random.Random(15)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            alpha = rng.randint(1, 5)
            a = p * rng.randint(1, 10)
            pred = predicted_graph(Z, a, p**alpha)
            assert pred.graph == extended_tree(
                elementary_tree(nu_series(Z, a, p**alpha)))


class TestBruteGraph:
    def test_doubling_mod_24(self):
        g = brute_amap_graph(Z, 2, 24)
        assert g.node_count == 24
        assert len(g.components) == 2

    def test_zero_multiplier_is_star(self):
        g = brute_amap_graph(Z, 0, 7)
        assert g == cyc(1, elementary_tree((7,)))
        g = brute_amap_graph(Z5, QuadInt(0, 0), Z5.principal(QuadInt(2, 0)))
        assert g == cyc(1, elementary_tree((4,)))


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)
def test_prediction_is_the_brute_force_graph(entry):
    # the seeded sample, and the least prime element a (x in F_q[x], else 2)
    # with n = <a>^2, whose nu-series has two steps on every entry
    dom = entry.dom
    count, seed = (12, 19) if isinstance(dom, QuadOrder) else (20, 18)
    least = Poly.x(dom.field) if isinstance(dom, PolyDomain) else dom.one_element + dom.one_element
    squared = dom.ideal_pow(dom.principal(least), 2)
    for a, n in entry.sample(count, seed, cap=300) + [(least, squared)]:
        assert_prediction_is_the_brute_graph(dom, a, n)


# ---- JsonReport: the same JSON without a deep copy ----

def _reports():
    yield verify(Z, 2, 24)
    yield verify(Z, 2, 24, corrupt_cycle=True)
    yield verify(*sec3_instance())
    yield redei_check(7, 2, 3)
    yield chebyshev_check(7, 3)
    yield linearized_check(2, 4, [1, 1])
    yield ec_generic_trees(-1, QuadInt(3, -1), QuadInt(-3, 8), 1)


def test_report_json_is_unchanged_and_the_dict_is_shallow():
    graph_fields = 0
    for report in _reports():
        ref = reference_as_dict(report)
        got = report.as_dict()
        assert list(got) == list(ref)
        assert json.dumps(got) == json.dumps(ref)
        assert report.to_json(indent=2) == json.dumps(ref, indent=2)
        for key, value in got.items():
            graph = getattr(report, key.removesuffix("_code"), None)
            same = getattr(report, key.removesuffix("_same_as"), None)
            if key.endswith("_code") and isinstance(graph, Keyed):
                assert value == graph.code
                graph_fields += 1
            elif key.endswith("_same_as") and isinstance(same, Keyed):
                assert same == getattr(report, value)
            elif key != "family":
                assert value is getattr(report, key)
    # one code for each passing check, two for the corrupt verify
    assert graph_fields == 1 + 2 + 1 + 1 + 1 + 1
