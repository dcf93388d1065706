"""Predictions at benchmark scale against stored brute-force digests.

`perfbench/predict_pool.json` holds instances of the `predict` benchmark
workload, N up to about 10^6, each with the SHA-256 of the code of its
brute-force graph.  The pool is read only and decoded here, independently
of the benchmark harness, so a prediction whose code drifts by a byte fails
in the test suite and not only in the benchmark's gate.
"""

import hashlib
import json
from pathlib import Path

import pytest

from amap.dynamics import predicted_graph
from amap.finitefield import field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "predict_pool.json"

DOMAINS = {"Z": IntegerDomain(), "poly:2": PolyDomain(field(2)),
           "poly:3": PolyDomain(field(3)), "quad:-1": QuadOrder(-1),
           "quad:-5": QuadOrder(-5)}


def _decode(spec, a, n):
    """Element and ideal from their JSON form: an int, coefficients from the
    constant term up, or a quadratic integer and an HNF basis."""
    dom = DOMAINS[spec]
    if spec == "Z":
        return dom, a, n
    if spec.startswith("poly"):
        return dom, Poly(dom.field, a), dom.principal(Poly(dom.field, n))
    (x, y), (_, z) = n
    return dom, QuadInt(*a), dom.ideal_from_generators([QuadInt(x, 0), QuadInt(y, z)])


def _pool_instances():
    with open(POOL) as fh:
        pool = json.load(fh)
    for group in ("slots", "tiny"):
        for slot in pool[group]:
            for i, inst in enumerate(slot["instances"]):
                if "sha256" in inst:
                    yield pytest.param(slot["domain"], inst, id=f"{group}-{slot['slot']}-{i}")


@pytest.mark.parametrize("spec, inst", list(_pool_instances()))
def test_prediction_code_matches_the_brute_force_digest(spec, inst):
    dom, a, n = _decode(spec, inst["a"], inst["n"])
    graph = predicted_graph(dom, a, n).graph
    assert graph.node_count == inst["N"]
    assert hashlib.sha256(graph.code.encode()).hexdigest() == inst["sha256"]
