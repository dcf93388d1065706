"""Predictions at benchmark scale against stored brute-force digests.

`perfbench/predict_pool.json` holds instances of the `predict` benchmark
workload, N up to about 10^6, each with the SHA-256 of the code of its
brute-force graph.  The pool is read only and decoded by `domains`,
independently of the benchmark harness, so a prediction whose code drifts by
a byte fails in the test suite and not only in the benchmark's gate.
"""

import hashlib
import json
from pathlib import Path

import pytest

from amap.dynamics import predicted_graph
from domains import ENTRIES

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "predict_pool.json"


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
    entry = ENTRIES[spec]
    a, n = entry.decode(inst["a"], inst["n"])
    graph = predicted_graph(entry.dom, a, n).graph
    assert graph.node_count == inst["N"]
    assert hashlib.sha256(graph.code.encode()).hexdigest() == inst["sha256"]
