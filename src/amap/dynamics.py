"""Dynamics of multiplication maps x -> a*x on finite quotient rings.

Given a domain, a nonzero element a and a nonzero ideal n, the functional
graph of the multiplication map on D/n is predicted from the structure
theorem: split n = n0*n1 by the a-decomposition, attach the elementary tree
of the nu-series of n0 to every cycle node, and convolve the cycle types of
the prime powers of n1.  `predicted_graph` is the one routine that does this,
in every domain; the Redei and linearized checks predict through it.  The
brute-force construction builds the whole successor table of the map and is
the independent oracle the prediction is verified against.  The map is
additive, so the table comes from the images of the additive generators of
D/n (`Domain.successors`) by linearity, and it is decomposed with interned
trees, all labelled up front (`graphs.decompose_successors`), then one
cycle at a time; `graphs.brute_graph` counts equal cycles into classes, so
the oracle's graph holds one component per class, as a prediction does.
The oracle uses only additivity and `mul_mod`, never the structure
theorem, so it stays independent of the prediction.  A `Report` keeps both
graphs; their codes are rendered only in its JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .base import Domain, cycle_type
from .graphs import DEFAULT_MAX_NODES, Component, FunctionalGraph, _check_size, brute_graph
from .trees import Keyed, RootedTree, elementary_tree

__all__ = ["nu_series", "predicted_graph", "brute_amap_graph", "verify",
           "Prediction", "JsonReport", "Report"]


def nu_series(dom: Domain, a, n0) -> tuple[int, ...]:
    """Norm sequence of the gcd chain of n0 against <a>.

    Requires every prime of n0 to divide <a>; the unit ideal gives the
    empty sequence.  The result is non-increasing and its product is the
    norm of n0.
    """
    norms, rest = dom.gcd_chain(a, n0)
    if rest != dom.unit_ideal:
        raise ValueError("some prime of the ideal does not divide the element")
    return norms


@dataclass(frozen=True)
class Prediction:
    """Predicted graph together with its cycle summands and hanging tree."""

    graph: FunctionalGraph
    tree: RootedTree
    summands: tuple[dict, ...]  # {"divisor", "cycle_len", "multiplicity"}


def predicted_graph(dom: Domain, a, n) -> Prediction:
    """Structure-theorem graph of x -> a*x on D/n, from one gcd chain on n.

    The chain's norms are the nu-series of n0 and it stops at n1, so n0
    carries exactly the primes dividing <a> and n1 none of them: the
    elementary tree of the nu-series hangs on every cycle node.  Each p^k
    dividing n1 gives phi(p^k)/ord(a) cycles of length ord(a) mod p^k, and
    `cycle_type` convolves these rows into one component per cycle length,
    no code text rendered.  The summands are those rows and the unit ideal's.
    """
    nu, n1 = dom.gcd_chain(a, n)
    tree = elementary_tree(nu)
    local = dom.local_rows(a, n1)
    rows = sorted([(dom.unit_ideal, 1, 1), *(row for prime in local for row in prime)],
                  key=lambda row: dom._ideal_key(row[0]))
    if any(phi % r for _, phi, r in rows):
        raise RuntimeError("Euler phi not divisible by the order")
    summands = tuple({"divisor": dom.describe_ideal(m), "cycle_len": r,
                      "multiplicity": phi // r} for m, phi, r in rows)
    cycles = cycle_type([(r, None, phi // r) for _, phi, r in prime] for prime in local)
    graph = FunctionalGraph((Component(r, (tree,)), c) for (r, _), c in cycles.items())
    if graph.node_count != math.prod(nu) * dom.norm(n1):
        raise RuntimeError("predicted node count mismatch")
    return Prediction(graph=graph, tree=tree, summands=summands)


def brute_amap_graph(dom: Domain, a, n,
                     max_nodes: int = DEFAULT_MAX_NODES) -> FunctionalGraph:
    """Functional graph of x -> a*x on D/n by full enumeration of its
    successor table, which `dom.successors` builds by linearity."""
    size = dom.norm(n)
    _check_size(size, max_nodes)
    return brute_graph(size, dom.successors(a, n), max_nodes=max_nodes)


class JsonReport:
    """JSON form of a report dataclass.

    The dict starts with the class's ``family`` tag when it has one, then
    lists the fields in declaration order, leaving out fields set to None.
    A graph or tree field ``x`` is written as ``x_code``, its canonical
    code, unless an earlier field ``y`` holds an equal value: then it is
    written as ``"x_same_as": "y"``, so a passing check writes its code once.
    Codes are rendered here and nowhere else in a report, save that
    `ECTreesReport` stores its tree codes, which the benchmark reads.
    """

    family: ClassVar[str | None] = None

    def as_dict(self) -> dict:
        out = {"family": self.family} if self.family is not None else {}
        first: dict[Keyed, str] = {}  # value -> the first field that holds it
        for f in fields(self):
            if isinstance(v := getattr(self, f.name), Keyed):
                if (name := first.setdefault(v, f.name)) == f.name:
                    out[f"{f.name}_code"] = v.code
                else:
                    out[f"{f.name}_same_as"] = name
            elif v is not None:
                out[f.name] = v
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)


@dataclass
class Report(JsonReport):
    """Outcome of checking a prediction against the brute-force graph."""

    domain: dict
    a: object
    n: object
    isomorphic: bool
    predicted: FunctionalGraph
    brute: FunctionalGraph
    node_count: int
    summands: list = field(default_factory=list)
    params: dict | None = None

    @classmethod
    def compare(cls, dom: Domain, a, n, predicted: FunctionalGraph, summands,
                brute: FunctionalGraph, params: dict | None = None) -> Report:
        """Report on a predicted graph of x -> a*x on D/n against the brute one.

        The verdict compares the graphs' keys, and the report keeps both
        graphs; their codes are rendered only by `as_dict`."""
        return cls(domain=dom.domain_json(), a=dom.describe_element(a),
                   n=dom.describe_ideal(n), isomorphic=predicted == brute,
                   predicted=predicted, brute=brute,
                   node_count=brute.node_count, summands=list(summands), params=params)


def _corrupt(prediction: FunctionalGraph) -> FunctionalGraph:
    """Perturb one copy of the first component in code order: its cycle is
    one node longer (negative control).  Every component of a prediction
    carries one tree all round, so the longer cycle does too."""
    (first, count), *rest = prediction.classes
    longer = Component(first.cycle_len + 1, first.root)
    return FunctionalGraph([(longer, 1), (first, count - 1), *rest])


def verify(dom: Domain, a, n, max_nodes: int = DEFAULT_MAX_NODES,
           corrupt_cycle: bool = False) -> Report:
    """Compare the predicted graph with the brute-force graph.

    The report keeps the enumerated graph as `report.brute`.
    `corrupt_cycle` deliberately damages the prediction before comparing;
    it exists so the failure path can be exercised end to end.
    """
    prediction = predicted_graph(dom, a, n)
    predicted = _corrupt(prediction.graph) if corrupt_cycle else prediction.graph
    brute = brute_amap_graph(dom, a, n, max_nodes=max_nodes)
    return Report.compare(dom, a, n, predicted, prediction.summands, brute)
