"""Dynamics of multiplication maps x -> a*x on finite quotient rings.

Given a domain, a nonzero element a and a nonzero ideal n, the functional
graph of the multiplication map on D/n is predicted from the structure
theorem: split n = n0*n1 by the a-decomposition, attach the elementary tree
of the nu-series of n0 to every cycle node, and read the cycle lengths off
the divisors of n1.  The brute-force construction builds the whole
successor table of the map and is the independent oracle the prediction is
verified against.  The map is additive, so the table comes from the images
of the additive generators of D/n (`Domain.successors`) by linearity, and
it is decomposed with interned trees (`graphs.decompose_successors`), one
cycle at a time; `graphs.brute_graph` counts equal cycles into classes, so
the oracle's graph holds one component per class, as a prediction does.
The oracle uses only additivity and `mul_mod`, never the structure
theorem, so it stays independent of the prediction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .base import Domain
from .graphs import DEFAULT_MAX_NODES, Component, FunctionalGraph, _check_size, brute_graph
from .trees import RootedTree, elementary_tree

__all__ = ["nu_series", "assemble_prediction", "predicted_graph",
           "brute_amap_graph", "verify", "verify_with_brute", "Prediction",
           "JsonReport", "Report"]


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


def assemble_prediction(dom: Domain, a, nu, n1) -> Prediction:
    """Structure-theorem graph of x -> a*x on D/(n0*n1), given the nu-series
    nu of n0.

    n0 must carry exactly the primes dividing <a> and n1 none of them: the
    elementary tree of nu hangs on every cycle node, and each divisor m of
    n1 contributes phi(m)/ord_m(a) cycles of length ord_m(a).  Each divisor
    gives one component with its multiplicity, never one per cycle, and no
    code text is rendered.
    """
    tree = elementary_tree(nu)
    rows = []
    summands = []
    for m, phi, r in dom.divisor_table(a, n1):
        if phi % r:
            raise RuntimeError("Euler phi not divisible by the order")
        mult = phi // r
        summands.append({"divisor": dom.describe_ideal(m),
                         "cycle_len": r, "multiplicity": mult})
        rows.append((Component(r, (tree,)), mult))
    graph = FunctionalGraph(rows)
    if graph.node_count != math.prod(nu) * dom.norm(n1):
        raise RuntimeError("predicted node count mismatch")
    return Prediction(graph=graph, tree=tree, summands=tuple(summands))


def predicted_graph(dom: Domain, a, n) -> Prediction:
    """Structure-theorem graph of x -> a*x on D/n, from one gcd chain on n:
    its norms are the nu-series of n0 and it stops at n1."""
    if dom.is_zero(a):
        raise ValueError("the prediction requires a nonzero element")
    return assemble_prediction(dom, a, *dom.gcd_chain(a, n))


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
    """

    family: ClassVar[str | None] = None

    def as_dict(self) -> dict:
        out = {"family": self.family} if self.family is not None else {}
        out.update((f.name, v) for f in fields(self)
                   if (v := getattr(self, f.name)) is not None)
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
    predicted_code: str
    brute_code: str
    node_count: int
    summands: list = field(default_factory=list)
    params: dict | None = None

    @classmethod
    def compare(cls, dom: Domain, a, n, predicted: FunctionalGraph, summands,
                brute: FunctionalGraph, params: dict | None = None) -> Report:
        """Report on a predicted graph of x -> a*x on D/n against the brute one.

        The verdict compares the graphs' keys; the codes are rendered for
        the report."""
        return cls(domain=dom.domain_json(), a=dom.describe_element(a),
                   n=dom.describe_ideal(n), isomorphic=predicted == brute,
                   predicted_code=predicted.code, brute_code=brute.code,
                   node_count=brute.node_count, summands=list(summands), params=params)


def _corrupt(prediction: FunctionalGraph) -> FunctionalGraph:
    """Perturb one copy of the first component in code order: its cycle is
    one node longer (negative control).  Every component of a prediction
    carries one tree all round, so the longer cycle does too."""
    (first, count), *rest = prediction.classes
    longer = Component(first.cycle_len + 1, first.root)
    return FunctionalGraph([(longer, 1), (first, count - 1), *rest])


def verify_with_brute(dom: Domain, a, n, max_nodes: int = DEFAULT_MAX_NODES,
                      corrupt_cycle: bool = False) -> tuple[Report, FunctionalGraph]:
    """`verify`, also returning the brute-force graph it enumerated."""
    prediction = predicted_graph(dom, a, n)
    predicted = prediction.graph
    if corrupt_cycle:
        predicted = _corrupt(predicted)
    brute = brute_amap_graph(dom, a, n, max_nodes=max_nodes)
    report = Report.compare(dom, a, n, predicted, prediction.summands, brute)
    return report, brute


def verify(dom: Domain, a, n, max_nodes: int = DEFAULT_MAX_NODES,
           corrupt_cycle: bool = False) -> Report:
    """Compare the predicted graph with the brute-force graph.

    `corrupt_cycle` deliberately damages the prediction before comparing;
    it exists so the failure path can be exercised end to end.
    """
    return verify_with_brute(dom, a, n, max_nodes, corrupt_cycle)[0]
