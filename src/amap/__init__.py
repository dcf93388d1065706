"""Functional graphs of multiplication maps on quotients of Dedekind domains.

The package predicts the graph of x -> a*x on D/n from the ideal structure
of n (a-decomposition, nu-series, elementary trees, cycle summands) and
verifies the prediction against brute-force enumeration.  Supported rings:
the integers, polynomial rings over finite fields, and maximal orders of
imaginary quadratic fields.  The package holds what the prediction and the
oracle use; graph algebra that only checks them, the tensor products among
it, is kept with the tests.
"""

from .applications import (ChebyshevReport, ECTreesReport, LinearizedReport,
                           chebyshev_check, ec_generic_trees, linearized_check,
                           redei_check)
from .base import Domain, NotCoprimeError, ZeroIdealError
from .dynamics import (Prediction, Report, brute_amap_graph, nu_series,
                       predicted_graph, verify)
from .finitefield import GF, field, quadratic_character
from .graphs import (Component, FunctionalGraph, GraphSizeError, brute_graph, compact,
                     disjoint_sum, render, to_dot)
from .integers import IntegerDomain
from .polynomials import Poly, PolyDomain, factor_poly, irreducibles, is_irreducible
from .quadorder import QuadIdeal, QuadInt, QuadOrder, SplitType
from .trees import LEAF, RootedTree, elementary_tree, folded_tree

__version__ = "0.1.0"

__all__ = [
    "ChebyshevReport", "Component", "Domain", "ECTreesReport",
    "FunctionalGraph", "GF", "GraphSizeError", "IntegerDomain", "LEAF",
    "LinearizedReport", "NotCoprimeError", "Poly", "PolyDomain", "Prediction",
    "QuadIdeal", "QuadInt", "QuadOrder", "Report", "RootedTree", "SplitType",
    "ZeroIdealError", "brute_amap_graph", "brute_graph", "chebyshev_check",
    "compact", "disjoint_sum", "ec_generic_trees", "elementary_tree",
    "factor_poly", "field", "folded_tree", "irreducibles", "is_irreducible",
    "linearized_check", "nu_series", "predicted_graph",
    "quadratic_character", "redei_check", "render", "to_dot", "verify",
]
