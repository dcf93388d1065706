"""Input checks that no other test reaches, each with the exception type and
message it raises, or the value it returns."""

import re

import pytest

from amap.applications import chebyshev_check, ec_generic_trees, linearized_check, redei_check
from amap.base import ZeroIdealError
from amap.dynamics import brute_amap_graph, nu_series, predicted_graph
from amap.finitefield import GF, field, quadratic_character
from amap.graphs import GraphSizeError, brute_graph
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder

F3 = field(3)
ZERO = Poly(F3, [])
X, X1 = Poly(F3, [0, 1]), Poly(F3, [1, 1])

CASES = [
    ("redei n = 0", lambda: redei_check(7, 0, 3), ValueError("the degree n must be positive")),
    ("chebyshev n = 0", lambda: chebyshev_check(7, 0),
     ValueError("the degree n must be positive")),
    ("linearized n = 0", lambda: linearized_check(3, 0, [1]), ValueError("n must be positive")),
    ("ec trees n = 0", lambda: ec_generic_trees(-1, QuadInt(1, 1), QuadInt(2, 1), 0),
     ValueError("n must be positive")),
    ("linearized f over F_2 for q = 4", lambda: linearized_check(4, 2, Poly(field(2), [1, 1])),
     ValueError("f must have coefficients in F_q")),
    ("GF degree 0", lambda: GF(2, 0), ValueError("extension degree must be >= 1")),
    ("prime field modulus", lambda: GF(3, 1, (1, 1)), ValueError("prime fields take no modulus")),
    ("inverse of 0", lambda: field(3, 2).inv(0), ZeroDivisionError("zero has no inverse")),
    ("embedding of a non-subfield", lambda: field(2, 4).embedding(field(3, 2)),
     ValueError("F_9 is not a subfield of F_16")),
    ("quadratic character in characteristic 2", lambda: quadratic_character(field(2, 3), 1),
     ValueError("the quadratic character needs odd field order")),
    ("brute graph of negative size", lambda: brute_graph(-1, []),
     ValueError("size must be nonnegative")),
    ("integer ideal_div by a non-divisor", lambda: IntegerDomain().ideal_div(12, 5),
     ValueError("5 does not divide 12")),
    ("integer norm of a str", lambda: IntegerDomain().norm("3"),
     TypeError("ideal must be an int, got str")),
    ("integer norm of 0", lambda: IntegerDomain().norm(0),
     ZeroIdealError("the zero ideal is not allowed")),
    ("integer factor of 0", lambda: IntegerDomain().factor(0),
     ZeroIdealError("the zero ideal is not allowed")),
    ("a-decomposition by 0", lambda: IntegerDomain().a_decomposition(0, 10),
     ValueError("the element a must be nonzero")),
    ("nu-series of 0", lambda: nu_series(IntegerDomain(), 0, 4),
     ValueError("the element a must be nonzero")),
    ("prediction for 0", lambda: predicted_graph(IntegerDomain(), 0, 5),
     ValueError("the element a must be nonzero")),
    ("brute graph over the cap", lambda: brute_amap_graph(IntegerDomain(), 2, 100, max_nodes=50),
     GraphSizeError("100 nodes exceeds the cap of 50")),
    ("leading term of 0", lambda: ZERO.leading,
     ValueError("zero polynomial has no leading coefficient")),
    ("monic 0", lambda: ZERO.monic(), ZeroIdealError("cannot normalize the zero polynomial")),
    ("polynomial % 0", lambda: X1 % ZERO, ZeroDivisionError("polynomial division by zero")),
    ("sum over two fields", lambda: Poly(F3, [1]) + Poly(field(5), [1]),
     ValueError("mixed coefficient fields")),
    ("polynomial norm of 0", lambda: PolyDomain(F3).norm(ZERO),
     ZeroIdealError("the zero ideal has no norm")),
    ("principal ideal of 0", lambda: PolyDomain(F3).principal(ZERO),
     ZeroIdealError("the zero ideal is not allowed")),
    ("residues mod 0", lambda: PolyDomain(F3).residues(ZERO),
     ZeroIdealError("cannot enumerate modulo the zero ideal")),
    ("successors mod 0", lambda: PolyDomain(F3).successors(X1, ZERO),
     ZeroIdealError("cannot enumerate modulo the zero ideal")),
    ("polynomial ideal_div by a non-divisor", lambda: PolyDomain(F3).ideal_div(X1, X),
     ValueError("Poly(x) does not divide Poly(x + 1)")),
    ("quadratic principal ideal of 0", lambda: QuadOrder(-1).principal(QuadInt(0, 0)),
     ZeroIdealError("the zero ideal is not allowed")),
    ("quadratic character of 0", lambda: quadratic_character(field(7), 0), 0),
]


@pytest.mark.parametrize("call, expected", [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_input_check(call, expected):
    if not isinstance(expected, Exception):
        assert call() == expected
        return
    with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
        call()
