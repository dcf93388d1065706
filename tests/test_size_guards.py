"""The application checkers refuse an oversized map or text before building it.

`graphs._check_size` is the one node guard and `graphs.render` the one text
guard; these tests pin down that the Redei and elliptic-curve checkers
reach them before any field table or code text exists, and that the CLI
turns their refusal into its one-line error.  The Redei tests patch the
successor table to raise, so a lost cap fails at once instead of scanning
the field.
"""

import pytest

from amap import applications
from amap.applications import ec_generic_trees, redei_check
from amap.finitefield import field, quadratic_character
from amap.graphs import GraphSizeError
from amap.quadorder import QuadInt
from references import assert_one_line_error


def _no_scan(*args):
    raise AssertionError("the field was enumerated")


def test_redei_refuses_before_scanning_the_field(monkeypatch):
    # the successor table is the first thing that reads the whole field
    monkeypatch.setattr(applications, "_redei_successors", _no_scan)
    with pytest.raises(GraphSizeError, match="exceeds the cap of 100"):
        redei_check(10007, 2, 3, max_nodes=100)


@pytest.mark.parametrize("a, chi", [(3, 1), (2, -1)])
def test_redei_cap_is_the_exact_node_count(monkeypatch, a, chi):
    q = 11
    assert quadratic_character(field(q), a) == chi
    report = redei_check(q, 2, a, max_nodes=q - chi)
    assert report.isomorphic
    assert report.node_count == q - chi
    monkeypatch.setattr(applications, "_redei_successors", _no_scan)
    with pytest.raises(GraphSizeError, match=f"{q - chi} nodes exceeds the cap of {q - chi - 1}"):
        redei_check(q, 2, a, max_nodes=q - chi - 1)


def test_ec_trees_refuse_an_oversized_code():
    # nu_plus is (2**62,): a star of 2**62 nodes, whose code is 2**63 bytes
    with pytest.raises(GraphSizeError, match="bytes exceeds the cap"):
        ec_generic_trees(-1, QuadInt(2**31, 0), QuadInt(2**31 + 1, 0), 1)


def test_cli_redei_over_the_cap_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(applications, "_redei_successors", _no_scan)
    captured = assert_one_line_error(capsys, ["redei", "--q", "1000000007", "--a", "3",
                                              "--n", "2"])
    assert "exceeds the cap" in captured.err


def test_cli_ec_trees_over_the_text_cap_exits_two(capsys):
    captured = assert_one_line_error(capsys, ["ectrees", "--d", "-1", "--a=2147483648,0",
                                              "--pi=2147483649,0", "--n", "1"])
    assert "exceeds the cap" in captured.err
