"""The application checkers refuse an oversized map or text before building it.

`graphs._check_size` is the one node guard and `graphs.render` the one text
guard; these tests pin down that the Redei and elliptic-curve checkers
reach them before any field table or code text exists.
"""

import subprocess
import sys

import pytest

from amap import applications
from amap.applications import ec_generic_trees, redei_check
from amap.finitefield import field, quadratic_character
from amap.graphs import GraphSizeError
from amap.quadorder import QuadInt


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


def _run(*argv):
    return subprocess.run([sys.executable, "-m", "amap.cli", *argv],
                          capture_output=True, text=True, timeout=20)


def test_cli_redei_over_the_cap_exits_two():
    proc = _run("redei", "--q", "1000000007", "--a", "3", "--n", "2")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert proc.stdout == ""


def test_cli_ec_trees_over_the_text_cap_exits_two():
    proc = _run("ectrees", "--d", "-1", "--a=2147483648,0", "--pi=2147483649,0", "--n", "1")
    assert proc.returncode == 2
    assert "exceeds the cap" in proc.stderr
    assert proc.stderr.startswith("error:")
