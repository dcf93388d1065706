import json
import subprocess
import sys
from pathlib import Path

from amap import cli, dynamics
from amap.cli import main
from amap.finitefield import field
from amap.polynomials import Poly
from references import assert_one_line_error, rabin_is_irreducible


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_sec3_example(capsys):
    code, out = run_cli(capsys, "verify", "--domain", "quad:-5",
                        "--a", "1,1", "--n-gens", "6,0")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["node_count"] == 36
    assert data["domain"] == {"kind": "quad", "d": -5}


def test_verify_poly_domain(capsys):
    code, out = run_cli(capsys, "verify", "--domain", "poly:2",
                        "--a", "0,1", "--n", "1,0,0,1")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["node_count"] == 8


def test_parse_error_exits_two(capsys):
    for argv in (["verify", "--domain", "Z", "--a", "xx", "--n", "24"],
                 ["verify", "--domain", "nope:1", "--a", "1", "--n", "2"],
                 ["verify", "--domain", "Z", "--a", "1", "--n", "0"],
                 # coefficients outside [0, q) are not field element codes
                 ["predict", "--domain", "poly:2:2", "--a", "7", "--n", "1,1"],
                 ["predict", "--domain", "poly:2:2", "--a", "1", "--n", "5,1"],
                 ["predict", "--domain", "poly:3", "--a", "7", "--n", "1,1"],
                 ["verify", "--domain", "poly:3", "--a", "-1", "--n", "1,1"],
                 ["linpoly", "--q", "4", "--n", "2", "--f", "7"],
                 ["predict", "--domain", "poly:2:2", "--modulus", "3,3,1",
                  "--a", "1", "--n", "1,1"],
                 ["predict", "--domain", "Z", "--a", "2", "--n", "5", "--n-gens", "7"],
                 ["predict", "--domain", "Z", "--a", "2", "--n", "5", "--modulus", "1,1,1"],
                 ["predict", "--domain", "quad:-1", "--a", "1,1", "--n", "5,0",
                  "--n-gens", "2,0"]):
        assert_one_line_error(capsys, argv)


def test_predict_refuses_a_zero_element(capsys):
    captured = assert_one_line_error(
        capsys, ["predict", "--domain", "Z", "--a", "0", "--n", "12"])
    assert captured.err == "error: the element a must be nonzero\n"


def test_checkers_reject_q_below_two(capsys):
    for q in ("-7", "-2", "0", "1"):
        for argv in (["redei", "--q", q, "--a", "3", "--n", "2"],
                     ["chebyshev", "--q", q, "--n", "2"],
                     ["linpoly", "--q", q, "--n", "2", "--f", "1,1"]):
            captured = assert_one_line_error(capsys, argv)
            assert "is not a prime power" in captured.err, argv


def test_unwritable_dot_path_exits_two(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "graph.dot"):
        for cmd in ("predict", "verify"):
            assert_one_line_error(capsys, [cmd, "--domain", "Z", "--a", "2", "--n", "24",
                                           "--dot", str(target)])


def test_ectrees_parses_quadratic_elements(capsys):
    for argv in (["ectrees", "--d", "-1", "--a=1,2,3", "--pi=1,1"],
                 ["ectrees", "--d", "-1", "--a=1,1", "--pi=1"]):
        captured = assert_one_line_error(capsys, argv)
        assert "'x,y'" in captured.err, argv


def test_integer_lists_refuse_empty_entries(capsys):
    # dropping an empty entry would shift every later coefficient down a degree
    for bad in ("1,,1", "1, ,1", "1,0,", ",1"):
        for argv in (["linpoly", "--q", "2", "--n", "3", "--f", bad],
                     ["predict", "--domain", "poly:2", "--a", bad, "--n", "1,0,0,1"],
                     ["predict", "--domain", "quad:-5", "--a", bad, "--n-gens", "6,0"],
                     ["predict", "--domain", "poly:2:2", "--modulus", bad,
                      "--a", "1", "--n", "1,1"],
                     ["tree", bad]):
            captured = assert_one_line_error(capsys, argv)
            assert captured.err.startswith("error: bad integer list "), argv
    code, out = run_cli(capsys, "tree", "")
    assert code == 0
    assert json.loads(out) == {"series": [], "code": "()", "node_count": 1}


def test_max_nodes_only_on_enumerating_commands(capsys):
    code = main(["predict", "--domain", "Z", "--a", "2", "--n", "24",
                 "--max-nodes", "0"])
    assert code == 2
    assert "--max-nodes" in capsys.readouterr().err
    assert_one_line_error(capsys, ["brute", "--domain", "Z", "--a", "2",
                                   "--n", "24", "--max-nodes", "10"])
    assert_one_line_error(capsys, ["verify", "--domain", "Z", "--a", "2",
                                   "--n", "24", "--max-nodes", "10"])


def test_predict_and_brute_agree(capsys):
    code, out = run_cli(capsys, "predict", "--domain", "Z", "--a", "2", "--n", "24")
    assert code == 0
    predicted = json.loads(out)
    code, out = run_cli(capsys, "brute", "--domain", "Z", "--a", "2", "--n", "24")
    assert code == 0
    brute = json.loads(out)
    assert predicted["code"] == brute["code"]
    assert predicted["node_count"] == brute["node_count"] == 24


def test_predict_at_scale(capsys):
    # n1 a 61-bit prime, the same times a 30-bit prime (split by rho), and
    # an F_2[x] modulus of degree 127, whose phi 2^127 - 1 is prime
    m61, p = 2**61 - 1, 10**9 + 7
    trinomial = [1, 1] + [0] * 125 + [1]
    assert rabin_is_irreducible(Poly(field(2), trinomial))
    cases = [(["--domain", "Z", "--a", "2", "--n", str(m61)], m61,
              [[1, 1], [61, (m61 - 1) // 61]]),
             (["--domain", "Z", "--a", "2", "--n", str(m61 * p)], m61 * p,
              [[1, 1], [61, (m61 - 1) // 61], [(p - 1) // 2, 2],
               [61 * (p - 1) // 2, 2 * (m61 - 1) // 61]]),
             (["--domain", "poly:2", "--a", "0,1", "--n", ",".join(map(str, trinomial))],
              2**127, [[1, 1], [2**127 - 1, 1]])]
    for argv, nodes, cycles in cases:
        code, out = run_cli(capsys, "predict", *argv)
        assert code == 0, argv
        data = json.loads(out)
        assert data["node_count"] == nodes
        assert sorted([length, count] for length, _, count in data["graph"]["classes"]) == cycles


def test_dot_export(tmp_path, capsys):
    dot_file = tmp_path / "graph.dot"
    code, _ = run_cli(capsys, "brute", "--domain", "Z", "--a", "2", "--n", "24",
                      "--dot", str(dot_file))
    assert code == 0
    text = dot_file.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph") and lines[-1] == "}"
    node_lines = [ln for ln in lines if ln.endswith(";") and "->" not in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    assert len(node_lines) == 24
    assert len(edge_lines) == 24


def test_quad_ideal_as_json(capsys):
    spec = json.dumps({"d": -5, "gens": [[6, 0]]})
    code, out = run_cli(capsys, "verify", "--domain", "quad:-5",
                        "--a", "1,1", "--n-gens", spec)
    assert code == 0
    assert json.loads(out)["node_count"] == 36
    # mismatched d is a parse failure
    bad = json.dumps({"d": -1, "gens": [[6, 0]]})
    assert_one_line_error(capsys, ["verify", "--domain", "quad:-5", "--a", "1,1",
                                   "--n-gens", bad])


def test_quad_ideal_json_with_non_int_entries_exits_two(capsys):
    for spec in ('{"d":-1,"gens":[[1.5,2]]}', '{"d":-1,"gens":[[true,3]]}',
                 '{"d":-1,"gens":[["7","2"]]}', '{"d":-1.0,"gens":[[1,2]]}',
                 '{"d":-1,"gens":[[1,2,3]]}', '{"d":-1,"gens":{"a":1}}'):
        captured = assert_one_line_error(capsys, ["predict", "--domain", "quad:-1",
                                                  "--a", "1,1", "--n-gens", spec])
        assert "ideal JSON" in captured.err, spec


def test_domain_spec_with_non_integer_part_names_the_spec(capsys):
    for spec in ("poly:x", "poly:2:x", "poly:2:", "quad:-1.5", "Z:", "Z:1"):
        captured = assert_one_line_error(capsys, ["predict", "--domain", spec,
                                                  "--a", "1", "--n", "1,1"])
        assert f"bad domain {spec!r}" in captured.err, spec


def test_strong_pseudoprime_psi_13_is_no_prime(capsys):
    # psi_13 passes Miller-Rabin to all 13 bases 2..41; the strong Lucas test
    # behind them refuses it as a field order and lets rho split it in Z
    small, large = 1287836182261, 2575672364521
    psi_13 = small * large
    captured = assert_one_line_error(capsys, ["predict", "--domain", f"poly:{psi_13}",
                                              "--a", "1", "--n", "1,1"])
    assert captured.err == f"error: {psi_13} is not prime\n"
    code, out = run_cli(capsys, "predict", "--domain", "Z", "--a", "43", "--n", str(psi_13))
    assert code == 0
    assert {small, large} <= {row["divisor"] for row in json.loads(out)["summands"]}


def test_poly_extension_field_domain(capsys):
    code, out = run_cli(capsys, "verify", "--domain", "poly:2:2",
                        "--a", "2,1", "--n", "1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["domain"]["modulus"] == [1, 1, 1]


def test_reports_reparse_as_json(capsys):
    for argv in (["verify", "--domain", "Z", "--a", "3", "--n", "40"],
                 ["predict", "--domain", "quad:-1", "--a", "1,1", "--n-gens", "4,0"],
                 ["redei", "--q", "5", "--a", "2", "--n", "3"],
                 ["linpoly", "--q", "3", "--n", "2", "--f", "1,1"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out)  # must re-parse


def test_reports_write_each_distinct_code_once(capsys):
    # a passing check writes its one code once; the corrupt control, whose
    # graphs differ, writes both
    graph_fields = {"predicted", "brute", "brute_field", "brute_quotient"}
    passing = (["verify", "--domain", "Z", "--a", "2", "--n", "24"],
               ["verify", "--domain", "quad:-5", "--a", "1,1", "--n-gens", "6,0"],
               ["redei", "--q", "13", "--a", "3", "--n", "3"],
               ["chebyshev", "--q", "11", "--n", "3"],
               ["linpoly", "--q", "3", "--n", "3", "--f", "2,0,1"])
    for argv in passing:
        code, out = run_cli(capsys, *argv)
        data = json.loads(out)
        assert code == 0
        codes = [key for key in data if key.endswith("_code")]
        same = {key.removesuffix("_same_as"): name for key, name in data.items()
                if key.endswith("_same_as")}
        assert codes == ["predicted_code"], argv
        assert same and {"predicted", *same} <= graph_fields, argv
        assert set(same.values()) == {"predicted"}, argv
        assert out.count(data["predicted_code"]) == 1, argv
    code, out = run_cli(capsys, "verify", "--domain", "Z", "--a", "2", "--n", "24",
                        "--corrupt-cycle")
    data = json.loads(out)
    assert code == 1 and not data["isomorphic"]
    assert [key for key in data if key.endswith(("_code", "_same_as"))] == \
        ["predicted_code", "brute_code"]
    assert data["predicted_code"] != data["brute_code"]


def test_console_entry_point_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "amap.cli", "verify", "--domain", "Z",
         "--a", "2", "--n", "24"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["isomorphic"] is True


def test_unknown_subcommand_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "amap.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_cli_json_is_byte_identical(capsys):
    """CLI stdout and exit codes match the recorded golden outputs exactly."""
    golden = Path(__file__).parent / "data" / "cli_golden.json"
    for case in json.loads(golden.read_text()):
        code, out = run_cli(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_verify_dot_enumerates_once(tmp_path, monkeypatch, capsys):
    """`verify --dot` writes the graph it verified against: one enumeration,
    and the same DOT bytes as recorded when the CLI enumerated twice."""
    calls = []
    real = dynamics.brute_amap_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "brute_amap_graph", counting)
    monkeypatch.setattr(cli, "brute_amap_graph", counting)
    golden = Path(__file__).parent / "data" / "verify_dot_golden.json"
    for case in json.loads(golden.read_text()):
        calls.clear()
        dot_file = tmp_path / "graph.dot"
        code, out = run_cli(capsys, *case["argv"], "--dot", str(dot_file))
        assert code == 0 and json.loads(out)["isomorphic"] is True
        assert len(calls) == 1, case["argv"]
        assert dot_file.read_text() == case["dot"], case["argv"]


def test_internal_error_exits_three(monkeypatch, capsys):
    for exc in (RuntimeError("gcd chain step does not shrink the ideal"),
                KeyError("lost")):
        def broken(*args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "predicted_graph", broken)
        monkeypatch.setattr(dynamics, "predicted_graph", broken)
        for cmd in ("predict", "verify"):
            code = main([cmd, "--domain", "Z", "--a", "2", "--n", "24"])
            captured = capsys.readouterr()
            assert code == 3, (cmd, exc)
            assert captured.out == ""
            assert captured.err.startswith("internal error: ")
            assert captured.err.count("\n") == 1
            assert type(exc).__name__ in captured.err
    # input errors keep exit 2
    assert_one_line_error(capsys, ["verify", "--domain", "Z", "--a", "2", "--n", "0"])
