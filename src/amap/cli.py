"""Command-line front end.

Subcommands cover the generic machinery (predict / brute / verify / tree)
and the four application checkers (redei / chebyshev / linpoly / ectrees).
All output is JSON on stdout; --dot writes the graph as DOT to a file.
predict, brute and tree print the canonical code up to
DEFAULT_MAX_CODE_BYTES; above that they print the compact structure of
`graphs.compact` instead, with a note that says so.  --dot refuses a graph
above its node cap.

Exit codes: 0 on success, 1 when a verification reports a mismatch,
2 on bad input, including a --dot path that cannot be written, and 3 on
an internal error; errors print one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .applications import (chebyshev_check, ec_generic_trees, linearized_check,
                           redei_check)
from .base import Domain
from .dynamics import brute_amap_graph, predicted_graph, verify_with_brute
from .finitefield import GF
from .graphs import (DEFAULT_MAX_CODE_BYTES, DEFAULT_MAX_NODES, GraphSizeError, compact,
                     render, to_dot)
from .integers import IntegerDomain
from .polynomials import Poly, PolyDomain
from .quadorder import QuadInt, QuadOrder
from .trees import elementary_tree

__all__ = ["main", "entrypoint"]


class ParseError(ValueError):
    pass


def _parse_domain(spec: str, modulus: str | None = None) -> Domain:
    kind, *parts = spec.split(":")
    try:
        nums = [int(part) for part in parts]
    except ValueError:
        raise ParseError(f"bad domain {spec!r}") from None
    if kind == "Z":
        if nums:
            raise ParseError(f"bad domain {spec!r}")
        return IntegerDomain()
    if kind == "poly":
        if len(nums) not in (1, 2):
            raise ParseError(f"bad domain {spec!r}; expected poly:p or poly:p:k")
        p, k = nums[0], nums[1] if len(nums) == 2 else 1
        mod = tuple(_parse_coeffs(modulus, p)) if modulus else None
        return PolyDomain(GF(p, k, mod))
    if kind == "quad":
        if len(nums) != 1:
            raise ParseError(f"bad domain {spec!r}; expected quad:d")
        return QuadOrder(nums[0])
    raise ParseError(f"unknown domain kind {kind!r}")


def _parse_ints(s: str) -> list[int]:
    try:
        return [int(tok) for tok in s.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"bad integer list {s!r}") from exc


def _parse_coeffs(s: str, q: int) -> list[int]:
    coeffs = _parse_ints(s)
    for c in coeffs:
        if not 0 <= c < q:
            raise ParseError(f"coefficient {c} is not a field element code in [0, {q})")
    return coeffs


def _parse_element(dom: Domain, s: str):
    if isinstance(dom, IntegerDomain):
        try:
            return int(s)
        except ValueError as exc:
            raise ParseError(f"bad integer {s!r}") from exc
    if isinstance(dom, PolyDomain):
        return Poly(dom.field, _parse_coeffs(s, dom.field.q))
    if isinstance(dom, QuadOrder):
        coords = _parse_ints(s)
        if len(coords) != 2:
            raise ParseError(f"quadratic elements are 'x,y' pairs, got {s!r}")
        return QuadInt(*coords)
    raise ParseError(f"unsupported domain {dom!r}")


def _parse_ideal(dom: Domain, n: str | None, n_gens: str | None):
    if isinstance(dom, QuadOrder):
        if n_gens is None:
            if n is None:
                raise ParseError("quadratic ideals need --n-gens")
            n_gens = n
        if n_gens.lstrip().startswith("{"):
            try:
                spec = json.loads(n_gens)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad ideal JSON: {exc}") from exc
            return dom.ideal_from_json(spec)
        gens = [_parse_element(dom, part) for part in n_gens.split(";") if part]
        return dom.ideal_from_generators(gens)
    if n is None:
        raise ParseError("missing --n")
    return dom.principal(_parse_element(dom, n))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _code_or_compact(obj, key: str) -> dict:
    """{"code": ...} up to DEFAULT_MAX_CODE_BYTES, else the compact
    structure under `key` and a note."""
    try:
        return {"code": render(obj, DEFAULT_MAX_CODE_BYTES)}
    except GraphSizeError:
        return {key: compact(obj),
                "note": f"code omitted: {obj.code_bytes} bytes is over the cap of "
                        f"{DEFAULT_MAX_CODE_BYTES}; '{key}' lists each distinct tree as "
                        "its [child index, count] pairs, and a graph's classes as "
                        "[cycle_len, period tree indices, count] rows"}


def _write_dot(graph, path: str | None, max_nodes: int = DEFAULT_MAX_NODES) -> None:
    if path:
        text = to_dot(graph, max_nodes=max_nodes)
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--domain", required=True,
                     help="Z | poly:p[:k] | quad:d")
    sub.add_argument("--a", required=True,
                     help="element: integer, coefficient list, or 'x,y'")
    sub.add_argument("--n", help="ideal generator (integer or coefficient list)")
    sub.add_argument("--n-gens", help="quadratic ideal generators 'x,y[;x,y...]'")
    sub.add_argument("--modulus", help="field modulus coefficients for poly:p:k")
    sub.add_argument("--dot", metavar="FILE", help="also write the graph as DOT")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amap",
        description="Predict and verify functional graphs of multiplication "
                    "maps on quotient rings.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("predict", "brute", "verify"):
        sub = subs.add_parser(name)
        _add_instance_flags(sub)
        if name != "predict":
            sub.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES,
                             help="cap on brute-force graph size")
        if name == "verify":
            sub.add_argument("--corrupt-cycle", action="store_true",
                             help="perturb the prediction (self-test hook)")

    tree = subs.add_parser("tree", help="elementary tree of a sequence")
    tree.add_argument("series", help="non-increasing entries, e.g. 6,2")

    redei = subs.add_parser("redei")
    redei.add_argument("--q", type=int, required=True)
    redei.add_argument("--a", type=int, required=True)
    redei.add_argument("--n", type=int, required=True)

    cheb = subs.add_parser("chebyshev")
    cheb.add_argument("--q", type=int, required=True)
    cheb.add_argument("--n", type=int, required=True)

    lin = subs.add_parser("linpoly")
    lin.add_argument("--q", type=int, required=True)
    lin.add_argument("--n", type=int, required=True)
    lin.add_argument("--f", required=True, help="coefficient list, e.g. 1,0,1")
    lin.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)

    ec = subs.add_parser("ectrees")
    ec.add_argument("--d", type=int, required=True)
    ec.add_argument("--a", required=True,
                    help="'x,y' in the {1, w} basis (use --a=-1,2 for negatives)")
    ec.add_argument("--pi", required=True,
                    help="'x,y' in the {1, w} basis (use --pi=-3,8 for negatives)")
    ec.add_argument("--n", type=int, default=1)

    return parser


def _run(args: argparse.Namespace) -> int:
    cmd = args.command

    if cmd in ("predict", "brute", "verify"):
        dom = _parse_domain(args.domain, args.modulus)
        a = _parse_element(dom, args.a)
        n = _parse_ideal(dom, args.n, args.n_gens)
        if cmd == "predict":
            pred = predicted_graph(dom, a, n)
            _write_dot(pred.graph, args.dot)
            _emit({"domain": dom.domain_json(), "a": dom.describe_element(a),
                   "n": dom.describe_ideal(n), **_code_or_compact(pred.graph, "graph"),
                   "node_count": pred.graph.node_count,
                   "summands": list(pred.summands)})
            return 0
        if cmd == "brute":
            graph = brute_amap_graph(dom, a, n, max_nodes=args.max_nodes)
            _write_dot(graph, args.dot, args.max_nodes)
            _emit({"domain": dom.domain_json(), "a": dom.describe_element(a),
                   "n": dom.describe_ideal(n), **_code_or_compact(graph, "graph"),
                   "node_count": graph.node_count})
            return 0
        report, brute = verify_with_brute(dom, a, n, max_nodes=args.max_nodes,
                                          corrupt_cycle=args.corrupt_cycle)
        _write_dot(brute, args.dot, args.max_nodes)
        print(report.to_json(indent=2))
        return 0 if report.isomorphic else 1

    if cmd == "tree":
        series = _parse_ints(args.series)
        tree = elementary_tree(series)
        _emit({"series": series, **_code_or_compact(tree, "tree"),
               "node_count": tree.node_count})
        return 0

    if cmd == "redei":
        report = redei_check(args.q, args.n, args.a)
        print(report.to_json(indent=2))
        return 0 if report.isomorphic else 1

    if cmd == "chebyshev":
        report = chebyshev_check(args.q, args.n)
        print(report.to_json(indent=2))
        return 0 if report.ok else 1

    if cmd == "linpoly":
        report = linearized_check(args.q, args.n, _parse_ints(args.f),
                                  max_nodes=args.max_nodes)
        print(report.to_json(indent=2))
        return 0 if report.isomorphic else 1

    if cmd == "ectrees":
        order = QuadOrder(args.d)
        a = _parse_element(order, args.a)
        pi = _parse_element(order, args.pi)
        report = ec_generic_trees(args.d, a, pi, args.n)
        print(report.to_json(indent=2))
        return 0

    raise ParseError(f"unknown command {cmd!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a library fault, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
