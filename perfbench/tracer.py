"""Span tracer the benchmark installs around amap's layer boundaries.

The wrappers live here, not in the program: installing one replaces a
function in every ``amap`` module namespace that holds it (for example both
``amap.dynamics.brute_amap_graph`` and ``amap.applications.brute_amap_graph``),
or a method on the class that defines it.  ``uninstall`` puts every
original back.

Three kinds of wrapper, chosen by how often the call happens:

* span  -- one (id, name, start_ns, end_ns, parent_id, self_ns) record per
  call, kept in memory and written out at the end;
* hot   -- per-residue calls (``mul_mod``): timed and nested like a span but
  aggregated per name as [calls, total_ns, self_ns], since a record per call
  would not fit in memory;
* count -- innermost arithmetic (field and polynomial products, tree and
  component constructors): a counter only, so its time stays in the caller.

A layer is the amap module a name is charged to, the part before the first
dot.  A span's self time is its duration minus the time its child spans and
hot frames cover, so the self times of one call tree add up to its root.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("dynamics", "base", "integers", "polynomials", "quadorder",
          "finitefield", "trees", "graphs", "applications", "cli")


def _layer_of(cls) -> str:
    return cls.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.setup_spans: list[tuple] = []
        self.hot: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.tree_codes: set[str] = set()
        self._stack: list[list] = []  # frames: [span_id, child_ns, name]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ---- patching ----

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, make) -> None:
        orig = getattr(module, attr)
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == "amap" or name.startswith("amap."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, make) -> None:
        if attr in vars(cls):
            self._set(cls, attr, make(vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ---- wrapper factories ----

    def span(self, name: str, post=None):
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1][0] if stack else 0
                frame = [sid, 0, name]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    if stack:
                        stack[-1][1] += t1 - t0
                    self.spans.append((sid, name, t0, t1, parent, t1 - t0 - frame[1]))
                if post is not None:
                    post(args, result)
                return result
            return wrapper
        return make

    def hot_method(self, names: dict):
        """Timed, aggregated wrapper; the name depends on type(self)."""
        stack, hot, clock = self._stack, self.hot, time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(obj, *args):
                name = names[type(obj)]
                frame = [0, 0, name]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(obj, *args)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    agg = hot[name]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
            return wrapper
        return make

    def counter(self, name: str):
        cell = self.counts[name]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # ---- installation ----

    def install(self) -> None:
        from amap import (applications, base, dynamics, finitefield, graphs,
                          integers, polynomials, quadorder, trees)

        domain_classes = (integers.IntegerDomain, polynomials.PolyDomain,
                          quadorder.QuadOrder)
        counts, stack = self.counts, self._stack

        # dynamics
        self._patch_function(dynamics, "verify", self.span("dynamics.verify"))
        self._patch_function(dynamics, "predicted_graph", self.span("dynamics.predict"))
        self._patch_function(dynamics, "brute_amap_graph", self.span("dynamics.brute"))
        self._patch_function(dynamics, "nu_series", self.span("dynamics.nu_series"))

        # base: derived operations, charged to base wherever they are defined
        def count_divisors(args, result):
            counts["base.divisors.count"][0] += len(result)
        for cls in (base.Domain,) + domain_classes:
            self._patch_method(cls, "mult_order", self.span("base.mult_order"))
            self._patch_method(cls, "divisors", self.span("base.divisors", count_divisors))
            self._patch_method(cls, "a_decomposition", self.span("base.a_decomposition"))

        # domains: factor and residues per domain module, mul_mod per residue
        mul_mod_names = {cls: f"{_layer_of(cls)}.mul_mod" for cls in domain_classes}
        for cls in (base.Domain,) + domain_classes:
            self._patch_method(cls, "mul_mod", self.hot_method(mul_mod_names))
        for cls in domain_classes:
            layer = _layer_of(cls)
            self._patch_method(cls, "factor", self.span(f"{layer}.factor"))
            self._patch_method(cls, "residues", self.span(f"{layer}.residues"))
            # element products made inside mult_order: the order search's work
            muls = counts["base.mult_order.muls"]

            def count_order_muls(fn, muls=muls):
                @functools.wraps(fn)
                def wrapper(*args):
                    if stack and stack[-1][2] == "base.mult_order":
                        muls[0] += 1
                    return fn(*args)
                return wrapper
            self._patch_method(cls, "mul", count_order_muls)
        self._patch_method(polynomials.Poly, "__mul__",
                           self.counter("polynomials.poly_mul.calls"))
        self._patch_method(polynomials.Poly, "__divmod__",
                           self.counter("polynomials.divmod.calls"))
        self._patch_method(quadorder.QuadOrder, "ideal_mul",
                           self.counter("quadorder.ideal_mul.calls"))

        # finitefield
        self._patch_method(finitefield.GF, "mul", self.counter("finitefield.mul.calls"))
        self._patch_method(finitefield.GF, "__init__", self.span("finitefield.gf_init"))
        self._patch_method(finitefield.GF, "power_table",
                           self.span("finitefield.power_table"))

        # trees
        built, codes = counts["trees.rooted_tree.constructed"], self.tree_codes

        def tree_init(fn):
            @functools.wraps(fn)
            def wrapper(obj, *args):
                fn(obj, *args)
                built[0] += 1
                codes.add(obj.code)
            return wrapper
        self._patch_method(trees.RootedTree, "__init__", tree_init)
        self._patch_function(trees, "elementary_tree", self.span("trees.elementary_tree"))

        # graphs
        def count_code(args, graph):
            counts["graphs.code_bytes"][0] += len(graph.code)
            counts["graphs.code_nodes"][0] += graph.node_count
        self._patch_function(graphs, "decompose_successors",
                             self.span("graphs.decompose_successors"))
        self._patch_function(graphs, "brute_graph", self.span("graphs.brute_graph", count_code))
        self._patch_function(graphs, "disjoint_sum",
                             self.span("graphs.disjoint_sum", count_code))
        self._patch_method(graphs.Component, "__init__",
                           self.counter("graphs.component.constructed"))

        # applications
        for fn in ("redei_check", "chebyshev_check", "linearized_check", "ec_generic_trees"):
            self._patch_function(applications, fn, self.span(f"applications.{fn}"))

        # report serialization, as the CLI emits it
        def count_json(args, text):
            counts["cli.json_bytes"][0] += len(text)
        for cls in (dynamics.Report, applications.ChebyshevReport,
                    applications.LinearizedReport, applications.ECTreesReport):
            self._patch_method(cls, "to_json", self.span("cli.to_json", count_json))

    # ---- phases and results ----

    def start_pass(self) -> None:
        """Keep the set-up spans apart and zero everything else."""
        self.setup_spans.extend(self.spans)
        self.spans.clear()
        self.hot.clear()
        for cell in self.counts.values():
            cell[0] = 0
        self.tree_codes.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the measured pass (seconds, counts, shares)."""
        s = 1e-9
        total = defaultdict(int)
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        names = {}
        for sid, name, t0, t1, parent, own in self.spans:
            total[name] += t1 - t0
            self_ns[name] += own
            calls[name] += 1
            names[sid] = name
        predict_in_verify = sum(t1 - t0 for _, name, t0, t1, parent, _ in self.spans
                                if name == "dynamics.predict"
                                and names.get(parent) == "dynamics.verify")
        root_ns = sum(t1 - t0 for _, _, t0, t1, parent, _ in self.spans if parent == 0)
        layer_self = defaultdict(int)
        for name, ns in self_ns.items():
            layer_self[name.split(".", 1)[0]] += ns
        for name, (_, _, own) in self.hot.items():
            layer_self[name.split(".", 1)[0]] += own
        count = {name: cell[0] for name, cell in self.counts.items()}
        gf_init = sum(t1 - t0 for _, name, t0, t1, _, _ in self.setup_spans + self.spans
                      if name == "finitefield.gf_init")

        out = {
            "dynamics.predict.s": total["dynamics.predict"] * s,
            "dynamics.brute.s": total["dynamics.brute"] * s,
            "dynamics.verify.self_s": self_ns["dynamics.verify"] * s,
            "dynamics.nu_series.s": total["dynamics.nu_series"] * s,
            "dynamics.predict_share": (predict_in_verify / total["dynamics.verify"]
                                       if total["dynamics.verify"] else 0.0),
            "base.mult_order.s": total["base.mult_order"] * s,
            "base.mult_order.calls": calls["base.mult_order"],
            "base.mult_order.muls_per_call": (count.get("base.mult_order.muls", 0)
                                              / max(calls["base.mult_order"], 1)),
            "base.divisors.s": total["base.divisors"] * s,
            "base.divisors.count": count.get("base.divisors.count", 0),
            "base.a_decomposition.s": total["base.a_decomposition"] * s,
        }
        for layer in ("integers", "polynomials", "quadorder"):
            mm = self.hot.get(f"{layer}.mul_mod", [0, 0, 0])
            out[f"{layer}.factor.s"] = total[f"{layer}.factor"] * s
            out[f"{layer}.residues.s"] = total[f"{layer}.residues"] * s
            out[f"{layer}.mul_mod.s"] = mm[1] * s
            out[f"{layer}.mul_mod.calls"] = mm[0]
        built = count.get("trees.rooted_tree.constructed", 0)
        code_nodes = count.get("graphs.code_nodes", 0)
        out.update({
            "polynomials.poly_mul.calls": count.get("polynomials.poly_mul.calls", 0),
            "polynomials.divmod.calls": count.get("polynomials.divmod.calls", 0),
            "quadorder.ideal_mul.calls": count.get("quadorder.ideal_mul.calls", 0),
            "finitefield.mul.calls": count.get("finitefield.mul.calls", 0),
            "finitefield.gf_init.s": gf_init * s,
            "finitefield.power_table.s": total["finitefield.power_table"] * s,
            "trees.rooted_tree.constructed": built,
            "trees.rooted_tree.distinct": len(self.tree_codes),
            "trees.distinct_ratio": len(self.tree_codes) / built if built else 0.0,
            "trees.elementary_tree.s": total["trees.elementary_tree"] * s,
            "graphs.decompose_successors.s": total["graphs.decompose_successors"] * s,
            "graphs.brute_graph.self_s": self_ns["graphs.brute_graph"] * s,
            "graphs.component.constructed": count.get("graphs.component.constructed", 0),
            "graphs.code_bytes": count.get("graphs.code_bytes", 0),
            "graphs.code_bytes_per_node": (count.get("graphs.code_bytes", 0) / code_nodes
                                           if code_nodes else 0.0),
            "graphs.disjoint_sum.s": total["graphs.disjoint_sum"] * s,
            "applications.map_eval.self_s": sum(
                ns for name, ns in self_ns.items()
                if name.startswith("applications.")) * s,
            "cli.to_json.s": total["cli.to_json"] * s,
            "cli.json_bytes": count.get("cli.json_bytes", 0),
        })
        for layer in LAYERS:
            out[f"{layer}.self_share"] = layer_self[layer] / root_ns if root_ns else 0.0
        return out

    def dominant_layer(self) -> tuple[str, float]:
        m = self.metrics()
        layer = max(LAYERS, key=lambda name: m[f"{name}.self_share"])
        return layer, m[f"{layer}.self_share"]

    def write(self, path) -> None:
        """Spans as JSON lines [id, name, start_ns, end_ns, parent_id], then
        one line with the aggregated hot frames and counters."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, _ in self.setup_spans + self.spans:
                fh.write(json.dumps([sid, name, t0, t1, parent]) + "\n")
            fh.write(json.dumps({"hot": dict(self.hot),
                                 "counts": {k: c[0] for k, c in self.counts.items()}}) + "\n")
