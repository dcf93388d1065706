"""One fresh benchmark process.  run.py and baselines.py start it; it prints
one JSON object as its last line of standard output.

Modes:
  setup     import amap, build the domains and --cycles cycles of requests;
            report the time
  run       set up, then run the cycles once in a closed loop, untraced
  trace     set up with the tracer installed, run the cycles traced, then the
            same cycles again from fresh objects with the tracer removed;
            report per-layer metrics and the tracing overhead
  baseline  one ROADMAP baseline (--name), untraced or --traced
"""

import time

T_START = time.perf_counter()  # before amap is imported: set-up includes the import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"

# Speed normalization.  The benchmark shares its machine, whose speed drifts
# by up to half over minutes; that moves every timing of a run together.
# A fixed pure-Python kernel is timed between requests (outside their timed
# regions), and each time is rescaled to a machine on which the kernel takes
# NOMINAL_KERNEL_S: t * NOMINAL_KERNEL_S / (kernel time around it).  Raw
# times are kept next to the rescaled ones.
NOMINAL_KERNEL_S = 0.005
CALIBRATE_EVERY_S = 0.25  # busy time between two kernel runs


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: integer arithmetic, dict
    updates, small strings, the instruction mix of amap's inner loops."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        t = (i * 7919) % 10007
        d[t] = d.get(t, 0) + 1
        acc ^= t
    ",".join(str(k) for k in list(d)[:2000])
    return time.perf_counter() - t0


def _setup(args):
    import workloads
    return workloads, workloads.setup(args.workload, args.seed, args.tiny, args.cycles)


def run_loop(workloads, cycles, flip_first: bool = False) -> dict:
    """Closed loop, one client: each request starts when the previous one and
    its gate are done.  Latency covers the request only; the gate and the
    calibration kernel run outside it."""
    clock = time.perf_counter
    latencies: list[float] = []
    scaled: list[float] = []
    pending: list[float] = []  # latencies since the last kernel run
    nodes = attempted = failed = 0
    failures: list[str] = []
    kernel_before = kernel_seconds()
    start = clock()

    def calibrate() -> None:
        nonlocal kernel_before, pending
        kernel_after = kernel_seconds()
        factor = NOMINAL_KERNEL_S / ((kernel_before + kernel_after) / 2)
        scaled.extend(t * factor for t in pending)
        kernel_before, pending = kernel_after, []

    for cycle in cycles:
        for inst in cycle:
            if flip_first:
                inst.expected = not inst.expected  # the self-test's broken gate
                flip_first = False
            attempted += 1
            t0 = clock()
            try:
                out = inst.call()
            except Exception as exc:  # a request that raises is a failure
                latencies.append(clock() - t0)
                failed += 1
                failures.append(f"{inst.slot}: {exc!r}")
                out = None
            else:
                latencies.append(clock() - t0)
            pending.append(latencies[-1])
            if out is not None:
                try:
                    ok = inst.verdict(out) == inst.expected
                except (workloads.GateError, KeyError, ValueError, TypeError) as exc:
                    ok = False
                    failures.append(f"{inst.slot}: gate: {exc!r}")
                else:
                    if not ok:
                        failures.append(f"{inst.slot}: verdict is not {inst.expected}")
                del out
                failed += not ok
            nodes += inst.nodes
            if sum(pending) >= CALIBRATE_EVERY_S:
                calibrate()
    calibrate()
    return {"latencies": latencies, "scaled": scaled, "nodes": nodes,
            "attempted": attempted, "failed": failed, "failures": failures[:20],
            "cycles": len(cycles), "loop_s": clock() - start}


def _kernel_median(k: int = 5) -> float:
    return sorted(kernel_seconds() for _ in range(k))[k // 2]


def mode_setup(args) -> dict:
    _setup(args)
    setup_s = time.perf_counter() - T_START
    return {"setup_s": setup_s,
            "setup_scaled_s": setup_s * NOMINAL_KERNEL_S / _kernel_median()}


def mode_run(args) -> dict:
    workloads, cycles = _setup(args)
    setup_s = time.perf_counter() - T_START
    out = run_loop(workloads, cycles, flip_first=args.flip_expected)
    out["setup_s"] = setup_s
    out["setup_scaled_s"] = setup_s * NOMINAL_KERNEL_S / _kernel_median()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def mode_trace(args) -> dict:
    import workloads  # noqa: F401  (amap must be imported before patching)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    workloads, cycles = _setup(args)
    tracer.start_pass()
    traced = run_loop(workloads, cycles, flip_first=args.flip_expected)
    tracer.uninstall()
    metrics = tracer.metrics()
    # the same cycles again, from fresh objects, with the tracer removed
    workloads, cycles = _setup(args)
    plain = run_loop(workloads, cycles)
    metrics["trace.overhead_frac"] = sum(traced["scaled"]) / sum(plain["scaled"]) - 1
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    return {"metrics": metrics, "attempted": traced["attempted"] + plain["attempted"],
            "failed": traced["failed"] + plain["failed"],
            "failures": traced["failures"] + plain["failures"],
            "cycles": traced["cycles"], "spans_file": str(spans_file),
            "spans": len(tracer.spans)}


# ---- ROADMAP north-star baselines ----

def _baseline_call(name: str):
    import workloads
    amap = workloads.amap
    Z = amap.IntegerDomain()
    if name == "brute_z_1e6":
        return lambda: amap.brute_amap_graph(Z, 2, 10**6)
    if name == "predict_z_1000003":
        return lambda: amap.predicted_graph(Z, 2, 1000003)
    if name == "verify_f2_x18p1":
        F2 = amap.PolyDomain(amap.field(2))
        x = amap.Poly(F2.field, [0, 1])
        n = amap.Poly(F2.field, [1] + [0] * 17 + [1])
        return lambda: amap.verify(F2, x, n)
    if name == "verify_z5_300":
        Z5 = amap.QuadOrder(-5)
        n = Z5.principal(amap.QuadInt(300, 0))
        return lambda: amap.verify(Z5, amap.QuadInt(1, 1), n)
    if name == "brute_z_2p18_mem":
        return lambda: amap.brute_amap_graph(Z, 2, 2**18)
    raise ValueError(f"unknown baseline {name!r}")


def mode_baseline(args) -> dict:
    call = _baseline_call(args.name)
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start_pass()
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    call()
    wall = time.perf_counter() - t0
    out = {"name": args.name, "traced": args.traced, "wall_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "rss_before_mb": rss_before / 1024}
    if tracer is not None:
        tracer.uninstall()
        out["dominant_layer"], out["dominant_share"] = tracer.dominant_layer()
        out["layer_shares"] = {k: v for k, v in tracer.metrics().items()
                               if k.endswith(".self_share")}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "trace", "baseline"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--flip-expected", action="store_true")
    ap.add_argument("--name")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    mode = {"setup": mode_setup, "run": mode_run, "trace": mode_trace,
            "baseline": mode_baseline}[args.mode]
    print(json.dumps(mode(args)))


if __name__ == "__main__":
    main()
