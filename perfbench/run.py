"""amap benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 15 --trace 0

Workloads (see WORKLOADS.md):
  oracle    verify() over Z, F_2[x], F_3[x], Z[i], Z[sqrt(-5)], N ~ 2^13..2^16,
            with planted corrupt_cycle=True controls that must fail to verify
  predict   predicted_graph() only, N ~ 10^4..10^6, checked against digests
            of brute-force graphs (predict_pool.json)
  families  Redei, Chebyshev, linearized and elliptic-curve-tree checks

The amount of work is fixed by --seconds and the seed, not by the clock:
--seconds times a nominal rate of cycles per second (measured on a 2-core x86
VM with Python 3.11 when the benchmark was added) gives the number of
cycles, so a faster program does the same requests in less time.

--trace 0 measures the end-to-end metrics in a fresh process with nothing
installed; set-up time is the median over that process and eight more that
only set up, half started before it and half after.  --trace 1 runs a
separate process with the tracer installed over half the cycles, then the
same cycles untraced, and reports the per-layer metrics.

Times are rescaled to a reference speed.  The machine is shared and its
speed drifts by up to half over minutes, which moves every time of a run
together.  worker.py times a fixed pure-Python kernel between requests and
rescales each time to a machine on which the kernel takes 5 ms (see
NOMINAL_KERNEL_S); the raw times are printed and kept in the record too.
Every request's output is gated (a wrong verdict or an
exception is a failure).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
The full record, and in --trace 1 the spans, go to perfbench/out/.

--tiny and --flip-expected exist for selftest.py: tiny instances, and one
expected verdict inverted so that the gate must report a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 8  # set-up-only processes, half before the run and half after
CYCLES_PER_SECOND = {"oracle": 0.3, "predict": 0.3, "families": 7.0}
CHILD_TIMEOUT_S = 100
WORKLOADS = ("oracle", "predict", "families")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_nodes_per_s": "nodes/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_share", "_ratio", "_frac")):
        return "frac"
    if name.endswith("bytes_per_node"):
        return "bytes/node"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("muls_per_call"):
        return "muls/call"
    return "count"


class ChildFailed(RuntimeError):
    pass


def n_cycles(args) -> int:
    return max(1, round(args.seconds * CYCLES_PER_SECOND[args.workload]))


def child(mode: str, args, *extra: str, cycles: int | None = None) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--cycles", str(cycles or n_cycles(args)), *extra]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def end_to_end(args) -> tuple[dict, dict]:
    flags = ("--flip-expected",) if args.flip_expected else ()
    half = 0 if args.tiny else SETUP_SAMPLES // 2
    setups = [child("setup", args) for _ in range(half)]
    run = child("run", args, *flags)
    setups += [child("setup", args) for _ in range(half)] + [run]
    lat = run["scaled"]
    tail_ms, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "throughput_nodes_per_s": run["nodes"] / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": run["maxrss_kb"] / 1024,
    }
    raw = run["latencies"]
    record = {
        "attempted": run["attempted"], "failed": run["failed"],
        "failed_frac": run["failed"] / run["attempted"], "failures": run["failures"],
        "cycles": run["cycles"], "requests": len(lat), "nodes": run["nodes"],
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "setup_raw_s": [s["setup_s"] for s in setups],
        "setup_scaled_s": [s["setup_scaled_s"] for s in setups],
        "raw": {"setup_s": statistics.median(s["setup_s"] for s in setups),
                "throughput_nodes_per_s": run["nodes"] / sum(raw),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_tail_ms": tail(raw)[0] * 1e3},
        "busy_raw_s": sum(raw), "busy_scaled_s": sum(lat),
    }
    print(f"cycles={run['cycles']} requests={len(lat)} nodes={run['nodes']} "
          f"busy={sum(raw):.2f}s raw, {sum(lat):.2f}s at reference speed")
    for name, value in metrics.items():
        note = ""
        if name in record["raw"]:
            note = f"  (raw {record['raw'][name]:.6g})"
        if name == "latency_tail_ms":
            note += f"  p{tail_pct:.1f} of {len(lat)} requests, {beyond} beyond it"
        elif name == "setup_s":
            note += f"  median of {len(setups)} processes"
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}{note}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, record


def per_layer(args) -> tuple[dict, dict]:
    flags = ("--flip-expected",) if args.flip_expected else ()
    # half the cycles: traced, then again untraced, in about --seconds
    res = child("trace", args, *flags, cycles=max(1, n_cycles(args) // 2))
    metrics = res.pop("metrics")
    print(f"traced cycles={res['cycles']} spans={res['spans']} -> {res['spans_file']}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {per_layer_unit(name)}")
    record = dict(res, failed_frac=res["failed"] / res["attempted"])
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--flip-expected", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (ROOT / "src" / "amap" / "__init__.py").is_file():
        print(f"no amap sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    try:
        metrics, record = (per_layer if args.trace else end_to_end)(args)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted, failed = record["attempted"], record["failed"]
    print(f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4g}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump({"args": vars(args), "metrics": metrics, "record": record}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
