"""Self-test of the benchmark itself, on tiny instances (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
  * --trace 0 emits exactly the end_to_end metrics of BENCHMARK.json, each
    with its unit and a positive value, and passes its correctness gate;
  * --trace 1 emits exactly the per_layer metrics, each with its unit;
  * with one expected verdict deliberately inverted (--flip-expected) the
    gate reports the failure: correct is false and failed > 0;
and that in a directory holding only BENCHMARK.json and the benchmark's
files, run.py exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "predict", "families")


def bench(*flags: str, cwd: Path = ROOT, workload: str = "oracle"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    return res


def check_metrics(res: dict, spec: list[dict], positive: bool) -> None:
    """Exactly the named metrics, each with its unit and a finite number;
    end-to-end ones also positive (a per-layer figure such as the tracing
    overhead of a tiny run can come out below 0 by noise)."""
    want = {m["name"]: m["unit"] for m in spec}
    got = res["metrics"]
    assert set(got) == set(want), (set(got) ^ set(want))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, (name, got[name]["unit"], unit)
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        assert value > 0 or not positive, (name, value)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in WORKLOADS:
        res = result(bench("--trace", "0", "--tiny", workload=wl))
        assert res["correct"] and res["failed"] == 0, res
        check_metrics(res, spec["end_to_end"], positive=True)

        res = result(bench("--trace", "1", "--tiny", workload=wl))
        assert res["correct"] and res["failed"] == 0, res
        check_metrics(res, spec["per_layer"], positive=False)

        res = result(bench("--trace", "0", "--tiny", "--flip-expected", workload=wl))
        assert not res["correct"] and res["failed"] > 0, res
        print(f"{wl}: metrics and units ok, broken gate caught "
              f"(failed_frac = {res['failed'] / res['attempted']:.3g})")

    stripped = HERE / "out" / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    proc = bench("--trace", "0", cwd=stripped)
    shutil.rmtree(stripped)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("without the program's sources: exit", proc.returncode, "and no result")
    print("selftest ok")


if __name__ == "__main__":
    main()
