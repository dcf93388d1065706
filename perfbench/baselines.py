"""One-shot, ungated reproduction of the five ROADMAP north-star baselines.

Each baseline runs once in a fresh process with nothing installed (wall time,
peak RSS of that process), then once more in a fresh process with the tracer
installed, which names the layer with the largest self time.  The table is
printed and written to perfbench/out/baselines.json.  Nothing is compared
with a bound: the figures are for the record.

    python3 perfbench/baselines.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (name, what it runs, the ROADMAP's figure)
BASELINES = [
    ("brute_z_1e6", "brute_amap_graph in Z, a = 2, n = 10^6", "5.8 s"),
    ("predict_z_1000003", "predicted_graph in Z, a = 2, n = 1000003", "0.47 s"),
    ("verify_f2_x18p1", "verify in F_2[x], a = x, n = x^18 + 1", "5.8 s"),
    ("verify_z5_300", "verify in Z[sqrt(-5)], a = 1 + sqrt(-5), n = <300>", "0.58 s"),
    ("brute_z_2p18_mem", "brute_amap_graph in Z, a = 2, n = 2^18 (memory)", "106 MB peak"),
]


def run(name: str, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", "baseline", "--name", name]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    rows = []
    print(f"{'baseline':20} {'wall_s':>8} {'peak_rss_mb':>12} {'dominant layer (traced)':>28}"
          f"  ROADMAP")
    for name, what, roadmap in BASELINES:
        plain, traced = run(name, False), run(name, True)
        rows.append({"name": name, "what": what, "roadmap": roadmap,
                     "wall_s": plain["wall_s"], "peak_rss_mb": plain["peak_rss_mb"],
                     "rss_before_mb": plain["rss_before_mb"],
                     "traced_wall_s": traced["wall_s"],
                     "dominant_layer": traced["dominant_layer"],
                     "dominant_share": traced["dominant_share"],
                     "layer_shares": traced["layer_shares"]})
        layer = f"{traced['dominant_layer']} ({traced['dominant_share']:.0%})"
        print(f"{name:20} {plain['wall_s']:8.3f} {plain['peak_rss_mb']:12.1f} {layer:>28}"
              f"  {roadmap}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "baselines.json", "w") as fh:
        json.dump(rows, fh, indent=1)


if __name__ == "__main__":
    main()
