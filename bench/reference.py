"""Re-make the reference figures of README.md.

    python3 bench/reference.py

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed 1 to 10,
one process at a time, for BENCHMARK.json's ``run_seconds``.  Prints, per workload and end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median next to the metric's bound, and the
median and spread of the same timing unscaled by machine speed; then
the per-layer metrics of one traced run per workload, with seed 1.  Every result line is
also appended to ``bench/out/reference.jsonl``.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        detail = (HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text().splitlines()[1]
        result["raw"] = json.loads(detail)["raw"]
    with open(HERE / "out" / "reference.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    (HERE / "out").mkdir(exist_ok=True)
    seconds = spec["run_seconds"]
    print(f"Python {platform.python_version()}, numpy {np.__version__}, nproc {len(os.sched_getaffinity(0))}, "
          f"{seconds} s per run, seeds {SEEDS.start} to {SEEDS.stop - 1}\n")
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | bound | raw median, spread | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in names:
        results = [run(w, s, seconds, 0) for s in SEEDS]
        ok = all(r["correct"] for r in results)
        fails = f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}"
        for m in spec["end_to_end"]:
            med, q1, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in results])
            raw = "same"
            if m["name"] in results[0]["raw"]:
                rmed, rq1, rq3 = quartiles([r["raw"][m["name"]] for r in results])
                raw = f"{rmed:.4g}, {(rq3 - rq1) / rmed:.3f}"
            print(f"| {w} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {m['bound']} | {raw} | {fails}{'' if ok else ' INCORRECT'} |")
    traced = {w: run(w, SEEDS[0], seconds, 1) for w in names}
    print(f"\nPer-layer metrics, one traced run per workload (seed {SEEDS[0]}):\n")
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in spec["per_layer"]:
        cells = [f"{traced[w]['metrics'][m['name']]['value']:.4g}" for w in names]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
