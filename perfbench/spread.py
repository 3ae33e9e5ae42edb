"""Run-to-run spread of the end-to-end metrics, and the baseline record.

Usage::

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs ``run.py`` once per seed and workload for ``run_seconds`` (from
``BENCHMARK.json``), then prints, per workload and end-to-end metric, the
median and the quartiles of the values, and the spread: the distance
between the quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, beside a third of the metric's bound.  With ``--out`` it also
makes one traced run per workload on the first seed and writes everything,
with the environment, to FILE as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    record: dict = {"run_seconds": SPEC["run_seconds"], "seeds": seeds,
                    "end_to_end": {}, "per_layer": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result, record["env"] = run(workload, seed, trace=0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", result)
                steady = False
            results.append(result)
        record["end_to_end"][workload] = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            stats = summary([r["metrics"][name]["value"] for r in results])
            record["end_to_end"][workload][name] = stats
            ok = stats["spread"] < metric["bound"] / 3
            steady &= ok or name == "setup_s"
            print(f"{workload:12s} {name:14s} median {stats['median']:12.5g}  "
                  f"q1 {stats['q1']:12.5g}  q3 {stats['q3']:12.5g}  "
                  f"spread {stats['spread']:.3f}  bound/3 {metric['bound'] / 3:.3f}"
                  f"{'' if ok else '  WIDE'}", flush=True)
        if args.out:
            traced, _ = run(workload, seeds[0], trace=1)
            record["per_layer"][workload] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
