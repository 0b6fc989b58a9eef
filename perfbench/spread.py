"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median of the runs and the distance between the
first and third quartile as a share of that median — the figure each
metric's bound in ``BENCHMARK.json`` is set against.  The workloads take
turns, seed by seed, so a drift of the host's speed reaches each of them
alike::

    python3 perfbench/spread.py --workloads lebench_study --seeds 1-10 \\
        --out spread.json

``--out`` also records each workload's host descriptor, so figures from
two hosts are never compared unknowingly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"run": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(n for n, _ in
                                                   spec.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    report: Dict[str, Any] = {"seconds": args.seconds, "workloads": {}}
    ok = True
    names = args.workloads.split(",")
    by_workload: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    for seed in parse_seeds(args.seeds):
        for workload in names:
            run = run_once(workload, seed, args.seconds)
            by_workload[workload].append(run)
            values = run["result"]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {values[name]['value']:.4g}" for name in bounds),
                file=sys.stderr, flush=True)
            if not run["result"]["correct"]:
                ok = False
                print(f"{workload} seed {seed}: INCORRECT "
                      f"{run['run']['problems']}", file=sys.stderr)
    for workload, runs in by_workload.items():
        rows: Dict[str, Any] = {"host": runs[-1]["run"]["host"]}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            rows[name] = dict(spread(values), values=values)
            line = rows[name]
            flag = "" if line["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"{workload:14s} {name:13s} median {line['median']:10.4f}"
                  f"  spread {line['spread']:.4f}  bound {bounds[name]}"
                  f"{flag}")
        rows["runs"] = [r["run"]["run"] for r in runs]
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
