"""Regenerate the benchmark's recorded files.

``BENCHMARK.json`` from :mod:`perfbench.spec`::

    python3 perfbench/record.py benchmark-json

The reference outputs in ``perfbench/expected.json`` — per workload and
seed, one digest per checked unit and, unless the workload is in
``workloads.UNRECORDED_COUNTS``, the simulated instruction total and the
``sim.*`` counts — from one traced iteration each::

    python3 perfbench/record.py expected --workload lebench_study \\
        --seeds 0-20

Record only from a commit whose outputs are known good: every later run
is checked against these digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, spec, workloads  # noqa: E402
from perfbench.layers import LayerTrace  # noqa: E402
from perfbench.spread import parse_seeds  # noqa: E402


def write_json(path: Path, payload: object) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=path.name != "BENCHMARK.json")
        f.write("\n")


def record_expected(workload: str, seeds: List[int]) -> int:
    expected = checks.load_expected()
    entries = expected.setdefault(workload, {})
    if workload in workloads.SEEDLESS:
        seeds = seeds[:1]
    workdir = ROOT / ".perfbench" / "record"
    for seed in seeds:
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            iteration = workloads.prepare(workload, seed, str(workdir))
            with LayerTrace() as layers:
                outcome = iteration()
            in_process, pool = layers.instructions.take()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if outcome.failures:
            print(f"{workload} seed {seed}: not recorded, the program "
                  f"failed: {outcome.failures}", file=sys.stderr)
            return 1
        key = checks.ANY_SEED if workload in workloads.SEEDLESS else str(seed)
        entries[key] = {"units": outcome.units}
        if workload not in workloads.UNRECORDED_COUNTS:
            entries[key].update(instructions=in_process + pool,
                                sim=dict(layers.sim))
        print(f"{workload} seed {key}: {len(outcome.units)} units, "
              f"{in_process + pool} instructions", file=sys.stderr)
    write_json(Path(checks.EXPECTED_PATH), expected)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="what", required=True)
    sub.add_parser("benchmark-json")
    e = sub.add_parser("expected")
    e.add_argument("--workload", required=True,
                   choices=workloads.NAMES + workloads.UNLISTED)
    e.add_argument("--seeds", default="0-20")
    args = p.parse_args(argv)
    if args.what == "benchmark-json":
        write_json(ROOT / "BENCHMARK.json", spec.benchmark_json())
        return 0
    return record_expected(args.workload, parse_seeds(args.seeds))


if __name__ == "__main__":
    raise SystemExit(main())
