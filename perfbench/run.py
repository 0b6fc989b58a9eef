"""Host-time benchmark of spectresim.

Run from the repository root::

    python3 perfbench/run.py --workload lebench_study --seed 7 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed:

* the workload runs iteration after iteration in this process until
  ``--seconds`` have passed (and at least :data:`MIN_ITERATIONS`), and
  ``wall_s`` is the median iteration time at the reference host speed;
  ``cells_per_s`` and ``minstr_per_s`` divide an iteration's cells and
  simulated instructions (pool workers' included) by it.  Other tenants
  of a shared host slow it down in spells too long for a statistic over
  one run to leave out, so a background thread runs fixed calibration
  loops every 50 ms and each stretch between two of them is scaled by
  how fast the host ran them (see :mod:`perfbench.calibrate`);
* ``setup_s`` is the median, at the reference host speed, of several
  fresh interpreters, one started after each iteration (at least
  :data:`MIN_SETUP_PROBES`): each imports ``repro.cli``, prepares the
  workload and reports when it was ready to start timing.

``--trace 1`` runs the workload untraced twice (warm-up, then the
untraced reference) and once with every layer wrapped in spans, times
``import repro.cli`` in fresh interpreters (``cli.import_s``), prints
the per-layer metrics and writes the spans as a Chrome trace-event file
under ``.perfbench/traces/``.

Every iteration's outputs are checked (see :mod:`perfbench.checks`).  The
last line of standard output is the result object; the line before it
describes the host and the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Fewest iterations per run (``all_fast`` fits three or four into a
#: window).
MIN_ITERATIONS = 3

#: Fewest fresh interpreters started per run to time set-up and import.
MIN_SETUP_PROBES = 5

#: Seconds a set-up probe may take before the run gives up.
PROBE_TIMEOUT_S = 120

#: Workload seed when ``--seed`` is not given (``Settings().seed``).
DEFAULT_SEED = 7


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up probe, internal
    return p.parse_args(argv)


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_descriptor(workload: str) -> Dict[str, Any]:
    from repro.cpu import engine
    from repro.obs.provenance import code_fingerprint
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "engine": engine.default_engine(),
        "jobs": 2 if workload == "all_fast" else 1,
        "commit": git_commit(ROOT),
        "code_fingerprint": code_fingerprint(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workdir_for(root: Path) -> Path:
    path = root / ".perfbench" / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_probe(args: argparse.Namespace) -> int:
    """Child side of a set-up probe: import, prepare, report readiness,
    and calibrate before and after."""
    started = time.perf_counter()
    from perfbench.calibrate import calibration_s
    before = calibration_s()
    calibrating_s = time.perf_counter() - started
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every command pays)
    import_s = time.perf_counter() - started
    from perfbench import workloads
    workdir = workdir_for(ROOT)
    try:
        workloads.prepare(args.workload, args.seed, str(workdir))
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready, "import_s": import_s,
                      "calibrating_s": calibrating_s,
                      "calibration_s": (before + calibration_s()) / 2}))
    return 0


def setup_probe(args: argparse.Namespace) -> Dict[str, float]:
    """Time one fresh interpreter from spawn to ready to start timing
    (less the child's calibration), as measured and at the reference
    host speed.

    ``time.monotonic`` is one system-wide clock on Linux, so the child's
    ready time and the parent's spawn time compare directly.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    spawned = time.monotonic()
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    from perfbench.calibrate import REFERENCE_S
    report = json.loads(done.stdout.strip().splitlines()[-1])
    setup_s = report["ready"] - spawned - report["calibrating_s"]
    return {"setup_s": setup_s, "import_s": report["import_s"],
            "scaled": setup_s * REFERENCE_S / report["calibration_s"]}


def run_iteration(iteration: Any, checker: Any, count: Any,
                  sim: Any = None, sampler: Any = None) -> Dict[str, Any]:
    """One checked iteration: its wall time, cells and instructions (all,
    and those of the machines in this process), and with a ``sampler``
    its time at the reference host speed and its median calibration."""
    error = None
    started = time.perf_counter()
    try:
        outcome = iteration()
    except Exception as exc:  # a crashing cell is a failed unit, not a stop
        outcome = None
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    ended = time.perf_counter()
    in_process, pool = count.take()
    checker.check(outcome, in_process + pool,
                  sim=sim() if sim is not None else None, error=error)
    run = {"wall": ended - started, "cells": outcome.cells if outcome else 0,
           "instructions": in_process + pool, "in_process": in_process}
    if sampler is not None:
        run["scaled"], run["calibration_s"] = sampler.scaled(started, ended)
    return run


def measure(args: argparse.Namespace, iteration: Any, checker: Any
            ) -> Dict[str, Any]:
    """``--trace 0``: iterations for ``--seconds``; end-to-end metrics.

    A set-up probe follows every iteration, so both kinds of sample are
    spread over the whole window and a slow spell of the host skews few
    of either.
    """
    from perfbench.calibrate import SpeedSampler
    from perfbench.layers import count_instructions
    from perfbench.tracer import Patches
    patches = Patches()
    count = count_instructions(patches)
    runs: List[Dict[str, Any]] = []
    probes: List[Dict[str, float]] = []
    try:
        with SpeedSampler() as sampler:
            started = time.perf_counter()
            while (len(runs) < MIN_ITERATIONS
                   or time.perf_counter() - started < args.seconds):
                runs.append(run_iteration(iteration, checker, count,
                                          sampler=sampler))
                probes.append(setup_probe(args))
    finally:
        patches.restore()
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(setup_probe(args))
    wall = statistics.median(r["scaled"] for r in runs)
    # Every iteration does the same work; one that raised did less.
    cells = max(r["cells"] for r in runs)
    instructions = max(r["instructions"] for r in runs)
    return {
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "minstr_per_s": instructions / wall / 1e6,
        "setup_s": statistics.median(p["scaled"] for p in probes),
        "walls": [r["wall"] for r in runs],
        "scaled_walls": [r["scaled"] for r in runs],
        "calibration_s": [r["calibration_s"] for r in runs],
        "setup_samples": [p["setup_s"] for p in probes],
        "scaled_setup_samples": [p["scaled"] for p in probes],
        "import_samples": [p["import_s"] for p in probes],
    }


def traced(args: argparse.Namespace, iteration: Any, checker: Any
           ) -> Dict[str, Any]:
    """``--trace 1``: warm-up, untraced reference, traced iteration."""
    from perfbench.layers import LayerTrace, count_instructions
    from perfbench.tracer import Patches, chrome_trace
    patches = Patches()
    count = count_instructions(patches)
    try:
        run_iteration(iteration, checker, count)
        untraced = run_iteration(iteration, checker, count)
    finally:
        patches.restore()
    layers = LayerTrace()
    with layers:
        result = run_iteration(iteration, checker, layers.instructions,
                               sim=lambda: dict(layers.sim))
    imports = [setup_probe(args)["import_s"] for _ in range(MIN_SETUP_PROBES)]
    metrics = layers.metrics(args.workload, result["wall"], untraced["wall"],
                             result["in_process"],
                             statistics.median(imports))
    out_dir = ROOT / ".perfbench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    with open(path, "w") as f:
        json.dump(chrome_trace(layers.tracer, {
            "workload": args.workload, "seed": args.seed,
            "host": host_descriptor(args.workload), "metrics": metrics}), f)
    return {"metrics": metrics, "trace_path": str(path.relative_to(ROOT)),
            "spans": len(layers.tracer.spans)}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no spectresim sources under "
                         f"{ROOT / 'src'}; run from a full checkout\n")
        return 2
    # The script's own directory would make the package's modules
    # importable under bare names; import them as ``perfbench.*`` only.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, spec, workloads
    if args.workload not in workloads.NAMES + workloads.UNLISTED:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    if args.probe:
        return run_probe(args)

    seed = None if args.workload in workloads.SEEDLESS else args.seed
    reference = checks.reference_for(checks.load_expected(), args.workload,
                                     seed)
    checker = checks.Checker(reference)
    if args.trace:
        units = {m.name: m.unit for m in spec.LISTED_LAYER}
    else:
        units = {m.name: m.unit for m in spec.END_TO_END}
    # The calibration tables are the benchmark's own memory, not the
    # program's: their size, read as they are built, is left out of
    # ``peak_rss_mb``.
    before = peak_rss_mb()
    import perfbench.calibrate  # noqa: F401
    calibration_mb = peak_rss_mb() - before
    workdir = workdir_for(ROOT)
    try:
        iteration = workloads.prepare(args.workload, args.seed, str(workdir))
        if args.trace:
            run = traced(args, iteration, checker)
            values = run.pop("metrics")
        else:
            run = measure(args, iteration, checker)
            values = {name: run.pop(name) for name in
                      ("wall_s", "cells_per_s", "minstr_per_s", "setup_s")}
            values["peak_rss_mb"] = peak_rss_mb() - calibration_mb
            run["calibration_mb"] = calibration_mb
            values["pass_rate"] = checker.pass_rate
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    absent = sorted(name for name, value in values.items() if value is None)
    # The layers that run in this process on some workloads only.
    layers = {name: value for name, value in values.items()
              if name not in units}
    print(json.dumps({
        "host": host_descriptor(args.workload),
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "reference": "recorded" if checker.recorded else "first iteration",
        "error_rate": 1.0 - checker.pass_rate,
        "problems": checker.problems[:20],
        "absent": absent,
        "layers": layers,
        "run": run,
    }))
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
