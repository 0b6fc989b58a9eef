"""The benchmark's workloads.

Each workload is a closed-loop batch job with one caller: the benchmark
starts an iteration, waits for it to finish, checks its outputs and starts
the next.  :func:`prepare` builds a workload from its name and seed (the
set-up the ``setup_s`` metric times) and returns a callable that runs one
iteration and returns an :class:`Outcome`.

An outcome holds one digest per checked unit (a study cell, a fuzz cell or
an ``all`` artifact), so :mod:`perfbench.checks` can compare every unit
with the previous iteration and with the digests recorded in
``perfbench/expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

#: Workload names, in the order ``BENCHMARK.json`` lists them.
NAMES = ("lebench_study", "all_fast")

#: Runnable but not listed in ``BENCHMARK.json``.
#:
#: ``fuzz_campaign``: the benchmark's workloads must run without failures,
#: and the fuzzer finds a real one.  On seeds 7, 8, 13, 22 and 35 (of 0-39)
#: one generated program leaves the block engine's TLB state different
#: from the interpreter's, and the engine-parity oracle reports it on
#: every cell of that program.
UNLISTED = ("fuzz_campaign",)

#: Fuzz programs per ``fuzz_campaign`` iteration: 10 programs over
#: 8 CPUs x 3 policies give 230 checked cells (10 zen x ibrs are skipped).
FUZZ_PROGRAMS = 10

#: ``all_fast`` ignores ``--seed``: ``spectresim all`` takes no seed.
SEEDLESS = frozenset({"all_fast"})

#: Workloads whose simulated instruction and ``sim.*`` counts are checked
#: only for repeating within a run, not against the recorded ones.
#: ``all_fast`` simulates some cells twice (``summary`` recomputes Figures 2
#: and 3), so a correct change that drops the repeat lowers its counts.
UNRECORDED_COUNTS = frozenset({"all_fast"})


@dataclass
class Outcome:
    """What one iteration produced.

    ``units`` maps each checked unit to the digest of its output;
    ``failures`` maps a unit to the reason the program's own output marks
    it failed (a fuzz violation, a non-finite value, a cell count that
    does not add up), before any digest comparison.
    ``cells`` is the work count behind ``cells_per_s``.
    """

    units: Dict[str, str] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    cells: int = 0


def digest(payload: Any) -> str:
    """Short content digest of a JSON-serialisable value (floats exact)."""
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _nonfinite(payload: Any) -> bool:
    if isinstance(payload, float):
        return not math.isfinite(payload)
    if isinstance(payload, dict):
        return any(_nonfinite(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return any(_nonfinite(v) for v in payload)
    return False


def _record_study(outcome: Outcome, driver: str, results: List[Any]) -> None:
    """One unit per study cell, keyed ``driver/cpu/workload``."""
    from repro.core.executor import encode_result
    from repro.core.study import DRIVER_KINDS
    kind = DRIVER_KINDS[driver]
    for result in results:
        key = f"{driver}/{result.cpu}/{result.workload}"
        encoded = encode_result(kind, result)
        outcome.units[key] = digest(encoded)
        if _nonfinite(encoded):
            outcome.failures[key] = "non-finite value in cell result"
    outcome.cells += len(results)


def _study_drivers(drivers: List[str], seed: int) -> Callable[[], Outcome]:
    from repro.core import study
    from repro.core.executor import StudyExecutor
    settings = study.Settings(seed=seed)
    functions = {
        "figure2": study.figure2,
        "vm_lebench": study.vm_lebench_overheads,
        "lfs": study.lfs_overheads,
    }

    def iteration() -> Outcome:
        outcome = Outcome()
        for driver in drivers:
            results = functions[driver](settings=settings,
                                        executor=StudyExecutor(jobs=1))
            _record_study(outcome, driver, results)
        return outcome

    return iteration


def _fuzz(seed: int) -> Callable[[], Outcome]:
    from repro.fuzz import FuzzConfig, fuzz_campaign
    config = FuzzConfig(seed=seed, programs=FUZZ_PROGRAMS, jobs=1)

    def iteration() -> Outcome:
        result = fuzz_campaign(config)
        outcome = Outcome(cells=result.cells)
        for key, verdict in result.verdict_map().items():
            if verdict == "skipped":
                continue
            outcome.units[key] = digest(verdict)
            if verdict != "ok":
                outcome.failures[key] = verdict
        return outcome

    return iteration


#: ``[executor] figure2: 8 cells: ...`` status lines on stderr.
_EXECUTOR_LINE = re.compile(r"^\[executor\] (\S+): (\d+) cells", re.M)


def _all_fast(workdir: str) -> Callable[[], Outcome]:
    from repro import cli
    outdir = os.path.join(workdir, "all-out")
    cache_dir = os.path.join(workdir, "all-cache")

    def iteration() -> Outcome:
        # A user's first run: no artifacts and an empty cell cache.
        for path in (outdir, cache_dir):
            shutil.rmtree(path, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(["--no-history", "all", "--fast", "--jobs", "2",
                           "--outdir", outdir, "--cache-dir", cache_dir])
        outcome = Outcome()
        if rc != 0:
            outcome.failures["all"] = f"spectresim all exited {rc}"
        # ``all`` writes plain-text artifacts with no provenance stamp (only
        # ``export`` stamps one), so each is digested whole.
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name)) as f:
                outcome.units[f"artifact/{name}"] = digest(f.read())
        # The pool workers' cells reach the parent only through the cell
        # cache, so every executed cell is checked from its cache entry.
        cells_root = os.path.join(cache_dir, "cells")
        for dirpath, _, files in os.walk(cells_root):
            for name in files:
                with open(os.path.join(dirpath, name)) as f:
                    record = json.load(f)
                key = "cell/" + record["key"].split("?", 1)[0]
                outcome.units[key] = digest(record["result"])
                if _nonfinite(record["result"]):
                    outcome.failures[key] = "non-finite value in cell result"
        outcome.cells = sum(1 for key in outcome.units
                            if key.startswith("cell/"))
        reported = sum(int(n) for _, n in
                       _EXECUTOR_LINE.findall(stderr.getvalue()))
        if reported != outcome.cells:
            outcome.failures["all/cells"] = (
                f"executor reported {reported} cells, cache holds "
                f"{outcome.cells}")
        return outcome

    return iteration


def prepare(name: str, seed: int, workdir: str) -> Callable[[], Outcome]:
    """Import what workload ``name`` needs and return its iteration."""
    if name == "lebench_study":
        return _study_drivers(["figure2", "vm_lebench", "lfs"], seed)
    if name == "fuzz_campaign":
        return _fuzz(seed)
    if name == "all_fast":
        return _all_fast(workdir)
    raise ValueError(f"unknown workload {name!r}; known: "
                     f"{', '.join(NAMES + UNLISTED)}")
