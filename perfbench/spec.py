"""What the benchmark measures: workloads, metrics and their expected links.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/record.py benchmark-json``); a test keeps the two in
step.  The file's format has no room for the prediction the choosing-
metrics method asks for, so each per-layer metric's ``moves`` — which
end-to-end metric on which workload it should move — lives here, next to
its definition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
#: --trace <0|1>`` from the repository root.
COMMAND = ("python3", "perfbench/run.py")
PATHS = ("perfbench",)
RUN_SECONDS = 40

#: Metric and workload names: what ``BENCHMARK.json`` accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Listed workloads and why each was chosen (one line each).
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("lebench_study",
     "Figure 2 plus the VM LEBench and LFS drivers at full size: kernel "
     "crossings served by engine memo replay, so kernel and memo-cache "
     "changes show here"),
    ("all_fast",
     "spectresim all --fast --jobs 2 from an empty cache: CLI, cell cache, "
     "process pool, tables, probe, reporting and summary, whose in-process "
     "Figure 3 also exercises the JIT"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: the bound.  Per-layer: unused.
    bound: Optional[float] = None
    #: Per-layer: the span whose in-process calls make the metric present.
    span: Optional[str] = None
    #: Per-layer: (end-to-end metric, workload) pairs it should move.
    moves: Tuple[Tuple[str, str], ...] = ()
    #: Per-layer: the listed workloads on which the layer runs in this
    #: process, when it does not on all of them.
    only: Tuple[str, ...] = ()


END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cells_per_s", "1/s", "higher", 0.25),
    Metric("minstr_per_s", "M/s", "higher", 0.25),
    # Set-up is mostly ``import repro.cli`` (about a second), which on a
    # shared 2-vCPU host varies from run to run by about as much as the
    # largest bound.  ``setup_s`` carries that bound, and only its median
    # over many runs is held to it, not its run-to-run spread; the import
    # alone is therefore reported per layer (``cli.import_s``), not as a
    # second end-to-end metric whose spread would be held to its bound.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    # ``error_rate`` is 0 at the seed commit, and a metric whose median is
    # 0 cannot carry a relative bound; its complement can.
    Metric("pass_rate", "ratio", "higher", 0.001),
)

_STUDIES = (("wall_s", "lebench_study"), ("wall_s", "all_fast"))
_ALL = (("wall_s", "all_fast"),)
#: The JIT runs in-process in ``all_fast``, whose summary recomputes
#: Figure 3.
_JIT = (("wall_s", "all_fast"), ("minstr_per_s", "all_fast"))
_MIPS = tuple(("minstr_per_s", w) for w, _ in WORKLOADS)


def _layer(name: str, unit: str, better: str, span: Optional[str],
           moves: Tuple[Tuple[str, str], ...] = (),
           only: Tuple[str, ...] = ()) -> Metric:
    return Metric(name, unit, better, span=span, moves=moves, only=only)


_ON_ALL = ("all_fast",)
_ON_LEBENCH = ("lebench_study",)


PER_LAYER: Tuple[Metric, ...] = (
    _layer("cli.import_s", "s", "lower", None,
           tuple(("setup_s", w) for w, _ in WORKLOADS)),
    _layer("cli.main.self_s", "s", "lower", "cli.main", _ALL, only=_ON_ALL),
    _layer("executor.run.calls", "count", "lower", "executor.run", _ALL),
    _layer("executor.run.self_s", "s", "lower", "executor.run", _ALL),
    _layer("executor.cache.lookup_s", "s", "lower", "executor.cache.lookup",
           _ALL, only=_ON_ALL),
    _layer("executor.cache.put_s", "s", "lower", "executor.cache.put", _ALL,
           only=_ON_ALL),
    _layer("executor.cells_executed", "count", "lower", "executor.run", _ALL),
    _layer("study.cell.self_s", "s", "lower", "study.cell", _STUDIES),
    _layer("summary.summarize.s", "s", "lower", "summary.summarize", _ALL,
           only=_ON_ALL),
    _layer("summary.summarize.self_s", "s", "lower", "summary.summarize",
           _ALL, only=_ON_ALL),
    _layer("summary.machine_runs", "count", "lower", "summary.summarize",
           _ALL, only=_ON_ALL),
    _layer("attribution.attribute_overhead.self_s", "s", "lower",
           "attribution.attribute_overhead", _STUDIES),
    _layer("stats.adaptive_measure.calls", "count", "lower",
           "stats.adaptive_measure", _STUDIES),
    _layer("stats.adaptive_measure.self_s", "s", "lower",
           "stats.adaptive_measure", _STUDIES),
    _layer("stats.samples", "count", "lower", "stats.adaptive_measure",
           _STUDIES),
    _layer("replicas.run_replicas.calls", "count", "lower",
           "replicas.run_replicas", _STUDIES),
    _layer("replicas.run_replicas.self_s", "s", "lower",
           "replicas.run_replicas", _STUDIES),
    _layer("replicas.batched", "count", "higher", "replicas.run_replicas",
           _STUDIES),
    _layer("replicas.scalar", "count", "lower", "replicas.run_replicas",
           _STUDIES),
    _layer("microbench.self_s", "s", "lower", "microbench", _ALL,
           only=_ON_ALL),
    _layer("probe.speculation_matrix.self_s", "s", "lower",
           "probe.speculation_matrix", _ALL, only=_ON_ALL),
    _layer("reporting.self_s", "s", "lower", "reporting", _ALL,
           only=_ON_ALL),
    _layer("lebench.run_suite.self_s", "s", "lower", "lebench.run_suite",
           (("wall_s", "lebench_study"),)),
    _layer("vm_lebench.self_s", "s", "lower", "vm_lebench",
           (("wall_s", "lebench_study"),), only=_ON_LEBENCH),
    _layer("lfs.self_s", "s", "lower", "lfs", (("wall_s", "lebench_study"),),
           only=_ON_LEBENCH),
    _layer("octane.run_suite.self_s", "s", "lower", "octane.run_suite", _JIT,
           only=_ON_ALL),
    _layer("jit.compile_iteration.calls", "count", "lower",
           "jit.compile_iteration", _JIT, only=_ON_ALL),
    _layer("jit.compile_iteration.self_s", "s", "lower",
           "jit.compile_iteration", _JIT, only=_ON_ALL),
    _layer("jit.reuse_ratio", "ratio", "higher", "jit.compile_iteration",
           _JIT, only=_ON_ALL),
    _layer("machine.created", "count", "lower", "machine.init", _MIPS),
    _layer("machine.run.calls", "count", "lower", "machine.run", _MIPS),
    _layer("machine.run.self_s", "s", "lower", "machine.run", _MIPS),
    _layer("machine.instructions", "count", "lower", "machine.init", ()),
    _layer("machine.run.instructions", "count", "lower", "machine.run", ()),
    _layer("machine.run.ns_per_instr", "ns", "lower", "machine.run", _MIPS),
    _layer("engine.run.self_s", "s", "lower", "engine.run", _MIPS),
    _layer("engine.blocks_compiled", "count", "lower", "engine.run",
           _STUDIES),
    _layer("engine.block_hits", "count", "higher", "engine.run", _STUDIES),
    _layer("engine.memo_hits", "count", "higher", "engine.run",
           (("wall_s", "lebench_study"),)),
    _layer("engine.memo_records", "count", "lower", "engine.run",
           (("wall_s", "lebench_study"),)),
    _layer("engine.interp_fallbacks", "count", "lower", "engine.run", _JIT),
    _layer("engine.memo_attempts", "count", "lower", "engine.run",
           (("wall_s", "lebench_study"),)),
    _layer("engine.memo_hit_ratio", "ratio", "higher", "engine.run",
           (("wall_s", "lebench_study"),)),
    _layer("engine.covered_instructions", "count", "higher", "engine.run",
           _JIT),
    _layer("engine.instr_coverage", "ratio", "higher", "engine.run", _JIT),
    # Simulated statistics: a change meant only to speed up the host must
    # not move them, so they predict no end-to-end change.
    _layer("sim.l1d_misses", "count", "lower", "machine.run"),
    _layer("sim.dtlb_misses", "count", "lower", "machine.run"),
    _layer("sim.stlf_forwarded", "count", "lower", "machine.run"),
    _layer("sim.btb_misses", "count", "lower", "machine.run"),
    _layer("sim.verw_clears", "count", "lower", "machine.run"),
    _layer("sim.kernel_entries", "count", "lower", "machine.run"),
    _layer("bench.traced_wall_s", "s", "lower", None),
    _layer("bench.unattributed_s", "s", "lower", None),
    _layer("bench.trace_overhead", "ratio", "lower", None),
)

#: Layers of the fuzz campaign.  ``fuzz_campaign`` is runnable but not
#: listed in ``BENCHMARK.json`` (see ``workloads.UNLISTED``), so these are
#: reported only when it runs.
FUZZ_LAYER: Tuple[Metric, ...] = (
    _layer("fuzz.generate_program.self_s", "s", "lower",
           "fuzz.generate_program", (("cells_per_s", "fuzz_campaign"),)),
    _layer("fuzz.check_engine_parity.self_s", "s", "lower",
           "fuzz.check_engine_parity", (("cells_per_s", "fuzz_campaign"),)),
    _layer("fuzz.check_leakage_contract.self_s", "s", "lower",
           "fuzz.check_leakage_contract",
           (("cells_per_s", "fuzz_campaign"),)),
    _layer("fuzz.check_cell.self_s", "s", "lower", "fuzz.check_cell",
           (("cells_per_s", "fuzz_campaign"),)),
)


#: The per-layer metrics that ``BENCHMARK.json`` lists: those of layers
#: that run in this process on every listed workload, so that each traced
#: run's result line holds a number for every one.  The others are
#: reported on the run line before it.
LISTED_LAYER: Tuple[Metric, ...] = tuple(m for m in PER_LAYER
                                         if not m.only)


def per_layer(workload: str) -> Tuple[Metric, ...]:
    """The per-layer metrics a traced run of ``workload`` reports."""
    if workload == "fuzz_campaign":
        return PER_LAYER + FUZZ_LAYER
    return PER_LAYER


def self_time_metrics() -> Dict[str, str]:
    """Span name -> the metric reporting its self time (every span has
    one, so self times plus ``bench.unattributed_s`` make the traced wall
    time)."""
    out = {}
    for metric in PER_LAYER + FUZZ_LAYER:
        if metric.name.endswith("self_s") or metric.name in (
                "executor.cache.lookup_s", "executor.cache.put_s"):
            out[metric.span] = metric.name
    return out


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LISTED_LAYER],
    }


def all_names() -> List[str]:
    return ([name for name, _ in WORKLOADS]
            + [m.name for m in END_TO_END + PER_LAYER + FUZZ_LAYER])
