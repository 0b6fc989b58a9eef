"""Where the traced run wraps the program, and what it reads there.

:func:`count_instructions` is the one hook the untraced run installs: it
collects the counter file of every :class:`~repro.cpu.machine.Machine`
created in this process, and has each pool worker send home the
instructions its cells retired, so the run can read the simulated
instructions of the whole command (the numerator of ``minstr_per_s``)
without timing any call.

:class:`LayerTrace` wraps the public entry points of each module under
``src/repro`` in spans (see :mod:`perfbench.tracer`) and reads the
counters that belong at the same boundaries: ``PerfCounters`` deltas per
``Machine.run`` and replica counters per ``run_replicas``, read around
each in-process call, and the block engine's ``STATS`` as process-wide
totals less what the executor merged in from its pool workers.  Apart
from the instruction total, work done in pool workers never counts here.
"""

from __future__ import annotations

import functools
import inspect
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import spec
from .tracer import Patches, SpanTracer

RETIRED = "inst_retired.any"

#: ``sim.*`` metric -> the simulated counter it sums over Machine.run calls.
SIM_COUNTERS = (
    ("sim.l1d_misses", "l1d.misses"),
    ("sim.dtlb_misses", "dtlb.misses"),
    ("sim.stlf_forwarded", "stlf.forwarded"),
    ("sim.btb_misses", "btb.misses"),
    ("sim.verw_clears", "verw.clears"),
    ("sim.kernel_entries", "kernel.entries"),
)

ENGINE_FIELDS = ("blocks_compiled", "block_hits", "memo_hits",
                 "memo_records", "interp_fallbacks")

#: Recently returned JIT sequences kept to recognise a reused object.
REUSE_WINDOW = 4096


#: Key under which a pool worker's instruction count rides home in the
#: block-engine counters the executor already ships (``EngineStats.merge``
#: reads only its own fields).
POOL_KEY = "perfbench.instructions"


class InstructionCount:
    """Instructions retired by the machines created while installed."""

    def __init__(self) -> None:
        self.counters: List[Any] = []
        self.machines = 0
        self.pool = 0

    def in_process(self) -> int:
        return sum(c.events.get(RETIRED, 0) for c in self.counters)

    def take(self) -> Tuple[int, int]:
        """(in this process, in pool workers) since the last take."""
        taken = (self.in_process(), self.pool)
        self.counters, self.pool = [], 0
        return taken


def count_instructions(patches: Patches) -> InstructionCount:
    """Count every Machine's instructions until ``patches`` is restored.

    Pool workers are forked with the ``Machine.__init__`` hook and the
    wrapped cell entry point in place; each cell reports its machines'
    instructions through the engine counters it returns.
    """
    from repro.core import executor
    from repro.cpu.engine import EngineStats
    from repro.cpu.machine import Machine
    count = InstructionCount()
    init, worker_run_cell = Machine.__init__, executor._worker_run_cell
    merge = EngineStats.merge

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        count.counters.append(self.counters)
        count.machines += 1

    @functools.wraps(worker_run_cell)
    def _worker_run_cell(*args: Any, **kwargs: Any) -> Dict[str, Any]:
        count.counters = []  # the worker's copy of the parent's list
        payload = worker_run_cell(*args, **kwargs)
        payload["engine"] = dict(payload["engine"],
                                 **{POOL_KEY: count.in_process()})
        return payload

    def merge_pool(stats: Any, state: Dict[str, int]) -> None:
        merge(stats, state)
        count.pool += int(state.get(POOL_KEY, 0))

    patches.set(Machine, "__init__", __init__)
    # Pickled by name, so the pool submits (and the worker runs) this one.
    patches.set(executor, "_worker_run_cell", _worker_run_cell)
    patches.set(EngineStats, "merge", merge_pool)
    return count


def _public_functions(module: Any, prefix: str = "") -> List[str]:
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_") and name.startswith(prefix)]


class LayerTrace:
    """Spans and boundary counters for one traced iteration."""

    def __init__(self, tracer: Optional[SpanTracer] = None) -> None:
        self.tracer = tracer or SpanTracer()
        self.sim = dict.fromkeys([name for name, _ in SIM_COUNTERS], 0)
        self.run_instructions = 0
        self.summary_machine_runs = 0
        self._engine_start: Dict[str, int] = {}
        self._engine_merged = dict.fromkeys(ENGINE_FIELDS, 0)
        self.covered_instructions = 0
        self.samples = 0
        self.replicas = {"batched": 0, "scalar": 0}
        self.cells_executed = 0
        self.jit_reused = 0
        self._recent: "OrderedDict[int, Any]" = OrderedDict()
        self._machine_depth = 0
        self._patches = Patches()
        self.instructions: Optional[InstructionCount] = None

    # -- installation ---------------------------------------------------- #

    def install(self) -> None:
        from repro import cli
        from repro.core import (attribution, executor, microbench, probe,
                                reporting, stats, study, summary)
        from repro.cpu import engine, machine, replicas
        from repro.fuzz import generator, harness
        from repro.jsengine import jit, octane
        from repro.workloads import lebench, lfs, vm_lebench

        tracer, patches = self.tracer, self._patches
        span = tracer.wrap

        def function(module: Any, name: str, layer: str, **kw: Any) -> None:
            patches.function(module, name,
                             lambda fn: span(layer, fn, **kw))

        function(cli, "main", "cli.main")
        patches.set(executor.StudyExecutor, "run",
                    self._executor_run(executor.StudyExecutor.run))
        patches.set(executor.ResultCache, "lookup",
                    span("executor.cache.lookup", executor.ResultCache.lookup))
        patches.set(executor.ResultCache, "put",
                    span("executor.cache.put", executor.ResultCache.put))
        for driver, runner in list(study.CELL_RUNNERS.items()):
            patches.set_item(study.CELL_RUNNERS, driver, span(
                "study.cell", runner,
                cell=lambda s: f"{s.driver}/{s.cpu}/{s.workload}"))
        function(summary, "summarize", "summary.summarize")
        function(attribution, "attribute_overhead",
                 "attribution.attribute_overhead")
        patches.function(stats, "adaptive_measure", self._adaptive_measure)
        patches.function(replicas, "run_replicas", self._run_replicas)
        for name in _public_functions(microbench):
            function(microbench, name, "microbench")
        function(probe, "speculation_matrix", "probe.speculation_matrix")
        for name in _public_functions(reporting, "render_"):
            function(reporting, name, "reporting")
        function(lebench, "run_suite", "lebench.run_suite")
        function(vm_lebench, "run_suite", "vm_lebench")
        function(lfs, "run_workload", "lfs")
        function(octane, "run_suite", "octane.run_suite")
        patches.set(jit.JITCompiler, "compile_iteration",
                    self._compile_iteration(jit.JITCompiler.compile_iteration))
        patches.set(machine.Machine, "run",
                    self._machine_run(machine.Machine.run))
        patches.set(engine.BlockEngine, "run",
                    self._engine_run(engine.BlockEngine.run, engine.STATS))
        patches.set(engine.EngineStats, "merge",
                    self._engine_merge(engine.EngineStats.merge))
        self._engine_start = engine.STATS.as_dict()
        function(generator, "generate_program", "fuzz.generate_program")
        function(harness, "check_engine_parity", "fuzz.check_engine_parity")
        function(harness, "check_leakage_contract",
                 "fuzz.check_leakage_contract")
        function(harness, "check_cell", "fuzz.check_cell",
                 cell=lambda program, cpu, policy, *a, **k:
                 f"{program.name}/{cpu.key}/{policy}")
        self.instructions = count_instructions(patches)

    def restore(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # -- wrappers that read counters -------------------------------------- #

    def _executor_run(self, original: Callable) -> Callable:
        tracer = self.tracer

        def run(executor: Any, specs: Any) -> Any:
            if not tracer.active:
                return original(executor, specs)
            frame = tracer.begin("executor.run")
            try:
                return original(executor, specs)
            finally:
                tracer.end(frame)
                self.cells_executed += executor.stats.executed

        return run

    def _adaptive_measure(self, original: Callable) -> Callable:
        tracer = self.tracer

        def adaptive_measure(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer.begin("stats.adaptive_measure")
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            self.samples += result.samples
            return result

        return adaptive_measure

    def _run_replicas(self, original: Callable) -> Callable:
        from repro.cpu.replicas import STATS
        tracer = self.tracer

        def run_replicas(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            batched, scalar = STATS.batched, STATS.scalar_fallbacks
            frame = tracer.begin("replicas.run_replicas")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(frame)
                self.replicas["batched"] += STATS.batched - batched
                self.replicas["scalar"] += STATS.scalar_fallbacks - scalar

        return run_replicas

    def _compile_iteration(self, original: Callable) -> Callable:
        tracer = self.tracer
        recent = self._recent

        def compile_iteration(jit: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(jit, *args, **kwargs)
            frame = tracer.begin("jit.compile_iteration", emit=False)
            try:
                block = original(jit, *args, **kwargs)
            finally:
                tracer.end(frame)
            # Holding the recent results keeps their ids from being reused.
            key = id(block)
            if recent.get(key) is block:
                self.jit_reused += 1
                recent.move_to_end(key)
            else:
                recent[key] = block
                if len(recent) > REUSE_WINDOW:
                    recent.popitem(last=False)
            return block

        return compile_iteration

    def _machine_run(self, original: Callable) -> Callable:
        tracer = self.tracer
        keys = [(name, counter) for name, counter in SIM_COUNTERS]
        sim = self.sim

        def run(machine: Any, instructions: Any) -> int:
            if not tracer.active or self._machine_depth:
                return original(machine, instructions)
            events = machine.counters.events
            retired = events.get(RETIRED, 0)
            before = [events.get(counter, 0) for _, counter in keys]
            self._machine_depth = 1
            frame = tracer.begin("machine.run", emit=False)
            try:
                return original(machine, instructions)
            finally:
                tracer.end(frame)
                self._machine_depth = 0
                self.run_instructions += events.get(RETIRED, 0) - retired
                for (name, counter), value in zip(keys, before):
                    sim[name] += events.get(counter, 0) - value
                if tracer.is_open("summary.summarize"):
                    self.summary_machine_runs += 1

        return run

    def _engine_run(self, original: Callable, stats: Any) -> Callable:
        tracer = self.tracer

        def run(engine: Any, seq: Any) -> int:
            if not tracer.active:
                return original(engine, seq)
            events = engine.machine.counters.events
            retired = events.get(RETIRED, 0)
            fallbacks = stats.interp_fallbacks
            frame = tracer.begin("engine.run", emit=False)
            try:
                return original(engine, seq)
            finally:
                tracer.end(frame)
                if stats.interp_fallbacks == fallbacks:
                    self.covered_instructions += (events.get(RETIRED, 0)
                                                  - retired)

        return run

    def _engine_merge(self, original: Callable) -> Callable:
        merged = self._engine_merged

        def merge(stats: Any, state: Dict[str, int]) -> None:
            original(stats, state)
            for name in ENGINE_FIELDS:
                merged[name] += int(state.get(name, 0))

        return merge

    def engine_counts(self) -> Dict[str, int]:
        """Block-engine ``STATS`` moved by this process since install."""
        from repro.cpu.engine import STATS
        return {name: (getattr(STATS, name) - self._engine_start[name]
                       - self._engine_merged[name])
                for name in ENGINE_FIELDS}

    # -- metrics ---------------------------------------------------------- #

    def metrics(self, workload: str, traced_wall_s: float,
                untraced_wall_s: float, instructions: int, import_s: float
                ) -> Dict[str, Optional[float]]:
        """Every per-layer metric of ``workload``; ``None`` marks a layer
        that never ran in this process.  ``import_s`` is timed outside it,
        in fresh interpreters."""
        tracer = self.tracer
        calls = tracer.calls
        machines = self.instructions.machines if self.instructions else 0
        run_time = tracer.total_s.get("machine.run", 0.0)
        engine = self.engine_counts()
        memo_attempts = engine["memo_hits"] + engine["memo_records"]
        jit_calls = calls.get("jit.compile_iteration", 0)
        values: Dict[str, Any] = {
            "cli.import_s": import_s,
            "executor.run.calls": calls.get("executor.run", 0),
            "executor.cells_executed": self.cells_executed,
            "summary.summarize.s": tracer.total_s.get("summary.summarize", 0.0),
            "summary.machine_runs": self.summary_machine_runs,
            "stats.adaptive_measure.calls": calls.get("stats.adaptive_measure",
                                                      0),
            "stats.samples": self.samples,
            "replicas.run_replicas.calls": calls.get("replicas.run_replicas",
                                                     0),
            "replicas.batched": self.replicas["batched"],
            "replicas.scalar": self.replicas["scalar"],
            "jit.compile_iteration.calls": jit_calls,
            "jit.reuse_ratio": (self.jit_reused / jit_calls
                                if jit_calls else None),
            "machine.created": machines,
            "machine.run.calls": calls.get("machine.run", 0),
            "machine.instructions": instructions,
            "machine.run.instructions": self.run_instructions,
            "machine.run.ns_per_instr": (1e9 * run_time / self.run_instructions
                                         if self.run_instructions else None),
            "engine.memo_attempts": memo_attempts,
            "engine.memo_hit_ratio": (engine["memo_hits"] / memo_attempts
                                      if memo_attempts else None),
            "engine.covered_instructions": self.covered_instructions,
            "engine.instr_coverage": (self.covered_instructions / instructions
                                      if instructions else None),
            "bench.traced_wall_s": traced_wall_s,
            "bench.unattributed_s": traced_wall_s - sum(tracer.self_s.values()),
            "bench.trace_overhead": traced_wall_s / untraced_wall_s - 1.0,
        }
        values.update(self.sim)
        values.update({f"engine.{name}": count
                       for name, count in engine.items()})
        for span_name, metric in spec.self_time_metrics().items():
            values[metric] = tracer.self_s.get(span_name, 0.0)
        out: Dict[str, Optional[float]] = {}
        for metric in spec.per_layer(workload):
            present = (metric.span is None or calls.get(metric.span, 0) > 0
                       or (metric.span == "machine.init" and machines > 0))
            out[metric.name] = values[metric.name] if present else None
        return out
