"""Parallel study execution engine with a persistent result cache.

Every figure/table driver in :mod:`~repro.core.study` sweeps a grid of
independent (cpu, config, workload, settings) **cells** — exactly the
shape the paper's own measurement campaign has (eight machines, many
boot-parameter configurations, several suites, all measured separately).
This module turns that grid into explicit work items and executes them:

* :class:`CellSpec` names one cell as a hashable, picklable spec;
* per-cell seeds derive from the spec path via
  :func:`~repro.core.stats.derive_seed`, so every cell consumes its own
  noise stream and parallel results are **bit-identical** to serial ones
  regardless of scheduling;
* :class:`StudyExecutor` fans cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) or runs
  them inline (``jobs == 1`` — the serial path is the same code);
* completed cells are memoized in a content-addressed on-disk cache
  keyed by the spec plus the package version *and* a source fingerprint
  (:func:`~repro.obs.provenance.code_fingerprint`), so re-runs skip
  finished work and stale caches can never survive a code change;
* progress checkpoints to disk after every cell, so an interrupted
  ``spectresim figure 2`` resumes (``--resume``) instead of restarting;
* worker-side span/metric collection is serialized back to the parent
  tracer (:meth:`~repro.obs.spans.SpanTracer.absorb`), keeping ``--trace``
  and ``profile`` output whole across process boundaries.

See ``docs/parallelism.md`` for the cache key anatomy and the
determinism guarantees.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cpu import engine as blockengine
from ..cpu import replicas as replicabatch
from ..errors import ExecutorError
from ..obs import leakage as obs_leakage
from ..obs import timeline as obs_timeline
from ..obs.progress import ProgressLine
from ..obs import ledger as obs_ledger
from ..obs import spans as obs_spans
from ..obs.metrics import MetricsRegistry
from ..obs.provenance import code_fingerprint
from .attribution import AttributionResult, Contribution
from .stats import Measurement, derive_seed

#: Result kinds a driver can produce (see ``study.DRIVER_KINDS``).
ATTRIBUTION = "attribution"
PAIRED = "paired"


def default_cache_dir() -> str:
    """``$SPECTRESIM_CACHE_DIR`` or ``~/.cache/spectresim``."""
    return (os.environ.get("SPECTRESIM_CACHE_DIR")
            or os.path.join(os.path.expanduser("~"), ".cache", "spectresim"))


def cache_version() -> str:
    """The code/config version component of every cache key."""
    from .. import __version__
    return f"{__version__}+{code_fingerprint()}"


# --------------------------------------------------------------------------- #
# Cell specs
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CellSpec:
    """One independent cell of a study sweep grid.

    Hashable and picklable: ``settings`` is the frozen
    :class:`~repro.core.study.Settings` dataclass and ``params`` a sorted
    tuple of extra key/value pairs.  The spec is the *complete* input of
    the cell — two equal specs must produce bit-identical results, which
    is what makes the on-disk cache sound.
    """

    driver: str                    # e.g. "figure2"
    cpu: str                       # CPU model key
    workload: str                  # suite or workload name
    settings: Any                  # core.study.Settings (frozen dataclass)
    params: Tuple[Tuple[str, Any], ...] = ()

    def key(self) -> str:
        """Canonical human-readable identity of the cell."""
        settings = json.dumps(dataclasses.asdict(self.settings),
                              sort_keys=True)
        params = json.dumps(list(self.params), sort_keys=True)
        return (f"{self.driver}/{self.cpu}/{self.workload}"
                f"?params={params}&settings={settings}")

    def digest(self) -> str:
        """Content address: spec key + code/config version."""
        material = f"{self.key()}@{cache_version()}"
        return hashlib.sha256(material.encode()).hexdigest()

    def seed(self) -> int:
        """The cell's private noise seed (stable across processes)."""
        parts = [self.driver, self.cpu, self.workload]
        parts.extend(f"{name}={value}" for name, value in self.params)
        return derive_seed(self.settings.seed, *parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "driver": self.driver,
            "cpu": self.cpu,
            "workload": self.workload,
            "settings": dataclasses.asdict(self.settings),
            "params": [list(pair) for pair in self.params],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellSpec":
        from .study import Settings
        return cls(
            driver=data["driver"],
            cpu=data["cpu"],
            workload=data["workload"],
            settings=Settings(**data["settings"]),
            params=tuple(tuple(pair) for pair in data["params"]),
        )


# --------------------------------------------------------------------------- #
# Result codecs (JSON round-trips are bit-exact for floats)
# --------------------------------------------------------------------------- #

def _measurement_to_dict(m: Measurement) -> Dict[str, Any]:
    return {"mean": m.mean, "ci_half_width": m.ci_half_width,
            "samples": m.samples}


def _measurement_from_dict(data: Dict[str, Any]) -> Measurement:
    return Measurement(mean=data["mean"],
                       ci_half_width=data["ci_half_width"],
                       samples=data["samples"])


def encode_result(kind: str, result: Any) -> Dict[str, Any]:
    """A driver result as plain JSON types, losslessly."""
    if kind == ATTRIBUTION:
        return {
            "cpu": result.cpu,
            "workload": result.workload,
            "metric": result.metric,
            "baseline": _measurement_to_dict(result.baseline),
            "default": _measurement_to_dict(result.default),
            "other_percent": result.other_percent,
            "contributions": [
                {
                    "knob": c.knob,
                    "boot_param": c.boot_param,
                    "percent": c.percent,
                    "with_knob": _measurement_to_dict(c.with_knob),
                    "without_knob": _measurement_to_dict(c.without_knob),
                }
                for c in result.contributions
            ],
        }
    if kind == PAIRED:
        return {
            "cpu": result.cpu,
            "workload": result.workload,
            "baseline": _measurement_to_dict(result.baseline),
            "treated": _measurement_to_dict(result.treated),
            "overhead_percent": result.overhead_percent,
        }
    raise ValueError(f"unknown result kind {kind!r}")


def decode_result(kind: str, data: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    if kind == ATTRIBUTION:
        return AttributionResult(
            cpu=data["cpu"],
            workload=data["workload"],
            metric=data["metric"],
            baseline=_measurement_from_dict(data["baseline"]),
            default=_measurement_from_dict(data["default"]),
            other_percent=data["other_percent"],
            contributions=[
                Contribution(
                    knob=c["knob"],
                    boot_param=c["boot_param"],
                    percent=c["percent"],
                    with_knob=_measurement_from_dict(c["with_knob"]),
                    without_knob=_measurement_from_dict(c["without_knob"]),
                )
                for c in data["contributions"]
            ],
        )
    if kind == PAIRED:
        from .study import PairedOverhead
        return PairedOverhead(
            cpu=data["cpu"],
            workload=data["workload"],
            baseline=_measurement_from_dict(data["baseline"]),
            treated=_measurement_from_dict(data["treated"]),
            overhead_percent=data["overhead_percent"],
        )
    raise ValueError(f"unknown result kind {kind!r}")


# --------------------------------------------------------------------------- #
# On-disk cache + run checkpoints
# --------------------------------------------------------------------------- #

def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ResultCache:
    """Content-addressed memoization of completed cells.

    One JSON blob per cell under ``<dir>/cells/``, addressed by
    :meth:`CellSpec.digest` — which bakes in the package version and
    source fingerprint, so a cache can be long-lived: entries written by
    different code are simply never found.  Each blob also stores the
    full spec key and is verified on read against hash collisions and
    hand-edited files.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    #: Lookup outcomes (cache effectiveness telemetry).
    HIT = "hit"
    MISS = "miss"
    STALE = "stale"

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, "cells", digest[:2], digest + ".json")

    def lookup(self, spec: CellSpec, kind: str) -> Tuple[Optional[Any], str]:
        """(result, outcome): outcome distinguishes a plain miss (no entry
        on disk) from a *stale* entry — a blob that exists at the cell's
        address but fails key/kind verification (hash collision, result
        kind change, or a hand-edited file)."""
        path = self._path(spec.digest())
        try:
            with open(path) as f:
                record = json.load(f)
        except OSError:
            return None, self.MISS
        except ValueError:
            return None, self.STALE
        if record.get("key") != spec.key() or record.get("kind") != kind:
            return None, self.STALE
        return decode_result(kind, record["result"]), self.HIT

    def get(self, spec: CellSpec, kind: str) -> Optional[Any]:
        return self.lookup(spec, kind)[0]

    def put(self, spec: CellSpec, kind: str, result: Any) -> None:
        _atomic_write_json(self._path(spec.digest()), {
            "key": spec.key(),
            "kind": kind,
            "version": cache_version(),
            "result": encode_result(kind, result),
        })


class RunCheckpoint:
    """Progress journal for one enumerated run.

    Identified by the digest of the run's full cell list; stores each
    completed cell's encoded result inline, so resuming works even if the
    cell cache is disabled or swept.  Updated atomically after every
    cell; deleted once the run completes.
    """

    def __init__(self, root: str, specs: Sequence[CellSpec]) -> None:
        material = "\n".join(spec.digest() for spec in specs)
        self.run_digest = hashlib.sha256(material.encode()).hexdigest()
        self.path = os.path.join(root, "checkpoints",
                                 self.run_digest + ".json")
        self._completed: Dict[str, Dict[str, Any]] = {}

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Previously completed cells (digest -> encoded result)."""
        try:
            with open(self.path) as f:
                record = json.load(f)
        except (OSError, ValueError):
            return {}
        if record.get("run") != self.run_digest:
            return {}
        self._completed = dict(record.get("completed", {}))
        return dict(self._completed)

    def record(self, spec: CellSpec, kind: str, result: Any) -> None:
        self._completed[spec.digest()] = {
            "kind": kind, "result": encode_result(kind, result)}
        _atomic_write_json(self.path, {
            "run": self.run_digest,
            "completed": self._completed,
        })

    def discard(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #

@dataclass
class RunStats:
    """What one :meth:`StudyExecutor.run` actually did."""

    total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale: int = 0
    resumed: int = 0
    executed: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    replicas: int = 0

    def summary(self) -> str:
        return (f"{self.total} cells: {self.cache_hits} cache hits, "
                f"{self.resumed} resumed, {self.executed} executed "
                f"(jobs={self.jobs}, {self.cache_misses} misses, "
                f"{self.cache_stale} stale, {self.replicas} replicas, "
                f"{self.wall_s:.2f}s)")

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def absorb(self, other: "RunStats") -> None:
        """Fold another run's counters in (multi-driver accumulation).

        :meth:`StudyExecutor.run` resets ``stats`` per call, so callers
        sweeping several drivers through one executor (``bench``) absorb
        after each run to get whole-campaign totals.
        """
        self.total += other.total
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_stale += other.cache_stale
        self.resumed += other.resumed
        self.executed += other.executed
        self.jobs = max(self.jobs, other.jobs)
        self.wall_s += other.wall_s
        self.replicas += other.replicas

    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (resumed cells excluded)."""
        looked = self.cache_hits + self.cache_misses + self.cache_stale
        return self.cache_hits / looked if looked else 0.0

    def replicas_per_s(self) -> float:
        """Replica throughput of the run (the grid's wall-clock floor)."""
        return self.replicas / self.wall_s if self.wall_s > 0 else 0.0


def _worker_run_cell(spec_dict: Dict[str, Any], collect_obs: bool,
                     collect_ledger: bool = False,
                     engine_mode: Optional[str] = None,
                     collect_leakage: bool = False,
                     collect_timeline: bool = False) -> Dict[str, Any]:
    """Process-pool entry point: run one cell, return result + telemetry.

    Top-level (picklable) and import-light: the heavy imports happen in
    the worker.  When the parent is tracing, the worker runs under its
    own :class:`~repro.obs.spans.SpanTracer` and ships the serialized
    timeline home for :meth:`~repro.obs.spans.SpanTracer.absorb`; when
    the parent has a cycle ledger installed, the worker likewise runs
    under its own :class:`~repro.obs.ledger.CycleLedger`, verifies the
    sum-to-TSC invariant for the cell, and ships the entries home for
    :meth:`~repro.obs.ledger.CycleLedger.merge_state`.

    ``engine_mode`` propagates the parent's ``--engine`` selection so a
    pool worker simulates with the same execution engine; the worker's
    block-engine counters for this cell are shipped home and merged into
    the parent's :data:`~repro.cpu.engine.STATS`.

    ``collect_leakage`` mirrors the ledger transport for the leakage
    tracer: the worker runs under its own
    :class:`~repro.obs.leakage.LeakageTracer` and ships ``state()`` home
    for :meth:`~repro.obs.leakage.LeakageTracer.merge_state`.

    ``collect_timeline`` does the same for the microarchitectural event
    timeline: the worker records into its own
    :class:`~repro.obs.timeline.EventTimeline` and ships ``state()``
    home for :meth:`~repro.obs.timeline.EventTimeline.merge_state`
    (the parent's ring bound still applies after the merge).
    """
    from . import study
    if engine_mode is not None:
        blockengine.set_default_engine(engine_mode)
    blockengine.STATS.reset()  # per-cell delta (workers run many cells)
    replicabatch.STATS.reset()
    spec = CellSpec.from_dict(spec_dict)
    runner = study.CELL_RUNNERS[spec.driver]
    kind = study.DRIVER_KINDS[spec.driver]
    obs_payload = None
    ledger_payload = None
    leakage_payload = None
    timeline_payload = None
    ledger = obs_ledger.CycleLedger() if collect_ledger else None
    leakage = obs_leakage.LeakageTracer() if collect_leakage else None
    timeline = (obs_timeline.EventTimeline(capacity=None)
                if collect_timeline else None)
    with obs_timeline.use_timeline(timeline):
        with obs_leakage.use_leakage(leakage):
            with obs_ledger.use_ledger(ledger):
                if collect_obs:
                    tracer = obs_spans.SpanTracer()
                    with obs_spans.use_tracer(tracer):
                        result = runner(spec)
                    obs_payload = tracer.to_payload()
                else:
                    result = runner(spec)
    if ledger is not None:
        ledger.verify()  # per-cell invariant, enforced worker-side
        ledger_payload = ledger.state()
    if leakage is not None:
        leakage_payload = leakage.state()
    if timeline is not None:
        timeline_payload = timeline.state()
    return {"result": encode_result(kind, result), "obs": obs_payload,
            "ledger": ledger_payload, "leakage": leakage_payload,
            "timeline": timeline_payload,
            "engine": blockengine.STATS.as_dict(),
            "replicas": replicabatch.STATS.as_dict()}


class StudyExecutor:
    """Executes study cells: in-process, across a process pool, or not at
    all (cache/checkpoint hits).

    ``jobs=1`` (the default, and what the plain :func:`~repro.core.study`
    drivers use) runs cells inline under the caller's tracer — the
    *serial path* — while ``jobs>1`` fans out over processes.  Both paths
    run the identical per-cell code with the identical per-cell seeds, so
    the assembled results are bit-identical; only wall-clock differs.

    ``cache_dir=None`` (the library default) disables all persistence;
    the CLI turns it on by default.  ``resume=True`` additionally replays
    a matching run checkpoint before consulting the cell cache.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 resume: bool = False,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.resume = resume
        self.stats = RunStats(jobs=jobs)
        self._metrics = metrics
        self._own_metrics = MetricsRegistry()

    # -- wiring ----------------------------------------------------------- #

    @property
    def metrics(self) -> MetricsRegistry:
        """Where executor counters land: an explicit registry if one was
        given, else the installed tracer's, else a private one."""
        if self._metrics is not None:
            return self._metrics
        tracer = obs_spans.current_tracer()
        if getattr(tracer, "enabled", False):
            return tracer.metrics
        return self._own_metrics

    def _count(self, event: str, amount: int = 1) -> None:
        self.metrics.counter(f"executor.cells.{event}").inc(amount)

    # -- execution --------------------------------------------------------- #

    def run(self, specs: Sequence[CellSpec]) -> List[Any]:
        """Execute ``specs``, returning results in enumeration order.

        Completion order never leaks into the output: results are
        assembled by spec index, which is what keeps parallel output
        byte-identical to serial.
        """
        from . import study
        started = time.perf_counter()
        replicas_before = replicabatch.STATS.replicas
        self.stats = RunStats(total=len(specs), jobs=self.jobs)
        self._count("scheduled", len(specs))

        cache = ResultCache(self.cache_dir) if self.cache_dir else None
        checkpoint = (RunCheckpoint(self.cache_dir, specs)
                      if self.cache_dir else None)
        resumed: Dict[str, Dict[str, Any]] = {}
        if checkpoint is not None and self.resume:
            resumed = checkpoint.load()

        # TTY-gated live line on stderr; a no-op in CI and pipes, so the
        # stderr the parallel-smoke gates grep stays byte-identical.
        meter = ProgressLine(len(specs), label="cells")
        results: Dict[int, Any] = {}
        pending: List[Tuple[int, CellSpec]] = []
        for index, spec in enumerate(specs):
            kind = study.DRIVER_KINDS[spec.driver]
            record = resumed.get(spec.digest())
            if record is not None and record.get("kind") == kind:
                results[index] = decode_result(kind, record["result"])
                self.stats.resumed += 1
                self._count("resumed")
                continue
            if cache is not None:
                hit, outcome = cache.lookup(spec, kind)
                if outcome == ResultCache.HIT:
                    results[index] = hit
                    self.stats.cache_hits += 1
                    self._count("cache_hit")
                    if checkpoint is not None:
                        checkpoint.record(spec, kind, hit)
                    continue
                if outcome == ResultCache.STALE:
                    self.stats.cache_stale += 1
                    self._count("cache_stale")
                else:
                    self.stats.cache_misses += 1
                    self._count("cache_miss")
            pending.append((index, spec))
        meter.update(len(results))  # cache/checkpoint hits count as done

        def record_completion(index: int, spec: CellSpec, result: Any) -> None:
            kind = study.DRIVER_KINDS[spec.driver]
            results[index] = result
            self.stats.executed += 1
            self._count("executed")
            if cache is not None:
                cache.put(spec, kind, result)
            if checkpoint is not None:
                checkpoint.record(spec, kind, result)
            meter.update(len(results))

        try:
            if self.jobs == 1 or len(pending) <= 1:
                for index, spec in pending:
                    record_completion(index, spec, self._run_inline(spec))
            else:
                self._run_pool(pending, record_completion)
        finally:
            meter.close()

        if checkpoint is not None and len(results) == len(specs):
            checkpoint.discard()
        self.stats.wall_s = time.perf_counter() - started
        # Replica-tier delta for this run: inline cells accumulate into
        # the process counters directly; pool workers ship their per-cell
        # counters home (merged in _run_pool), so both paths land here.
        self.stats.replicas = replicabatch.STATS.replicas - replicas_before
        return [results[index] for index in range(len(specs))]

    def telemetry(self) -> Dict[str, Any]:
        """The last run's counters plus derived rates, for history rows."""
        out = self.stats.as_dict()
        out["cache_hit_rate"] = self.stats.cache_hit_rate()
        out["replicas_per_s"] = self.stats.replicas_per_s()
        return out

    def _run_inline(self, spec: CellSpec) -> Any:
        """The serial path: the cell runs under the caller's tracer."""
        from . import study
        runner = study.CELL_RUNNERS[spec.driver]
        try:
            return runner(spec)
        except Exception as exc:
            raise ExecutorError(f"cell {spec.key()} failed: {exc}") from exc

    def _run_pool(self, pending: Sequence[Tuple[int, CellSpec]],
                  record_completion: Any) -> None:
        tracer = obs_spans.current_tracer()
        collect_obs = bool(getattr(tracer, "enabled", False))
        ledger = obs_ledger.current_ledger()
        leakage = obs_leakage.current_leakage()
        timeline = obs_timeline.current_timeline()
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_worker_run_cell, spec.to_dict(), collect_obs,
                            ledger is not None,
                            blockengine.default_engine(),
                            leakage is not None,
                            timeline is not None):
                    (index, spec)
                for index, spec in pending
            }
            for future in as_completed(futures):
                index, spec = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:
                    raise ExecutorError(
                        f"cell {spec.key()} failed: {exc}") from exc
                from . import study
                kind = study.DRIVER_KINDS[spec.driver]
                if collect_obs and payload["obs"] is not None:
                    tracer.absorb(payload["obs"])
                if ledger is not None and payload.get("ledger") is not None:
                    ledger.merge_state(payload["ledger"])
                if leakage is not None and payload.get("leakage") is not None:
                    leakage.merge_state(payload["leakage"])
                if timeline is not None and payload.get("timeline") is not None:
                    timeline.merge_state(payload["timeline"])
                if payload.get("engine") is not None:
                    blockengine.STATS.merge(payload["engine"])
                if payload.get("replicas") is not None:
                    replicabatch.STATS.merge(payload["replicas"])
                record_completion(index, spec,
                                  decode_result(kind, payload["result"]))
