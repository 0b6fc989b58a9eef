"""Tests of the benchmark's own logic (run: pytest perfbench/tests)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import checks, spec, workloads
from perfbench.layers import LayerTrace, count_instructions
from perfbench.tracer import Patches, SpanTracer, chrome_trace
from perfbench.workloads import Outcome

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_and_recursive_children() -> None:
    clock = FakeClock()
    tracer = SpanTracer(clock)
    a = tracer.begin("a")              # a: 0..10
    clock.now = 1.0
    b_outer = tracer.begin("b")        # b: 1..4
    clock.now = 2.0
    b_inner = tracer.begin("b")        # b (recursive): 2..3
    clock.now = 3.0
    tracer.end(b_inner)
    clock.now = 4.0
    tracer.end(b_outer)
    clock.now = 5.0
    hot = tracer.begin("c", emit=False)  # c (hot, unrecorded): 5..9
    clock.now = 9.0
    tracer.end(hot)
    clock.now = 10.0
    tracer.end(a)

    assert tracer.self_s == {"a": 3.0, "b": 3.0, "c": 4.0}
    # A recursive layer's total counts its outermost span only.
    assert tracer.total_s == {"a": 10.0, "b": 3.0, "c": 4.0}
    assert tracer.calls == {"a": 1, "b": 2, "c": 1}
    assert sum(tracer.self_s.values()) == 10.0
    # The hot span keeps no record; the recorded ones link to parents.
    recorded = {(name, start): (span_id, parent)
                for name, start, _, _, span_id, parent, _ in tracer.spans}
    assert set(recorded) == {("a", 0.0), ("b", 1.0), ("b", 2.0)}
    a_id = recorded[("a", 0.0)][0]
    assert recorded[("b", 1.0)][1] == a_id
    assert recorded[("b", 2.0)][1] == recorded[("b", 1.0)][0]


def test_children_of_a_hot_span_link_to_its_recorded_parent() -> None:
    tracer = SpanTracer(FakeClock())
    root = tracer.begin("root", cell="cell-1")
    hot = tracer.begin("hot", emit=False)
    leaf = tracer.begin("leaf")
    for frame in (leaf, hot, root):
        tracer.end(frame)
    spans = {s[0]: s for s in tracer.spans}
    assert spans["leaf"][5] == spans["root"][4]
    assert spans["leaf"][6] == "cell-1"  # inherited through the hot span


def test_spans_must_end_in_order() -> None:
    tracer = SpanTracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_chrome_trace_carries_ids_and_loads_as_json() -> None:
    tracer = SpanTracer()

    def leaf(x: int) -> int:
        return x + 1

    def cell(x: int) -> int:
        return wrapped_leaf(x) * 2

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_cell = tracer.wrap("cell", cell, cell=lambda x: f"cell-{x}")
    assert wrapped_cell(1) == 4
    trace = json.loads(json.dumps(chrome_trace(tracer, {"k": 1})))
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_name = {e["name"]: e for e in spans}
    assert by_name["leaf"]["args"]["cell"] == "cell-1"
    assert (by_name["leaf"]["args"]["parent_id"]
            == by_name["cell"]["args"]["span_id"])
    assert trace["otherData"] == {"k": 1}


def _outcome(units, failures=None) -> Outcome:
    return Outcome(units=dict(units), failures=dict(failures or {}), cells=1)


def test_matching_outputs_pass() -> None:
    checker = checks.Checker({"units": {"a": "1", "b": "2"},
                              "instructions": 10})
    checker.check(_outcome({"a": "1", "b": "2"}), 10)
    assert (checker.attempted, checker.failed) == (3, 0)
    assert checker.correct and checker.pass_rate == 1.0


def test_tampered_expected_digest_counts_as_failed_cell() -> None:
    checker = checks.Checker({"units": {"a": "1", "b": "tampered"},
                              "instructions": 10})
    checker.check(_outcome({"a": "1", "b": "2"}), 10)
    assert (checker.attempted, checker.failed) == (3, 1)
    assert not checker.correct
    assert checker.problems[0].startswith("b: digest")


def test_every_kind_of_failure_is_counted() -> None:
    checker = checks.Checker({"units": {"a": "1", "b": "2"},
                              "instructions": 10, "sim": {"s": 1}})
    # A program-reported failure, a missing and an extra unit, a moved
    # instruction count and a moved simulated count: five failures.
    checker.check(_outcome({"a": "1", "c": "3"}, {"a": "violation"}), 11,
                  sim={"s": 2})
    assert (checker.attempted, checker.failed) == (5, 5)
    # An iteration that raised fails every unit the reference expects.
    checker.check(None, 0, error="boom")
    assert (checker.attempted, checker.failed) == (7, 7)


def test_failure_outside_the_units_counts() -> None:
    checker = checks.Checker({"units": {"a": "1"}, "instructions": 10})
    # A command's exit code fails the run as a whole, under no unit.
    checker.check(_outcome({"a": "1"}, {"all": "spectresim all exited 1"}),
                  10)
    assert (checker.attempted, checker.failed) == (3, 1)
    assert checker.pass_rate < 1.0
    assert checker.problems == ["all: spectresim all exited 1"]


def test_counts_the_record_leaves_out_must_repeat() -> None:
    checker = checks.Checker({"units": {"a": "1"}})
    checker.check(_outcome({"a": "1"}), 10, sim={"s": 1})
    checker.check(_outcome({"a": "1"}), 10, sim={"s": 1})
    assert checker.failed == 0
    checker.check(_outcome({"a": "1"}), 9, sim={"s": 2})
    assert checker.failed == 2


def test_without_a_record_iterations_must_repeat() -> None:
    checker = checks.Checker(None)
    checker.check(_outcome({"a": "1"}), 5)
    checker.check(_outcome({"a": "2"}), 6)
    assert (checker.attempted, checker.failed) == (4, 2)


def test_recorded_expected_file_has_every_listed_workload() -> None:
    expected = checks.load_expected()
    for name, _ in spec.WORKLOADS:
        assert expected.get(name), name
    assert checks.ANY_SEED in expected["all_fast"]
    for workload, by_seed in expected.items():
        counts = ({"instructions", "sim"}
                  if workload not in workloads.UNRECORDED_COUNTS else set())
        for record in by_seed.values():
            assert set(record) == {"units"} | counts


def test_metric_and_workload_names_are_valid() -> None:
    names = spec.all_names()
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER + spec.FUZZ_LAYER:
        assert spec.UNIT_RE.match(metric.unit), metric
        assert metric.better in ("higher", "lower"), metric
    for metric in spec.END_TO_END:
        assert 0 < metric.bound <= 0.25, metric
    setup = {m.name: m for m in spec.END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_benchmark_json_is_generated_from_spec() -> None:
    with open(ROOT / "BENCHMARK.json") as f:
        text = f.read()
    data = json.loads(text)
    assert data == spec.benchmark_json()
    assert len(text.encode()) <= 64 * 1024
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(data["workloads"]) <= 8
    assert 1 <= len(data["per_layer"]) <= 128
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    # Every per-layer metric names the end-to-end metric it should move
    # on a listed workload, or is a simulated count that must not move.
    listed = {name for name, _ in spec.WORKLOADS}
    end_to_end = {m.name for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        for moved, workload in metric.moves:
            assert moved in end_to_end and workload in listed, metric


def test_listed_layers_exclude_those_of_some_workloads_only() -> None:
    listed = {name for name, _ in spec.WORKLOADS}
    names = {m.name for m in spec.LISTED_LAYER}
    assert names == {item["name"] for item in spec.benchmark_json()
                     ["per_layer"]}
    for metric in spec.PER_LAYER:
        assert set(metric.only) < listed, metric
        assert (metric.name in names) == (not metric.only), metric


def test_traced_result_line_holds_a_number_for_every_listed_layer() -> None:
    # Every listed per-layer metric is measured on every listed workload;
    # the layers of some workloads only go to the run line, null if absent.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lebench_study",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    run_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m.name: m.unit for m in spec.LISTED_LAYER}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["unit"] == units[name], name
    layers = json.loads(run_line)["layers"]
    assert layers["summary.summarize.s"] is None
    assert layers["lfs.self_s"] > 0


def test_sampler_scales_each_stretch_by_its_calibration(monkeypatch) -> None:
    from perfbench import calibrate
    sampler = calibrate.SpeedSampler()
    ref = calibrate.REFERENCE_S
    # Samples at t=2 and t=10, outside the interval one at t=20.
    sampler.samples = [(2.0, 2 * ref), (10.0, 4 * ref), (20.0, ref)]
    scaled, calibration = sampler.scaled(0.0, 13.0)
    assert scaled == pytest.approx(2.0 / 2 + 8.0 / 4 + 3.0 / 4)
    assert calibration == 4 * ref
    # An interval with no sample in it calibrates once, at its end.
    monkeypatch.setattr(calibrate, "calibration_s", lambda: 2 * ref)
    assert sampler.scaled(30.0, 31.0) == (pytest.approx(0.5), 2 * ref)


def test_sampler_calibrates_in_the_background_until_stopped() -> None:
    from perfbench import calibrate
    with calibrate.SpeedSampler() as sampler:
        started = time.perf_counter()
        while len(sampler.samples) < 3:
            time.sleep(calibrate.INTERVAL_S)
        ended = time.perf_counter()
    taken = len(sampler.samples)
    time.sleep(3 * calibrate.INTERVAL_S)
    assert len(sampler.samples) == taken
    assert all(0 < c < 1 for _, c in sampler.samples)
    scaled, _ = sampler.scaled(started, ended)
    assert scaled > 0


def test_every_span_has_a_self_time_metric() -> None:
    spans = set(spec.self_time_metrics())
    for metric in spec.PER_LAYER + spec.FUZZ_LAYER:
        if metric.span not in (None, "machine.init"):
            assert metric.span in spans, metric


def _lfs_run(jobs: int):
    from repro.core import study
    from repro.core.executor import StudyExecutor
    from repro.cpu.model import get_cpu
    with LayerTrace() as layers:
        study.lfs_overheads([get_cpu("broadwell")],
                            settings=study.Settings.fast(),
                            executor=StudyExecutor(jobs=jobs))
    in_process, _ = layers.instructions.take()
    return layers, layers.metrics("lebench_study", 1.0, 1.0, in_process, 1.0)


def test_layer_run_only_in_pool_workers_is_absent_not_zero() -> None:
    layers, metrics = _lfs_run(jobs=2)
    assert layers.tracer.calls.get("executor.run") == 1
    assert metrics["executor.run.self_s"] > 0
    assert metrics["executor.cells_executed"] == 2
    for name in ("lfs.self_s", "machine.run.calls", "machine.run.self_s",
                 "engine.block_hits", "engine.instr_coverage",
                 "sim.kernel_entries", "machine.created"):
        assert metrics[name] is None, name


def test_layer_run_in_process_is_present() -> None:
    layers, metrics = _lfs_run(jobs=1)
    assert metrics["lfs.self_s"] > 0
    assert metrics["machine.run.calls"] > 0
    assert metrics["sim.kernel_entries"] > 0
    # Every span's self time is reported, and with the unattributed rest
    # they make up the traced wall time.
    self_metrics = spec.self_time_metrics()
    assert set(layers.tracer.self_s) <= set(self_metrics)
    total = sum(metrics[self_metrics[s]] for s in layers.tracer.self_s)
    assert total + metrics["bench.unattributed_s"] == pytest.approx(1.0)


def test_pool_workers_send_their_instructions_home() -> None:
    from repro.core import study
    from repro.core.executor import StudyExecutor
    from repro.cpu.model import get_cpu
    taken = {}
    for jobs in (1, 2):
        patches = Patches()
        count = count_instructions(patches)
        try:
            study.lfs_overheads([get_cpu("broadwell")],
                                settings=study.Settings.fast(),
                                executor=StudyExecutor(jobs=jobs))
        finally:
            patches.restore()
        taken[jobs] = count.take()
    in_process, pool = taken[1]
    assert in_process > 0 and pool == 0
    assert sum(taken[2]) == in_process and taken[2][1] > 0


def test_wrappers_are_removed_after_the_traced_run() -> None:
    from repro.core import executor, stats, study
    from repro.cpu.machine import Machine
    run, init, measure = Machine.run, Machine.__init__, stats.adaptive_measure
    worker = executor._worker_run_cell
    runners = dict(study.CELL_RUNNERS)
    with LayerTrace():
        assert Machine.run is not run and Machine.__init__ is not init
        assert study.adaptive_measure is not measure
        assert executor._worker_run_cell is not worker
    assert Machine.run is run and Machine.__init__ is init
    assert executor._worker_run_cell is worker
    assert stats.adaptive_measure is measure
    assert study.adaptive_measure is measure
    assert study.CELL_RUNNERS == runners


def test_patches_restore_in_reverse_order() -> None:
    class Owner:
        value = 1

    patches = Patches()
    patches.set(Owner, "value", 2)
    patches.set(Owner, "value", 3)
    patches.restore()
    assert Owner.value == 1


def test_run_fails_cleanly_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lebench_study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_unlisted_fuzz_workload_reports_its_layers(tmp_path: Path) -> None:
    iteration = workloads.prepare("fuzz_campaign", 1, str(tmp_path))
    with LayerTrace() as layers:
        outcome = iteration()
    assert outcome.cells == len(outcome.units) == 230
    assert not outcome.failures
    in_process, _ = layers.instructions.take()
    metrics = layers.metrics("fuzz_campaign", 1.0, 1.0, in_process, 1.0)
    for metric in spec.FUZZ_LAYER:
        assert metrics[metric.name] > 0, metric.name
