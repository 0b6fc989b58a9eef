"""Differential suite for the schedule-keyed replica tier.

The contract: ``run_replicas(run_fn, seed, n)[i]`` must equal
``float(run_fn(replica_seed(seed, i)))`` bit for bit — across every CPU
model, with and without the eIBRS periodic scrub in play, whether a
replica shares an earlier run or gets a run of its own.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core.stats import suite_geometric_mean
from repro.core.study import Settings, lebench_geomean
from repro.cpu import counters as ctr
from repro.cpu import machine as machine_mod
from repro.cpu.machine import Machine, use_scrub_probe
from repro.cpu.model import all_cpus, get_cpu
from repro.cpu.replicas import (
    STATS,
    ReplicaStats,
    ScrubProbe,
    firing_schedule,
    publish_metrics,
    replica_seed,
    run_replicas,
)
from repro.cpu.smt import SMTCore
from repro.mitigations.base import MitigationConfig
from repro.mitigations.policy import linux_default
from repro.obs.metrics import MetricsRegistry
from repro.workloads import lebench

ALL_CPU_KEYS = [cpu.key for cpu in all_cpus()]

#: Cheapest settings that still cross kernel entries often enough to
#: exercise the scrub path on eIBRS parts.
TINY = dataclasses.replace(Settings.fast(), iterations=3, warmup=1)


def _cell_run_fn(cpu, config):
    return lambda machine_seed: lebench_geomean(cpu, config, TINY,
                                                seed=machine_seed)


def _counted(run_fn):
    """``run_fn`` plus the list of machine seeds it was called with."""
    calls = []

    def counted(machine_seed):
        calls.append(machine_seed)
        return run_fn(machine_seed)
    return counted, calls


def _reference(run_fn, seed, n):
    return [float(run_fn(replica_seed(seed, i))) for i in range(n)]


# --------------------------------------------------------------------------- #
# The bit-identity grid: every CPU model x policy
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", ["all_off", "linux_default"])
@pytest.mark.parametrize("cpu_key", ALL_CPU_KEYS)
def test_batched_matches_scalar_bitwise(cpu_key, policy):
    cpu = get_cpu(cpu_key)
    config = (MitigationConfig.all_off() if policy == "all_off"
              else linux_default(cpu))
    run_fn = _cell_run_fn(cpu, config)
    n, seed = 3, 7
    assert run_replicas(run_fn, seed=seed, n=n) == \
        _reference(run_fn, seed, n)


def test_no_scrub_part_collapses_to_one_probe_run():
    """Broadwell has no periodic scrub: every replica's schedule key is
    empty, so the whole batch is served by replica 0's run — the steady
    state the >= 5x bench floor relies on."""
    run_fn, calls = _counted(
        _cell_run_fn(get_cpu("broadwell"), MitigationConfig.all_off()))
    STATS.reset()
    values = run_replicas(run_fn, seed=7, n=6)
    assert calls == [7]
    assert STATS.batched == 5
    assert STATS.scalar_fallbacks == 0
    assert values == [values[0]] * 6


def test_scrub_part_with_eibrs_off_also_collapses():
    """cascade_lake draws its scrub interval at construction, but with
    mitigations off no kernel entry consults it — schedules are compared
    only over *eligible* entries, so the batch still collapses."""
    run_fn, calls = _counted(
        _cell_run_fn(get_cpu("cascade_lake"), MitigationConfig.all_off()))
    STATS.reset()
    run_replicas(run_fn, seed=7, n=4)
    assert len(calls) == 1
    assert STATS.scalar_fallbacks == 0


def test_divergent_replicas_fall_back_and_reconverge():
    """cascade_lake under linux_default fires the scrub: replicas with
    differing firing schedules get runs of their own, and every entry
    is still bit-exact."""
    cpu = get_cpu("cascade_lake")
    run_fn, calls = _counted(_cell_run_fn(cpu, linux_default(cpu)))
    n, seed = 4, 7
    STATS.reset()
    values = run_replicas(run_fn, seed=seed, n=n)
    assert STATS.scalar_fallbacks >= 1       # divergence actually occurred
    assert len(calls) == 1 + STATS.scalar_fallbacks
    assert STATS.batched + STATS.scalar_fallbacks == n - 1
    assert values == _reference(run_fn, seed, n)


def test_single_replica_runs_once_without_a_probe():
    """n=1 is the classic single run: one call with the cell seed and
    no scrub probe installed around it."""
    ambient = []

    def run_fn(machine_seed):
        ambient.append(machine_mod._SCRUB_PROBE)
        return 3.5

    assert run_replicas(run_fn, seed=42, n=1) == [3.5]
    assert ambient == [None]


def test_divergent_replicas_with_equal_schedules_share_one_run():
    """Replicas are keyed by their firing schedules, not by whether they
    match replica 0: two replicas that both diverge from replica 0 but
    agree with each other cost one run between them."""
    low, high, entries = 1, 2, 2   # only three possible schedules
    scrubber = SimpleNamespace(cpu=SimpleNamespace(
        predictor=SimpleNamespace(eibrs_scrub_period=(low, high))))

    def run_fn(machine_seed):
        probe = machine_mod._SCRUB_PROBE
        if probe is not None:
            slot = probe.register(scrubber, machine_seed)
            for _ in range(entries):
                probe.count(slot)
        return float(sum(firing_schedule(machine_seed, low, high, entries)))

    n, seed = 8, 5
    keys = [firing_schedule(replica_seed(seed, i), low, high, entries)
            for i in range(n)]
    divergent = [key for key in keys[1:] if key != keys[0]]
    assert len(divergent) > len(set(divergent))  # the case under test
    counted, calls = _counted(run_fn)
    STATS.reset()
    values = run_replicas(counted, seed=seed, n=n)
    assert len(calls) == len(set(keys))
    assert STATS.scalar_fallbacks == len(set(keys)) - 1
    assert STATS.batched == n - len(set(keys))
    assert values == _reference(run_fn, seed, n)


def test_smt_sibling_seed_offset_is_respected():
    """SMTCore builds thread1 at seed + 1; the probe compares each
    machine at its offset from the replica seed, so SMT cells stay
    bit-exact through the batch tier."""
    cpu = get_cpu("cascade_lake")
    config = linux_default(cpu)

    def run_fn(machine_seed):
        core = SMTCore(cpu, seed=machine_seed)
        a = lebench.run_suite(core.thread0, config, iterations=2, warmup=1)
        b = lebench.run_suite(core.thread1, config, iterations=2, warmup=1)
        return suite_geometric_mean(a) + suite_geometric_mean(b)

    n, seed = 3, 11
    assert run_replicas(run_fn, seed=seed, n=n) == \
        _reference(run_fn, seed, n)


# --------------------------------------------------------------------------- #
# The probe and the schedule model
# --------------------------------------------------------------------------- #

def test_firing_schedule_predicts_real_scrub_flushes():
    """The schedule derived from the seed alone must equal what the
    machine actually does: one BTB flush per predicted firing."""
    cpu = get_cpu("cascade_lake")
    config = linux_default(cpu)
    probe = ScrubProbe()
    with use_scrub_probe(probe):
        machine = Machine(cpu, seed=21)
        lebench.run_suite(machine, config, iterations=3, warmup=1)
    (entries,) = probe.entries
    assert entries > 0
    low, high = cpu.predictor.eibrs_scrub_period
    schedule = firing_schedule(21, low, high, entries)
    assert len(schedule) == machine.counters.read(ctr.BTB_FLUSH_ON_ENTRY) > 0


def test_probe_is_purely_observational():
    """A probed run is bit-identical to an unprobed one."""
    cpu = get_cpu("ice_lake_server")
    run_fn = _cell_run_fn(cpu, linux_default(cpu))
    bare = run_fn(33)
    with use_scrub_probe(ScrubProbe()):
        probed = run_fn(33)
    assert bare == probed


def test_use_scrub_probe_restores_previous_probe():
    outer = ScrubProbe()
    with use_scrub_probe(outer):
        with use_scrub_probe(ScrubProbe()):
            pass
        Machine(get_cpu("broadwell"), seed=1)
    assert outer.offsets == [1] and outer.entries == [0]


def test_replica_seed_contract():
    assert replica_seed(7, 0) == 7          # replica 0 IS the cell seed
    assert replica_seed(7, 1) != replica_seed(7, 2)
    assert replica_seed(7, 1) != replica_seed(8, 1)
    with pytest.raises(ValueError):
        replica_seed(7, -1)


def test_firing_schedule_empty_without_entries():
    assert firing_schedule(5, 8, 20, 0) == ()


# --------------------------------------------------------------------------- #
# Telemetry plumbing
# --------------------------------------------------------------------------- #

def test_stats_merge_matches_worker_protocol():
    parent, worker = ReplicaStats(), ReplicaStats()
    worker.replicas, worker.batched, worker.scalar_fallbacks = 8, 5, 1
    parent.merge(worker.as_dict())
    parent.merge(worker.as_dict())
    assert parent.as_dict() == {"replicas": 16, "batched": 10,
                                "scalar_fallbacks": 2}
    assert parent.hit_rate() == pytest.approx(10 / 12)


def test_stats_hit_rate_is_vacuously_perfect_when_idle():
    assert ReplicaStats().hit_rate() == 1.0


def test_stats_summary_mentions_the_numbers():
    stats = ReplicaStats()
    stats.replicas, stats.batched, stats.scalar_fallbacks = 9, 4, 2
    text = stats.summary()
    assert "9 replicas: 4 batched, 2 scalar fallbacks" in text
    assert "66.7% batch hit rate" in text


def test_publish_metrics_exports_nonzero_counters():
    registry = MetricsRegistry()
    STATS.reset()
    run_fn = _cell_run_fn(get_cpu("zen3"), MitigationConfig.all_off())
    run_replicas(run_fn, seed=3, n=3)
    publish_metrics(registry)
    assert registry.counter("replicas.replicas").value == 3
    assert registry.counter("replicas.batched").value == 2


def test_replica_batch_validation():
    with pytest.raises(ValueError):
        run_replicas(lambda machine_seed: 1.0, seed=7, n=0)
