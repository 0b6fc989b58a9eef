"""Replica tier speedup guard and telemetry report.

Times N seeded replicas of one LEBench cell run one machine at a time
(the scalar loop the section-4.1 noise methodology implies) against the
schedule-keyed replica tier (:func:`repro.cpu.replicas.run_replicas`),
asserts its values are bit-identical to the scalar reference, asserts
the steady state needed zero scalar fallbacks, and asserts the
wall-clock speedup clears a floor.

The floor defaults to 5.0x — on a no-scrub cell N replicas share one
schedule key and cost one run, so the measured speedup approaches N and
the gate has wide margin at N = 32.  Override with
``REPLICA_SPEEDUP_FLOOR=20`` to chase the headline number locally.
"""

import os
import time

from repro.core.study import Settings, lebench_geomean
from repro.cpu import get_cpu
from repro.cpu.replicas import STATS, replica_seed, run_replicas
from repro.mitigations import linux_default

REPLICAS = 32
REPEATS = 3
SPEEDUP_FLOOR = float(os.environ.get("REPLICA_SPEEDUP_FLOOR", "5.0"))

#: Cheap but non-trivial cell: broadwell has no periodic scrub, so the
#: whole batch shares one run — the steady state of the study grid.
SETTINGS = Settings(iterations=8, warmup=2, max_samples=40, rel_tol=0.005)


def _run_fn():
    cpu = get_cpu("broadwell")
    config = linux_default(cpu)
    return lambda machine_seed: lebench_geomean(cpu, config, SETTINGS,
                                                seed=machine_seed)


def test_replica_batch_speedup_and_identity(save_artifact):
    run_fn = _run_fn()
    seed = 7

    scalar_s = float("inf")
    reference = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference = [float(run_fn(replica_seed(seed, i)))
                     for i in range(REPLICAS)]
        scalar_s = min(scalar_s, time.perf_counter() - start)

    STATS.reset()
    batch_s = float("inf")
    values = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        values = run_replicas(run_fn, seed=seed, n=REPLICAS)
        batch_s = min(batch_s, time.perf_counter() - start)

    assert values == reference, (
        "replica values diverged from the scalar reference")
    assert STATS.scalar_fallbacks == 0, (
        "steady-state cell took scalar fallbacks; replicas are not "
        "sharing their schedule key")

    speedup = scalar_s / batch_s
    report = (f"replicas        {REPLICAS}\n"
              f"scalar loop     {1e3 * scalar_s:8.2f} ms\n"
              f"replica tier    {1e3 * batch_s:8.2f} ms\n"
              f"speedup         {speedup:8.2f}x (floor {SPEEDUP_FLOOR:.1f}x)\n"
              f"\n{STATS.summary()}\n")
    save_artifact("replica_speedup.txt", report)

    assert speedup >= SPEEDUP_FLOOR, (
        f"replica tier speedup {speedup:.2f}x is under the "
        f"{SPEEDUP_FLOOR:.1f}x floor")
