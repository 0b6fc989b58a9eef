"""Seeded machine replicas of one study cell, run once per scrub schedule.

The section-4.1 methodology repeats every cell until the 95% confidence
interval is tight.  With ``Settings.replicas = N`` the repeats cycle over
N seeded machine replicas:

* Replica ``i`` is a full run of the cell with its machines seeded from
  :func:`replica_seed` ``(seed, i)``.  Replica 0 keeps the cell's own
  seed, so one replica is exactly the classic single run.
* The machine is deterministic except for one RNG consumer: the eIBRS
  periodic BTB-scrub interval (paper section 6.2.2), drawn once at
  construction and once per scrub firing.  Two replicas whose *firing
  schedules* coincide therefore execute bit-identically.
* :func:`run_replicas` runs replica 0 under a :class:`ScrubProbe`,
  derives every other replica's schedules from its seed with
  :func:`firing_schedule`, and runs the cell once per distinct tuple of
  schedules.  On parts without the periodic scrub (or with eIBRS off)
  every tuple is empty, so N replicas cost one run.

Why equal schedules mean equal runs: the committed instruction stream is
program-defined, never timing-defined, so the number and order of
scrub-eligible kernel entries are the same for every seed.  Given equal
firing positions, every ``btb.flush()``, extra-cycle charge and ledger
posting lands at the same point of the same stream.  Machines a cell
builds at a fixed offset from the replica seed (e.g.
:class:`~repro.cpu.smt.SMTCore`'s second thread at ``seed + 1``) are
keyed at that offset; a machine whose seed the runner pins outright
keys equal or gets a run of its own, which is always correct.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.stats import derive_seed
from .machine import use_scrub_probe


def replica_seed(seed: int, index: int) -> int:
    """Machine seed of replica ``index`` of a cell seeded ``seed``
    (replica 0 *is* the cell's own seed)."""
    if index < 0:
        raise ValueError("replica index must be >= 0")
    if index == 0:
        return seed
    return derive_seed(seed, "replica", str(index))


def firing_schedule(seed: int, low: int, high: int,
                    entries: int) -> Tuple[int, ...]:
    """Scrub firing positions (1-based eligible-entry indexes) for a
    machine seeded ``seed`` across ``entries`` scrub-eligible kernel
    entries.

    Mirrors :class:`~repro.cpu.machine.Machine` draw-for-draw: one
    interval draw at construction, then one per firing — the countdown
    first reaches zero at the drawn interval's entry, so positions are
    the running sum of the draws, truncated at ``entries``.
    """
    if entries <= 0:
        return ()
    rng = np.random.default_rng(seed)
    positions: List[int] = []
    position = int(rng.integers(low, high + 1))
    while position <= entries:
        positions.append(position)
        position += int(rng.integers(low, high + 1))
    return tuple(positions)


class ScrubProbe:
    """Per-run record of every machine's seed offset, scrub period and
    count of scrub-eligible kernel entries.

    Installed ambiently via :func:`~repro.cpu.machine.use_scrub_probe`;
    every machine built inside the block registers itself and bumps its
    slot once per scrub-eligible kernel entry.  Counting only — a probed
    run is bit-identical to an unprobed one.
    """

    def __init__(self, base_seed: int = 0) -> None:
        self.base_seed = base_seed
        self.offsets: List[int] = []
        self.periods: List[Tuple[int, int]] = []
        self.entries: List[int] = []

    def register(self, machine, seed: int) -> int:
        self.offsets.append(seed - self.base_seed)
        self.periods.append(machine.cpu.predictor.eibrs_scrub_period)
        self.entries.append(0)
        return len(self.entries) - 1

    def count(self, slot: int) -> None:
        self.entries[slot] += 1

    def key(self, seed: int) -> Tuple[Tuple[int, ...], ...]:
        """The firing schedules of a run whose machines are seeded from
        ``seed``, one per machine that saw a scrub-eligible entry."""
        return tuple(
            firing_schedule(seed + offset, low, high, entries)
            for offset, (low, high), entries
            in zip(self.offsets, self.periods, self.entries)
            if entries > 0)


class ReplicaStats:
    """Process-wide replica counters (the ``engine.EngineStats`` idiom).

    ``replicas`` counts every replica asked for; of those beyond replica
    0, ``batched`` were served by an earlier run with the same schedules
    and ``scalar_fallbacks`` needed a run of their own.  Workers ship
    :meth:`as_dict` home and the parent :meth:`merge`\\ s.
    """

    FIELDS = ("replicas", "batched", "scalar_fallbacks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.replicas = self.batched = self.scalar_fallbacks = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def merge(self, state: Dict[str, int]) -> None:
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + int(state.get(name, 0)))

    def hit_rate(self) -> float:
        """Share of replicas beyond replica 0 served without a run (1.0
        when there were none)."""
        eligible = self.batched + self.scalar_fallbacks
        return self.batched / eligible if eligible else 1.0

    def summary(self) -> str:
        return (f"{self.replicas} replicas: {self.batched} batched, "
                f"{self.scalar_fallbacks} scalar fallbacks "
                f"({100.0 * self.hit_rate():.1f}% batch hit rate)")


#: Process-wide counters, reset per worker cell like the engine's.
STATS = ReplicaStats()


def publish_metrics(registry) -> None:
    """Copy the replica counters into a metrics registry as
    ``replicas.<name>`` counters (zero-valued fields are skipped)."""
    for name, value in STATS.as_dict().items():
        if value:
            registry.counter(f"replicas.{name}").inc(value)


def run_replicas(run_fn: Callable[[int], float], seed: int,
                 n: int = 1) -> List[float]:
    """The metric of each of ``n`` seeded replicas of one cell.

    ``run_fn(machine_seed)`` must run the cell with its machines seeded
    from ``machine_seed`` and return the deterministic metric.  Entry
    ``i`` equals ``float(run_fn(replica_seed(seed, i)))`` bit for bit,
    but ``run_fn`` runs only once per distinct firing-schedule key.
    """
    if n < 1:
        raise ValueError("need at least one replica")
    STATS.replicas += n
    if n == 1:
        return [float(run_fn(seed))]
    probe = ScrubProbe(seed)
    with use_scrub_probe(probe):
        first = float(run_fn(seed))
    runs = {probe.key(seed): first}
    values = [first]
    for index in range(1, n):
        replica = replica_seed(seed, index)
        key = probe.key(replica)
        if key in runs:
            STATS.batched += 1
        else:
            runs[key] = float(run_fn(replica))
            STATS.scalar_fallbacks += 1
        values.append(runs[key])
    return values
