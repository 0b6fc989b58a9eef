"""Output checks: every unit of every iteration, never skipped.

A unit is one study cell, fuzz cell or ``all`` artifact, plus the run's
simulated instruction total and, in a traced run, its ``sim.*`` counts.
The reference for a unit is the digest recorded in
``perfbench/expected.json`` for the workload and seed; for a seed with no
record, and for counts the record leaves out, it is the first iteration
of the run, so iterations must at least repeat each other exactly.

A unit fails when the program raised, reported a failure for it (a fuzz
violation, a non-finite value, a failure of the whole command), produced
a digest or count that differs from the reference, left it out, or
produced a unit the reference lacks.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: Key of the seedless workloads' record in ``expected.json``.
ANY_SEED = "*"


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Any]:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def reference_for(expected: Dict[str, Any], workload: str,
                  seed: Optional[int]) -> Optional[Dict[str, Any]]:
    """The recorded outputs of ``workload`` at ``seed`` (None: not recorded)."""
    by_seed = expected.get(workload, {})
    return by_seed.get(ANY_SEED if seed is None else str(seed))


class Checker:
    """Counts attempted and failed units across a run's iterations."""

    def __init__(self, reference: Optional[Dict[str, Any]] = None) -> None:
        self.reference = reference
        self.recorded = reference is not None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    @property
    def pass_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0

    def _fail(self, unit: str, reason: str) -> None:
        self.failed += 1
        self.problems.append(f"{unit}: {reason}")

    def check(self, outcome: Any, instructions: Optional[int],
              sim: Optional[Dict[str, int]] = None,
              error: Optional[str] = None) -> None:
        """Check one iteration; ``outcome`` is None when it raised."""
        reference = self.reference
        if outcome is None:
            units = sorted(reference["units"]) if reference else ["iteration"]
            self.attempted += len(units)
            for unit in units:
                self._fail(unit, f"iteration raised {error}")
            return
        if reference is None:
            # No record for this seed: later iterations must repeat this one.
            reference = self.reference = {"units": dict(outcome.units)}
        expected = reference["units"]
        # A failure may name no unit (a command's exit code); it still counts.
        for unit in sorted(set(expected) | set(outcome.units)
                           | set(outcome.failures)):
            self.attempted += 1
            if unit in outcome.failures:
                self._fail(unit, outcome.failures[unit])
            elif unit not in outcome.units:
                self._fail(unit, "missing from the output")
            elif unit not in expected:
                self._fail(unit, "not in the reference")
            elif outcome.units[unit] != expected[unit]:
                self._fail(unit, f"digest {outcome.units[unit]} != "
                                 f"{expected[unit]}")
        self._count("instructions", instructions,
                    reference.setdefault("instructions", instructions))
        if sim is not None:
            self._count("sim", sim, reference.setdefault("sim", dict(sim)))

    def _count(self, unit: str, value: Any, expected: Any) -> None:
        self.attempted += 1
        if value != expected:
            self._fail(unit, f"{value} != {expected}")
