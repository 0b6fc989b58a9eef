"""Minimizer + reproducer pipeline: an injected parity bug must shrink
to a minimal printable reproducer that still replays."""

import pytest

from repro.core.probe import POLICY_OFF
from repro.cpu import get_cpu
from repro.fuzz import (
    FuzzConfig,
    check_cell,
    fuzz_campaign,
    generate_program,
    load_reproducer,
    minimize_program,
    minimize_violation,
    parity_fault,
    replay_reproducer,
    write_reproducer,
)


def _faulted_violation():
    """One (program, violation) pair from the seeded fault campaign."""
    config = FuzzConfig(seed=3, programs=6, cpu_keys=("broadwell",),
                        policies=(POLICY_OFF,))
    result = fuzz_campaign(config)
    assert result.violations, "parity_fault must be active"
    violation = result.violations[0]
    program = next(p for p in result.programs
                   if p.name == violation.program)
    return program, violation


def test_injected_fault_minimizes_to_a_tiny_reproducer():
    with parity_fault("verw"):
        program, violation = _faulted_violation()
        minimized = minimize_violation(program, violation, base_seed=3)
        # The fault is one op: the reproducer must shrink to (nearly)
        # just that op.  The acceptance bound is <= 8 instructions.
        assert minimized.instruction_count() <= 8
        assert minimized.instruction_count() < program.instruction_count()
        # The minimized program still violates the same oracle.
        found = check_cell(minimized, get_cpu(violation.cpu),
                           violation.policy, base_seed=3)
        assert any(v.oracle == violation.oracle for v in found)
    # Outside the fault scope the reproducer is clean again.
    assert check_cell(minimized, get_cpu(violation.cpu), violation.policy,
                      base_seed=3) == []


def test_minimize_requires_a_failing_input():
    program = generate_program(1)
    with pytest.raises(ValueError):
        minimize_program(program, lambda p: False)


def test_minimize_is_deterministic():
    with parity_fault("verw"):
        program, violation = _faulted_violation()
        a = minimize_violation(program, violation, base_seed=3)
        b = minimize_violation(program, violation, base_seed=3)
    assert a.to_text() == b.to_text()


def test_reproducer_round_trip(tmp_path):
    with parity_fault("verw"):
        program, violation = _faulted_violation()
        minimized = minimize_violation(program, violation, base_seed=3)
        path = write_reproducer(str(tmp_path), minimized, violation,
                                base_seed=3)
        loaded, directives = load_reproducer(path)
        assert loaded.to_text() == minimized.to_text()
        assert directives["cpu"] == violation.cpu
        assert directives["policy"] == violation.policy
        assert directives["oracle"] == violation.oracle
        assert directives["base-seed"] == "3"
        # Replay inside the fault scope: still violating.
        assert replay_reproducer(path)
    # Replay with the engine fixed (fault scope exited): clean.
    assert replay_reproducer(path) == []


def test_candidates_that_raise_count_as_not_reproducing():
    """Some shrinks of fz18dd4876 fault (a load loses its mapping); the
    minimizer must treat them as non-reproducing instead of crashing."""
    program = generate_program(0x18dd4876)
    cpu = get_cpu("broadwell")
    with parity_fault("verw"):
        found = check_cell(program, cpu, POLICY_OFF, base_seed=7)
        violation = next(v for v in found if v.oracle == "engine_parity")
        minimized = minimize_violation(program, violation, base_seed=7)
        assert minimized.instruction_count() < program.instruction_count()
        assert any(v.oracle == "engine_parity" for v in
                   check_cell(minimized, cpu, POLICY_OFF, base_seed=7))
