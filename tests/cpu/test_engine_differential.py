"""Differential tests: the block engine must be bit-identical to the
interpreter.

This is the contract that makes the engine a pure optimisation: for the
same seed, CPU, mitigation config and workload, engine-on and engine-off
runs must produce the same TSC, the same value for every counter in
``ALL_COUNTERS``, and the same ledger paths (which ``verify()`` checks
against the TSC).  Two layers of evidence:

* a seeded grid over all eight CPU models x {linux default, all-off}
  policies running a LEBench subset through the full kernel path
  (entry/exit blocks, handlers, context switches, faults);
* a hypothesis property over random instruction sequences mixing pure,
  recordable and terminator ops, executed repeatedly so blocks compile
  and memos replay.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Machine, all_cpus, get_cpu, isa
from repro.cpu import engine
from repro.cpu.counters import ALL_COUNTERS
from repro.mitigations import MitigationConfig, linux_default
from repro.obs import ledger as obs_ledger
from repro.workloads.lebench import SUITE, run_suite

#: One case per workload kind keeps the grid fast while still exercising
#: syscalls, faults, context switches and process spawns.
_KINDS_SEEN = set()
GRID_CASES = tuple(
    case for case in SUITE
    if case.kind not in _KINDS_SEEN and not _KINDS_SEEN.add(case.kind)
)

CPU_KEYS = [cpu.key for cpu in all_cpus()]


def _run_grid_cell(cpu, config, mode):
    """One suite run under ``mode``; returns (results, machine, ledger)."""
    with engine.use_engine(mode):
        ledger = obs_ledger.CycleLedger()
        with obs_ledger.use_ledger(ledger):
            machine = Machine(cpu, seed=7)
            results = run_suite(machine, config, iterations=3, warmup=1,
                                cases=GRID_CASES)
    return results, machine, ledger


@pytest.mark.parametrize("policy", ["default", "off"])
@pytest.mark.parametrize("key", CPU_KEYS)
def test_lebench_grid_bit_identical(key, policy):
    cpu = get_cpu(key)
    config = (linux_default(cpu) if policy == "default"
              else MitigationConfig.all_off())
    blk_results, blk_machine, blk_ledger = \
        _run_grid_cell(cpu, config, engine.ENGINE_BLOCK)
    int_results, int_machine, int_ledger = \
        _run_grid_cell(cpu, config, engine.ENGINE_INTERP)

    assert blk_results == int_results
    assert blk_machine.read_tsc() == int_machine.read_tsc()
    for name in sorted(ALL_COUNTERS):
        assert blk_machine.counters.events.get(name, 0) == \
            int_machine.counters.events.get(name, 0), name
    assert blk_ledger.paths() == int_ledger.paths()
    assert blk_ledger.rollup() == int_ledger.rollup()
    # verify() raises if attributed cycles drifted from the charged TSC.
    assert blk_ledger.verify() == int_ledger.verify()


# --------------------------------------------------------------------------
# Random-sequence property.

_USER_ADDRS = [0x1000, 0x1040, 0x2000, 0x2040, 0x9000]

_MAKERS = st.sampled_from([
    isa.nop,
    isa.mul,
    isa.div,
    isa.cmov,
    isa.lfence,
    isa.verw,
    isa.rsb_fill,
    isa.swapgs,
    isa.rdtsc,
    isa.rdpmc,
    lambda: isa.work(30),
    lambda: isa.alu(3)[0],
    lambda: isa.load(0x1000),
    lambda: isa.load(0x2000),
    lambda: isa.store(0x1000, value=5),
    lambda: isa.store(0x2040, value=9),
    lambda: isa.clflush(0x1000),
    lambda: isa.call(target=0x4000, pc=0x4100),
    lambda: isa.branch_cond(target=0x4200, pc=0x4300, taken=True),
])


@pytest.mark.parametrize("key", CPU_KEYS)
def test_lebench_bit_identical_with_leakage_tracing(key):
    """Tracing on must not perturb execution: the block engine falls back
    to interpretation (taint is a guard-key input), and a traced run
    matches an untraced one bit for bit."""
    from repro.obs import leakage as obs_leakage

    cpu = get_cpu(key)
    config = linux_default(cpu)

    def traced_cell(mode):
        with engine.use_engine(mode):
            tracer = obs_leakage.LeakageTracer()
            with obs_leakage.use_leakage(tracer):
                machine = Machine(cpu, seed=7)
                tracer.taint_region(0x1000, 256)
                results = run_suite(machine, config, iterations=3, warmup=1,
                                    cases=GRID_CASES)
        return results, machine, tracer

    blk_results, blk_machine, blk_tracer = traced_cell(engine.ENGINE_BLOCK)
    int_results, int_machine, int_tracer = traced_cell(engine.ENGINE_INTERP)
    _, bare_machine, _ = _run_grid_cell(cpu, config, engine.ENGINE_INTERP)

    # Traced block == traced interp == untraced, on every counter.
    assert blk_results == int_results
    assert blk_machine.read_tsc() == int_machine.read_tsc()
    assert blk_machine.read_tsc() == bare_machine.read_tsc()
    for name in sorted(ALL_COUNTERS):
        assert blk_machine.counters.events.get(name, 0) == \
            int_machine.counters.events.get(name, 0), name
        assert blk_machine.counters.events.get(name, 0) == \
            bare_machine.counters.events.get(name, 0), name
    # And the tracers themselves agree (same taints, same events).
    assert blk_tracer.state() == int_tracer.state()


@pytest.mark.parametrize("key", CPU_KEYS)
def test_lebench_bit_identical_with_timeline_recording(key):
    """An attached timeline must not perturb execution either, and the
    block engine (which replays interpreted under a timeline) must emit
    the interpreter's event stream exactly."""
    from repro.obs import timeline as obs_timeline

    cpu = get_cpu(key)
    config = linux_default(cpu)

    def recorded_cell(mode):
        with engine.use_engine(mode):
            timeline = obs_timeline.EventTimeline(capacity=None)
            with obs_timeline.use_timeline(timeline):
                machine = Machine(cpu, seed=7)
                results = run_suite(machine, config, iterations=3, warmup=1,
                                    cases=GRID_CASES)
        return results, machine, timeline

    blk_results, blk_machine, blk_timeline = \
        recorded_cell(engine.ENGINE_BLOCK)
    int_results, int_machine, int_timeline = \
        recorded_cell(engine.ENGINE_INTERP)
    _, bare_machine, _ = _run_grid_cell(cpu, config, engine.ENGINE_INTERP)

    assert blk_results == int_results
    assert blk_machine.read_tsc() == int_machine.read_tsc()
    assert blk_machine.read_tsc() == bare_machine.read_tsc()
    for name in sorted(ALL_COUNTERS):
        assert blk_machine.counters.events.get(name, 0) == \
            int_machine.counters.events.get(name, 0), name
    # Same event stream, event for event.
    assert blk_timeline.total == int_timeline.total
    assert blk_timeline.digest() == int_timeline.digest()
    assert obs_timeline.first_divergence(blk_timeline, int_timeline) is None


@given(st.sampled_from(CPU_KEYS),
       st.lists(_MAKERS, min_size=2, max_size=24),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_random_sequences_bit_identical(key, makers, repeats):
    cpu = get_cpu(key)
    fast = Machine(cpu, seed=3, engine=engine.ENGINE_BLOCK)
    slow = Machine(cpu, seed=3, engine=engine.ENGINE_INTERP)
    seq = [make() for make in makers]
    for _ in range(repeats):
        assert fast.run(seq) == slow.run(list(seq))
    assert fast.read_tsc() == slow.read_tsc()
    assert fast.counters.events == slow.counters.events
    assert list(fast.store_buffer._pending.items()) == \
        list(slow.store_buffer._pending.items())
    assert list(fast.tlb._entries.items()) == list(slow.tlb._entries.items())


@pytest.mark.parametrize("key", [k for k in CPU_KEYS
                                 if get_cpu(k).supports_pcid])
def test_pre_switch_tlb_touches_replay_before_later_flush_points(key):
    """Ambient-PCID TLB touches made before a PCID-preserving MOV_CR3
    must replay at the switch, not after a later CLFLUSH emits the
    post-switch touches: the TLB's LRU order has to match the
    interpreter's after every repeat."""
    cpu = get_cpu(key)
    seq = [isa.load(0x1000), isa.load(0x2000), isa.load(0x3000),
           isa.mov_cr3(pcid=0), isa.load(0x1000), isa.clflush(0x9000)]
    machines = {mode: Machine(cpu, seed=3, engine=mode)
                for mode in (engine.ENGINE_BLOCK, engine.ENGINE_INTERP)}
    for _ in range(3):
        for machine in machines.values():
            machine.run(seq)
        block, interp = machines.values()
        assert list(block.tlb._entries) == list(interp.tlb._entries)
        assert block.read_tsc() == interp.read_tsc()
