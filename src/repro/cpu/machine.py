"""The cycle-accounting machine: executes abstract instruction streams.

:class:`Machine` binds one :class:`~repro.cpu.model.CPUModel` to live
microarchitectural state — caches, TLB, BTB/BHB, RSB, store buffer, the
MDS-leakable buffers, MSRs and performance counters — and executes
:class:`~repro.cpu.isa.Instruction` streams, returning cycle costs.

Two execution paths exist:

* the **committed** path (:meth:`execute` / :meth:`run`) advances the TSC
  and architectural state;
* the **transient** path (:meth:`_transient_window`) models wrong-path
  execution after a branch misprediction: it costs no committed cycles but
  leaves microarchitectural footprints — cache fills, divider activity,
  MDS buffer residue — which is precisely what every attack in the paper
  observes and every mitigation tries to erase.

The machine is deterministic: all randomness (only the eIBRS periodic-scrub
interval uses any) flows from the seed passed at construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import SegmentationFault, UnsupportedFeatureError
from ..obs import ledger as obs_ledger
from ..obs import leakage as obs_leakage
from ..obs import spans as obs_spans
from ..obs import timeline as obs_timeline
from . import counters as ctr
from . import engine as blockengine
from . import msr as msrdef
from .btb import BranchHistoryBuffer, BranchTargetBuffer
from .buffers import MicroarchBuffers
from .condbp import ConditionalPredictor
from .cache import Cache, CacheHierarchy
from .counters import PerfCounters
from .isa import Instruction, Op, OP_DEFAULT_TAGS, SERIALIZING_OPS
from .model import CPUModel
from .modes import Mode
from .msr import MSRFile
from .rsb import BENIGN_ENTRY, ReturnStackBuffer
from .storebuffer import StoreBuffer

_RETIRED = ctr.INSTRUCTIONS_RETIRED
from .tlb import TLB

#: Retpoline flavors (paper Figure 4).
GENERIC_RETPOLINE = "generic"
AMD_RETPOLINE = "amd"

#: Default (mitigation, primitive) attribution for ops that *are* a
#: mitigation primitive even when the emitting site forgot to tag them.
#: Explicit Instruction.mitigation tags always win.  The table lives in
#: repro.cpu.isa so instructions can resolve their tag at construction;
#: the old name is kept as an alias.
_OP_DEFAULT_TAGS = OP_DEFAULT_TAGS

#: Ambient scrub probe (see :mod:`repro.cpu.replicas`): machines built
#: while one is installed register themselves and report every
#: scrub-eligible kernel entry, which is all the replica tier needs to
#: prove two seeds execute bit-identically without running both.
_SCRUB_PROBE = None


@contextmanager
def use_scrub_probe(probe):
    """Install ``probe`` for machines constructed inside the block.

    The probe is duck-typed: ``register(machine, seed) -> slot`` at
    construction, ``count(slot)`` per scrub-eligible kernel entry.
    Counting only — the machine's own floats and state transitions are
    untouched, so a probed run is bit-identical to an unprobed one.
    """
    global _SCRUB_PROBE
    previous = _SCRUB_PROBE
    _SCRUB_PROBE = probe
    try:
        yield probe
    finally:
        _SCRUB_PROBE = previous


class Machine:
    """One logical CPU executing abstract instructions with cycle accounting."""

    def __init__(self, cpu: CPUModel, seed: int = 0, microcode_patched: bool = True,
                 engine: Optional[str] = None) -> None:
        self.cpu = cpu
        self.costs = cpu.costs
        self.mode = Mode.USER
        self.microcode_patched = microcode_patched

        self.counters = PerfCounters()
        self.msr = MSRFile(
            supports_ibrs=cpu.predictor.supports_ibrs,
            supports_eibrs=cpu.predictor.supports_eibrs,
            supports_ssbd=True,
            arch_capabilities=cpu.arch_capabilities,
        )
        self.btb = BranchTargetBuffer(
            entries=cpu.btb_entries,
            mode_tagged=cpu.predictor.btb_mode_tagged,
            opaque_index=cpu.predictor.btb_opaque_index,
        )
        self.bhb = BranchHistoryBuffer()
        self.cond_predictor = ConditionalPredictor()
        self.rsb = ReturnStackBuffer(
            depth=cpu.rsb_depth,
            underflow_falls_back_to_btb=cpu.predictor.rsb_underflow_uses_btb,
        )
        self.caches = CacheHierarchy(
            l1=Cache(cpu.l1d_kb * 1024, cpu.l1_ways),
            l2=Cache(cpu.l2_kb * 1024, cpu.l2_ways),
        )
        self.tlb = TLB(entries=cpu.tlb_entries, supports_pcid=cpu.supports_pcid)
        self.store_buffer = StoreBuffer(depth=cpu.store_buffer_depth)
        self.mds_buffers = MicroarchBuffers(vulnerable=cpu.vulns.mds)

        # Program memory: code address -> instruction block.  Transient
        # windows launched at an address execute the registered block.
        self.program: Dict[int, List[Instruction]] = {}

        # KPTI state, owned by the kernel model: when True, kernel pages
        # are reachable from user-mode page tables, so a Meltdown-vulnerable
        # part can transiently read them from user mode.
        self.kernel_mapped_in_user = True

        # Retpoline flavor used when an instruction is marked retpoline.
        self.retpoline_variant = GENERIC_RETPOLINE

        # SMT sibling identity: 0 on a standalone machine.  SMTCore sets
        # 1 on the second hyperthread and shares predictor/cache state.
        self.thread_id = 0

        # Optional instrumentation: called as tracer(instr, cycles,
        # transient, mode) after every executed instruction.  See
        # repro.cpu.trace.ExecutionTrace.
        self.tracer = None

        # Observability: adopt the installed span tracer as this machine's
        # trace clock.  The default NullTracer makes both calls no-ops.
        self.obs = obs_spans.current_tracer()
        self.obs.bind_machine(self)

        # Cycle-attribution ledger: when one is installed, every TSC
        # advance is filed under (layer, mitigation, primitive) via the
        # counter-file hook; attach() registers us for the sum-to-TSC
        # invariant check.
        self.ledger = obs_ledger.current_ledger()
        if self.ledger is not None:
            self.counters.ledger = self.ledger
            self.ledger.attach(self.counters)

        # Speculative-leakage tracer and microarchitectural event
        # timeline: when installed, taint flows / structure-state
        # transitions (train/flush/hit/miss/...) are recorded (see
        # repro.obs.leakage and repro.obs.timeline).  None = off,
        # strictly zero cost.  Both slots must exist before either
        # attach runs: attach_leakage re-tees an already-attached
        # timeline behind the tracer.
        self.leakage = None
        self.timeline = None
        ambient_leakage = obs_leakage.current_leakage()
        if ambient_leakage is not None:
            self.attach_leakage(ambient_leakage)
        ambient_timeline = obs_timeline.current_timeline()
        if ambient_timeline is not None:
            self.attach_timeline(ambient_timeline)

        # eIBRS periodic BTB scrub state (paper section 6.2.2).
        self._rng = np.random.default_rng(seed)
        self._scrub_countdown = self._next_scrub_interval()

        # Replica scrub probe (see repro.cpu.replicas): the only
        # seed-dependent behavior in the machine is the scrub interval
        # above, so counting scrub-eligible kernel entries is enough for
        # the replica tier to decide which replica seeds share this run's
        # execution bit-for-bit.
        self._scrub_probe = _SCRUB_PROBE
        self._scrub_probe_slot = (
            self._scrub_probe.register(self, seed)
            if self._scrub_probe is not None else -1)

        # Wire MSR side effects.
        self.msr.on_ibpb(self._do_ibpb)
        self.msr.on_l1d_flush(self._do_l1d_flush)

        # Last committed load value seen per address is not tracked; the
        # attack demos track data flow themselves.  The machine tracks the
        # last transient load addresses so demos can check the side channel.
        self.transient_loads: List[int] = []

        # Block-compilation engine: a transparent fast path for run() that
        # memoizes straight-line sequence deltas (see repro.cpu.engine).
        # None means pure interpretation (--engine=interp).
        self.engine_mode = engine if engine is not None else blockengine.default_engine()
        self.engine = (blockengine.BlockEngine(self)
                       if self.engine_mode == blockengine.ENGINE_BLOCK else None)

    def attach_leakage(self, tracer) -> None:
        """Adopt a :class:`repro.obs.leakage.LeakageTracer`: wire it onto
        this machine's microarchitectural structures and key its events to
        this CPU.  With a tracer attached, ``run()`` always interprets —
        taint is a guard-key input the block engine does not model, so
        traced segments fall back to bit-identical interpreted replay."""
        self.leakage = tracer
        tracer.bind_machine(self)
        if self.timeline is not None:
            # The leakage tracer claimed the structure observer slots;
            # rebind the timeline so it tees itself back in.
            self.timeline.bind_machine(self)

    def attach_timeline(self, timeline) -> None:
        """Adopt a :class:`repro.obs.timeline.EventTimeline`: every
        structure-state transition on this machine is recorded into its
        ring buffer.  Composes with an attached leakage tracer (the
        shared observer slots are teed) and, like the tracer, forces
        ``run()`` onto the interpreter — batched block-engine replay
        cannot reproduce the per-event stream, and the interpreted
        fallback is bit-identical by the engine's differential
        contract."""
        self.timeline = timeline
        timeline.bind_machine(self)

    # ------------------------------------------------------------------ #
    # MSR side effects
    # ------------------------------------------------------------------ #

    def _do_ibpb(self) -> None:
        self.btb.barrier()
        self.counters.bump(ctr.IBPB_COUNT)

    def _do_l1d_flush(self) -> None:
        self.caches.flush_l1()
        self.counters.bump(ctr.L1D_FLUSHES)

    def _next_scrub_interval(self) -> int:
        low, high = self.cpu.predictor.eibrs_scrub_period
        return int(self._rng.integers(low, high + 1))

    # ------------------------------------------------------------------ #
    # Code registration (for transient windows and the probe)
    # ------------------------------------------------------------------ #

    def register_code(self, address: int, block: Sequence[Instruction]) -> None:
        """Place an instruction block at a code address.

        Transient execution steered to ``address`` (by a poisoned BTB entry
        or an RSB underflow fallback) will execute this block wrong-path.
        """
        if address == 0:
            raise ValueError("address 0 is reserved as the harmless target")
        self.program[address] = list(block)

    # ------------------------------------------------------------------ #
    # Committed execution
    # ------------------------------------------------------------------ #

    def run(self, instructions: Iterable[Instruction]) -> int:
        """Execute a stream on the committed path; returns total cycles.

        Concrete multi-instruction sequences route through the block
        engine (when enabled and no tracer wants per-instruction events);
        everything else — generators, single instructions, traced runs —
        interprets instruction by instruction.  Both paths are
        bit-identical by construction (see repro.cpu.engine).
        """
        engine = self.engine
        if (engine is not None and self.tracer is None
                and self.leakage is None
                and self.timeline is None
                and instructions.__class__ in (list, tuple)
                and len(instructions) > 1):
            return engine.run(instructions)
        total = 0
        for instr in instructions:
            total += self.execute(instr)
        return total

    def prime_block(self, instructions: Sequence[Instruction]) -> None:
        """Pre-compile a known-hot sequence (kernel entry/exit, handler
        bodies) so even its first execution takes the engine fast path."""
        if (self.engine is not None
                and instructions.__class__ in (list, tuple)
                and len(instructions) > 1):
            self.engine.prime(instructions)

    def execute(self, instr: Instruction) -> int:
        """Execute one instruction on the committed path; returns cycles."""
        handler = instr.handler
        if handler is None:
            handler = _DISPATCH.get(instr.op)
            if handler is None:  # pragma: no cover - exhaustive over Op
                raise UnsupportedFeatureError(f"unhandled op {instr.op}")
            instr.handler = handler
        cycles = handler(self, instr)

        counters = self.counters
        ledger = self.ledger
        if ledger is None:
            # add_cycles() without an attached ledger is exactly this.
            counters.tsc += cycles
        else:
            mitigation, primitive = instr.attr_tag
            ledger.set_tag(mitigation, primitive)
            counters.add_cycles(cycles)
            ledger.clear_tag()
        events = counters.events
        events[_RETIRED] = events.get(_RETIRED, 0) + 1
        if self.tracer is not None:
            self.tracer(instr, cycles, False, self.mode)
        return cycles

    def _attribution_tag(self, instr: Instruction):
        """(mitigation, primitive) the ledger files this instruction under.

        Tags are now resolved once at Instruction construction (see
        ``Instruction.attr_tag``); this accessor remains for callers and
        tests that consult the policy explicitly.
        """
        return instr.attr_tag

    # -- per-op dispatch targets (bound via the module-level _DISPATCH
    #    table; each returns the instruction's cycle cost) --------------- #

    def _op_alu(self, instr: Instruction) -> int:
        return self.costs.alu

    def _op_work(self, instr: Instruction) -> int:
        return instr.value

    def _op_nop(self, instr: Instruction) -> int:
        return self.costs.nop

    def _op_mul(self, instr: Instruction) -> int:
        return self.costs.mul

    def _op_div(self, instr: Instruction) -> int:
        self.counters.bump(ctr.DIVIDER_ACTIVE, self.costs.div)
        return self.costs.div

    def _op_cmov(self, instr: Instruction) -> int:
        return self.costs.cmov

    def _op_pause(self, instr: Instruction) -> int:
        return self.costs.pause

    def _op_clflush(self, instr: Instruction) -> int:
        self.caches.flush_line(instr.address)
        return self.costs.clflush

    def _op_indirect(self, instr: Instruction) -> int:
        cycles = self._execute_indirect(instr)
        if instr.op is Op.CALL_INDIRECT:
            self.rsb.push(instr.pc)
        return cycles

    def _op_call(self, instr: Instruction) -> int:
        self.rsb.push(instr.pc)
        self.bhb.push(instr.pc)
        return self.costs.call

    def _op_lfence(self, instr: Instruction) -> int:
        return self.costs.lfence

    def _op_verw(self, instr: Instruction) -> int:
        return self._execute_verw()

    def _op_rsb_fill(self, instr: Instruction) -> int:
        self.rsb.stuff()
        return self.costs.rsb_fill

    def _op_syscall(self, instr: Instruction) -> int:
        return self._execute_syscall_entry()

    def _op_sysret(self, instr: Instruction) -> int:
        previous = self.mode
        self.mode = Mode.GUEST_USER if self.mode.is_guest else Mode.USER
        if self.leakage is not None:
            self.leakage.on_boundary(previous, self.mode)
        return self.costs.sysret

    def _op_swapgs(self, instr: Instruction) -> int:
        return self.costs.swapgs

    def _op_mov_cr3(self, instr: Instruction) -> int:
        invalidated = self.tlb.switch_context(pcid=instr.value)
        return self.costs.swap_cr3 + invalidated // 8  # shootdown refill drag

    def _op_rdmsr(self, instr: Instruction) -> int:
        return self.costs.rdmsr

    def _op_xsave(self, instr: Instruction) -> int:
        return self.costs.xsave

    def _op_xrstor(self, instr: Instruction) -> int:
        return self.costs.xrstor

    def _op_l1d_flush(self, instr: Instruction) -> int:
        self.msr.write(msrdef.IA32_FLUSH_CMD, msrdef.L1D_FLUSH_BIT)
        return self.costs.l1d_flush

    def _op_vmenter(self, instr: Instruction) -> int:
        previous = self.mode
        self.mode = Mode.GUEST_KERNEL
        if self.leakage is not None:
            self.leakage.on_boundary(previous, self.mode)
        return self.costs.vmenter

    def _op_vmexit(self, instr: Instruction) -> int:
        previous = self.mode
        self.mode = Mode.KERNEL
        self.counters.bump(ctr.VM_EXITS)
        if self.leakage is not None:
            self.leakage.on_boundary(previous, self.mode)
        return self.costs.vmexit

    def _op_rdtsc(self, instr: Instruction) -> int:
        return self.costs.rdtsc

    def _op_rdpmc(self, instr: Instruction) -> int:
        return self.costs.rdpmc

    def charge(self, cycles: int, mitigation: Optional[str] = None,
               primitive: Optional[str] = None) -> int:
        """Charge raw cycles (no instruction) with ledger attribution.

        For cost sites that advance the TSC directly — exception-vector
        overhead, lazy-FPU traps, TLB shootdown drag — so their cycles
        stay attributed instead of landing in base/other.
        """
        ledger = self.ledger
        if ledger is None:
            self.counters.add_cycles(cycles)
        else:
            ledger.set_tag(mitigation, primitive)
            self.counters.add_cycles(cycles)
            ledger.clear_tag()
        return cycles

    # -- op helpers ----------------------------------------------------- #

    def _execute_load(self, instr: Instruction) -> int:
        if instr.kernel_address and not self.mode.is_kernel:
            # Architectural access to kernel memory from user mode faults.
            # (Transient accesses go through _transient_load instead.)
            raise SegmentationFault(instr.address, str(self.mode))
        costs = self.costs
        cycles = 0
        if not self.tlb.access(instr.address):
            self.counters.bump(ctr.TLB_MISSES)
            cycles += costs.tlb_miss
        if self.store_buffer.match(instr.address):
            if self.msr.ssbd_enabled:
                # SSBD: the load must wait for older store addresses.
                self.counters.bump(ctr.STLF_BLOCKED)
                if self.leakage is not None:
                    self.leakage.on_stlf_blocked(instr.address)
                level = self.caches.access(instr.address)
                penalty = self.cpu.ssbd_load_penalty
                cycles += self._load_latency(level) + penalty
                if self.ledger is not None:
                    self.ledger.add_split(penalty, "ssbd", "stlf_block")
            else:
                self.counters.bump(ctr.STLF_HITS)
                self.caches.access(instr.address)  # line still warms
                cycles += costs.store_forward
        else:
            level = self.caches.access(instr.address)
            cycles += self._load_latency(level)
        self.mds_buffers.deposit_load(instr.value or instr.address, self.mode)
        return cycles

    def _load_latency(self, level: int) -> int:
        costs = self.costs
        if level == 1:
            return costs.load_l1
        if level == 2:
            self.counters.bump(ctr.L1_MISSES)
            return costs.load_l2
        self.counters.bump(ctr.L1_MISSES)
        return costs.load_mem

    def _execute_store(self, instr: Instruction) -> int:
        cycles = self.costs.store
        if not self.tlb.access(instr.address):
            self.counters.bump(ctr.TLB_MISSES)
            cycles += self.costs.tlb_miss
        self.caches.access(instr.address)  # write-allocate
        self.store_buffer.push(instr.address, instr.value)
        self.mds_buffers.deposit_store(instr.value or instr.address, self.mode)
        return cycles

    def _execute_cond_branch(self, instr: Instruction) -> int:
        """A conditional branch through the 2-bit predictor.

        ``instr.value`` is the architectural outcome (1 = taken); a
        mispredicted not-taken branch whose *taken* path has registered
        code runs that path transiently — the Spectre V1 front door.
        """
        self.bhb.push(instr.pc)
        taken = bool(instr.value)
        predicted = self.cond_predictor.predict(instr.pc)
        self.cond_predictor.update(instr.pc, taken)
        cycles = self.costs.cond_branch
        if predicted != taken:
            cycles += self.costs.mispredict_penalty
            if predicted and instr.target:
                # Wrongly predicted taken: the taken-path body runs
                # transiently (the mistrained bounds check).
                leakage = self.leakage
                if leakage is not None:
                    leakage.window_begin(obs_leakage.SPECTRE_PHT, self.mode,
                                         target=instr.target)
                self._transient_window(instr.target)
                if leakage is not None:
                    leakage.window_end()
        return cycles

    def _indirect_prediction_allowed(self) -> bool:
        """Does this CPU consult the BTB for indirect branches right now?

        Encodes the section-6 policy matrix: plain parts always predict;
        IBRS on pre-eIBRS parts (and Zen 2/3) blocks all prediction; Ice
        Lake Client with IBRS set stops predicting in kernel mode.
        """
        behavior = self.cpu.predictor
        if not self.msr.ibrs_enabled:
            return True
        if behavior.ibrs_blocks_all_prediction and not behavior.supports_eibrs:
            return False
        if behavior.supports_eibrs:
            if behavior.eibrs_blocks_kernel_prediction and self.mode.is_kernel:
                return False
            return True
        return True

    def _execute_indirect(self, instr: Instruction) -> int:
        costs = self.costs
        self.bhb.push(instr.pc)

        if instr.retpoline:
            # Retpolines never consult or train the BTB; they simply cost
            # more (Table 5) and are unpoisonable by construction.
            extra = self._retpoline_extra()
            if self.ledger is not None:
                self.ledger.add_split(extra, "spectre_v2", "retpoline")
            if self.leakage is not None:
                self.leakage.on_predictor_bypass(instr.pc, "retpoline")
            return costs.indirect_base + extra

        if not self._indirect_prediction_allowed():
            # IBRS is suppressing prediction: pay the Table 5 IBRS delta.
            extra = costs.ibrs_extra if costs.ibrs_extra is not None else 0
            if self.ledger is not None:
                self.ledger.add_split(extra, "spectre_v2", "ibrs_no_predict")
            if self.leakage is not None:
                self.leakage.on_predictor_bypass(instr.pc, "ibrs_no_predict")
            self.btb.train(instr.pc, instr.target, self.mode,
                           thread=self.thread_id)
            return costs.indirect_base + extra

        predicted = self.btb.lookup(instr.pc, self.mode,
                                    thread=self.thread_id,
                                    stibp=self.msr.stibp_enabled)
        cycles = costs.indirect_base
        if self.msr.eibrs_active and costs.ibrs_extra:
            cycles += costs.ibrs_extra
            if self.ledger is not None:
                self.ledger.add_split(costs.ibrs_extra, "spectre_v2", "eibrs")
        leakage = self.leakage
        if predicted is None:
            self.counters.bump(ctr.BTB_MISSES)
            cycles += costs.mispredict_penalty
            if leakage is not None:
                # A tainted entry may exist but be invisible here (mode
                # tagging, STIBP): hardware isolation blocked the redirect.
                leakage.on_redirect_suppressed(instr.pc)
        elif predicted == instr.target:
            self.counters.bump(ctr.BTB_HITS)
        else:
            # Mispredict: transient execution runs at the *redirect* target
            # (None on Zen 3, where the probe could never land).
            self.counters.bump(ctr.MISPREDICTED_INDIRECT)
            cycles += costs.mispredict_penalty
            redirect = self.btb.redirect_target(
                instr.pc, self.mode, thread=self.thread_id,
                stibp=self.msr.stibp_enabled)
            if redirect is not None:
                if leakage is not None:
                    leakage.window_begin(obs_leakage.SPECTRE_BTB, self.mode,
                                         pc=instr.pc, target=redirect)
                self._transient_window(redirect)
                if leakage is not None:
                    leakage.window_end()
            elif leakage is not None:
                leakage.on_redirect_suppressed(instr.pc)
        self.btb.train(instr.pc, instr.target, self.mode,
                       thread=self.thread_id)
        return cycles

    def _retpoline_extra(self) -> int:
        costs = self.costs
        if self.retpoline_variant == AMD_RETPOLINE:
            if costs.amd_retpoline_extra is None:
                raise UnsupportedFeatureError(
                    f"AMD retpolines are not modelled for {self.cpu.key} "
                    "(the paper only measures them on AMD parts)"
                )
            return costs.amd_retpoline_extra
        return costs.generic_retpoline_extra

    def _execute_ret(self, instr: Instruction) -> int:
        costs = self.costs
        self.bhb.push(instr.pc)
        predicted = self.rsb.pop()
        leakage = self.leakage
        if predicted is None:
            # Underflow: Skylake+ Intel falls back to the BTB (the
            # SpectreRSB surface); others stall.
            if self.rsb.underflow_falls_back_to_btb and self._indirect_prediction_allowed():
                redirect = self.btb.redirect_target(
                    instr.pc, self.mode, thread=self.thread_id,
                    stibp=self.msr.stibp_enabled)
                if redirect is not None and redirect != instr.target:
                    self.counters.bump(ctr.MISPREDICTED_INDIRECT)
                    if leakage is not None:
                        leakage.window_begin(obs_leakage.SPECTRE_RSB,
                                             self.mode, pc=instr.pc,
                                             target=redirect)
                    self._transient_window(redirect)
                    if leakage is not None:
                        leakage.window_end()
            return costs.ret_ + costs.mispredict_penalty
        if predicted == instr.target:
            return costs.ret_
        # Stale or benign entry: mispredicted return.
        self.counters.bump(ctr.MISPREDICTED_INDIRECT)
        if predicted != BENIGN_ENTRY:
            if leakage is not None:
                leakage.window_begin(obs_leakage.SPECTRE_RSB, self.mode,
                                     target=predicted)
            self._transient_window(predicted)
            if leakage is not None:
                leakage.window_end()
        return costs.ret_ + costs.mispredict_penalty

    def _execute_wrmsr(self, instr: Instruction) -> int:
        """MSR writes: cost depends on which MSR (IBPB and L1D flush are
        command MSRs with their own, much larger, calibrated costs)."""
        self.msr.write(instr.msr, instr.value)
        if instr.msr == msrdef.IA32_PRED_CMD and instr.value & msrdef.PRED_CMD_IBPB:
            return self.costs.ibpb
        if instr.msr == msrdef.IA32_FLUSH_CMD and instr.value & msrdef.L1D_FLUSH_BIT:
            return self.costs.l1d_flush
        return self.costs.wrmsr

    def _execute_verw(self) -> int:
        clearing = (
            self.cpu.vulns.mds
            and self.microcode_patched
            and self.costs.verw_clear is not None
        )
        if clearing:
            self.mds_buffers.clear()
            self.counters.bump(ctr.VERW_CLEARS)
            return self.costs.verw_clear  # type: ignore[return-value]
        return self.costs.verw_legacy

    def _execute_syscall_entry(self) -> int:
        previous = self.mode
        self.mode = Mode.GUEST_KERNEL if self.mode.is_guest else Mode.KERNEL
        if self.leakage is not None:
            self.leakage.on_boundary(previous, self.mode)
        self.counters.bump(ctr.KERNEL_ENTRIES)
        cycles = self.costs.syscall
        behavior = self.cpu.predictor
        if behavior.eibrs_periodic_scrub and self.msr.eibrs_active:
            if self._scrub_probe is not None:
                self._scrub_probe.count(self._scrub_probe_slot)
            self._scrub_countdown -= 1
            if self._scrub_countdown <= 0:
                self._scrub_countdown = self._next_scrub_interval()
                self.btb.flush()
                self.counters.bump(ctr.BTB_FLUSH_ON_ENTRY)
                cycles += behavior.eibrs_scrub_extra_cycles
                if self.ledger is not None:
                    self.ledger.add_split(behavior.eibrs_scrub_extra_cycles,
                                          "spectre_v2", "eibrs_scrub")
        return cycles

    # ------------------------------------------------------------------ #
    # Transient (wrong-path) execution
    # ------------------------------------------------------------------ #

    def speculate(self, block: Sequence[Instruction]) -> int:
        """Execute ``block`` transiently, as if down a mispredicted path.

        Public entry point used by the attack demonstrations and the JS
        sandbox model: it is the machine-level analogue of "the processor
        speculatively executed the body of the if statement".  Returns the
        number of instructions that executed before the window closed
        (serializing instruction, blocked access, or window exhaustion).
        No committed cycles are charged.
        """
        leakage = self.leakage
        if leakage is not None:
            leakage.window_begin(obs_leakage.SPECTRE_PHT, self.mode)
        budget = self.cpu.spec_window
        executed = 0
        for instr in block:
            if budget <= 0:
                break
            if instr.op in SERIALIZING_OPS:
                if leakage is not None and instr.op is Op.LFENCE:
                    leakage.on_lfence()
                break
            if instr.op is Op.LOAD and instr.kernel_address and not self.mode.is_kernel:
                # A blocked privileged access also ends the window unless
                # the Meltdown predicate lets it through transiently.
                if not (self.cpu.vulns.meltdown and self.kernel_mapped_in_user):
                    break
            budget -= 1
            executed += 1
            self._execute_transient(instr)
        if leakage is not None:
            leakage.window_end()
        if self.obs.enabled:
            self.obs.instant("cpu.transient_window", origin="speculate",
                             executed=executed, mode=str(self.mode))
        return executed

    def _transient_window(self, target: int) -> None:
        """Run wrong-path execution starting at ``target``.

        Costs no committed cycles (the mispredict penalty already accounts
        for the wasted time) but leaves microarchitectural side effects.
        """
        block = self.program.get(target)
        if not block:
            return
        leakage = self.leakage
        budget = self.cpu.spec_window
        executed = 0
        for instr in block:
            if budget <= 0:
                break
            if instr.op in SERIALIZING_OPS:
                if leakage is not None and instr.op is Op.LFENCE:
                    leakage.on_lfence()
                break  # serializing instructions end the window
            budget -= 1
            executed += 1
            self._execute_transient(instr)
        if self.obs.enabled:
            self.obs.instant("cpu.transient_window", origin="mispredict",
                             target=target, executed=executed,
                             mode=str(self.mode))

    def _execute_transient(self, instr: Instruction) -> None:
        """One wrong-path instruction: side effects plus a *modeled* cycle
        cost reported to the tracer (the cycles the wasted issue slots
        would have taken — never charged to the committed TSC)."""
        op = instr.op
        costs = self.costs
        self.counters.bump(ctr.TRANSIENT_INSTRUCTIONS)
        cycles = 0
        if op is Op.DIV:
            # The probe signal: the divider is busy even on the wrong path.
            self.counters.bump(ctr.DIVIDER_ACTIVE, costs.div)
            if self.leakage is not None:
                self.leakage.on_transient_div()
            cycles = costs.div
        elif op is Op.LOAD:
            cycles = self._transient_load(instr)
        elif op is Op.STORE:
            # Transient stores never reach memory but do leave store-buffer
            # residue visible to MDS sampling.
            self.mds_buffers.deposit_store(instr.value or instr.address, self.mode)
            cycles = costs.store
        elif op is Op.CMOV:
            # With a poisoned (zeroed) index the masking cmov redirects
            # downstream transient loads to a safe address — modelled by the
            # JIT layer, which simply omits the dangerous load.
            cycles = costs.cmov
        elif op is Op.ALU:
            cycles = costs.alu
        elif op is Op.WORK:
            cycles = instr.value
        elif op is Op.NOP:
            cycles = costs.nop
        elif op is Op.MUL:
            cycles = costs.mul
        elif op is Op.PAUSE:
            cycles = costs.pause
        # Other ops have no modelled transient cost or side effects.
        if self.tracer is not None:
            self.tracer(instr, cycles, True, self.mode)

    def _transient_load(self, instr: Instruction) -> int:
        if instr.kernel_address and not self.mode.is_kernel:
            # Meltdown predicate: the transient read succeeds only on a
            # vulnerable part with the kernel mapped into the user page
            # tables (i.e. KPTI off).
            if not (self.cpu.vulns.meltdown and self.kernel_mapped_in_user):
                return 0
        level = self.caches.access(instr.address)  # the cache side channel
        self.transient_loads.append(instr.address)
        self.mds_buffers.deposit_load(instr.value or instr.address, self.mode)
        if self.leakage is not None:
            self.leakage.on_transient_load(
                instr.address, bool(instr.kernel_address), self.mode)
        # Modeled latency only — no miss-counter bumps: PMCs other than the
        # divider only advance at retirement.
        if level == 1:
            return self.costs.load_l1
        if level == 2:
            return self.costs.load_l2
        return self.costs.load_mem

    # ------------------------------------------------------------------ #
    # Measurement harness (the paper's rdtsc timed-loop methodology)
    # ------------------------------------------------------------------ #

    def measure(
        self,
        body: Sequence[Instruction],
        iterations: int = 1000,
        warmup: int = 32,
    ) -> float:
        """Average per-iteration cycle cost of ``body``, rdtsc-style.

        Mirrors the paper's section 5 methodology: run the sequence in a
        loop bracketed by timestamp counter reads, subtract the measured
        empty-loop overhead, and average over many iterations.  ``body``
        instructions are re-executed each iteration, so steady-state cache
        and predictor behaviour emerges naturally after ``warmup``.
        """
        loop_overhead = self.costs.cond_branch + self.costs.alu

        for _ in range(warmup):
            self.run(body)

        start = self.counters.tsc
        self.counters.add_cycles(self.costs.rdtsc)
        for _ in range(iterations):
            self.run(body)
            self.counters.add_cycles(loop_overhead)
        self.counters.add_cycles(self.costs.rdtsc)
        elapsed = self.counters.tsc - start

        overhead = 2 * self.costs.rdtsc + iterations * loop_overhead
        return (elapsed - overhead) / iterations

    def read_tsc(self) -> int:
        """Current value of the simulated timestamp counter."""
        return self.counters.tsc


#: Op-indexed dispatch table for the committed path: one dict lookup per
#: instruction instead of a ~30-arm if/elif scan.  Built once at import;
#: entries are plain functions called as handler(machine, instr).
_DISPATCH = {
    Op.ALU: Machine._op_alu,
    Op.WORK: Machine._op_work,
    Op.NOP: Machine._op_nop,
    Op.MUL: Machine._op_mul,
    Op.DIV: Machine._op_div,
    Op.CMOV: Machine._op_cmov,
    Op.PAUSE: Machine._op_pause,
    Op.LOAD: Machine._execute_load,
    Op.STORE: Machine._execute_store,
    Op.CLFLUSH: Machine._op_clflush,
    Op.BRANCH_COND: Machine._execute_cond_branch,
    Op.BRANCH_INDIRECT: Machine._op_indirect,
    Op.CALL_INDIRECT: Machine._op_indirect,
    Op.CALL: Machine._op_call,
    Op.RET: Machine._execute_ret,
    Op.LFENCE: Machine._op_lfence,
    Op.VERW: Machine._op_verw,
    Op.RSB_FILL: Machine._op_rsb_fill,
    Op.SYSCALL: Machine._op_syscall,
    Op.SYSRET: Machine._op_sysret,
    Op.SWAPGS: Machine._op_swapgs,
    Op.MOV_CR3: Machine._op_mov_cr3,
    Op.WRMSR: Machine._execute_wrmsr,
    Op.RDMSR: Machine._op_rdmsr,
    Op.XSAVE: Machine._op_xsave,
    Op.XRSTOR: Machine._op_xrstor,
    Op.L1D_FLUSH: Machine._op_l1d_flush,
    Op.VMENTER: Machine._op_vmenter,
    Op.VMEXIT: Machine._op_vmexit,
    Op.RDTSC: Machine._op_rdtsc,
    Op.RDPMC: Machine._op_rdpmc,
}
