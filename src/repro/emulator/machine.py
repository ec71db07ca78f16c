"""The RV32IM emulator: pre-decoded, table-dispatched guest replay.

Executes an :class:`~repro.backend.isa.AssemblyProgram` and records a
:class:`~repro.emulator.trace.TraceStats` summary, optionally timing the run
on an attached :class:`~repro.cpu.CpuTimingModel`.  This mirrors the role of
the zkVM *executor*: replay the guest and produce the execution trace that
the proving cost models consume.

Every figure, table and autotuner generation in this reproduction bottoms out
here, so the hot loop is engineered for interpreter throughput:

* the program is lowered once by :mod:`~repro.emulator.decoder` into a flat
  stream of pre-decoded tuples (integer handler ids, register slots, resolved
  targets, bound ALU/branch callables) shared across machines and runs;
* :meth:`Machine.run` has two loops over that stream: the **fast path** when
  no model is attached, and the **timed path** when a ``CpuTimingModel`` is,
  which runs the same dispatch with the model's rules inlined over integer
  state (a ready cycle per register slot, per-set cache line lists, a list
  of predictor counters), so the loop touches only addresses and branch
  outcomes;
* per-instruction opcode/class statistics are deferred: the loop bumps one
  flat integer counter per static instruction and the dict-shaped
  :class:`TraceStats` fields are folded once at halt;
* the per-segment paging flush runs off a countdown instead of evaluating
  ``instructions % segment_size`` on every instruction, and partial trailing
  segments (run lengths that are not a multiple of ``segment_size``) are
  flushed exactly once at halt.

The original seed interpreter survives verbatim as
:class:`~repro.emulator.reference.ReferenceMachine`, and it still drives the
observer ``CpuTimingModel.on_instruction``; the differential tests assert
both produce identical traces, outputs and ``CpuMetrics``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..backend.isa import AssemblyProgram
from ..backend.lowering import HOST_CALL_IDS, STACK_TOP
from ..cpu.x86_model import CpuTimingModel
from ..zkvm.precompiles import HOST_CALL_ARITY, interpret_host_call
from .decoder import (
    CONDITIONAL_KINDS, DecodedProgram, K_ADD, K_ADDI, K_ALU_RI, K_ALU_RR,
    K_BAD, K_BEQZ, K_BNEZ, K_BR, K_CALL, K_ECALL, K_J, K_JAL, K_JALR, K_LI,
    K_LW, K_MV, K_NOP, K_SW, RETURN_SENTINEL, WORD_MASK, decode_program,
    to_signed,
)
from .trace import PAGE_SIZE, TraceStats

#: Reverse host-call table: ecall id -> name.  The arity of each call lives in
#: :data:`~repro.zkvm.precompiles.HOST_CALL_ARITY` right alongside (imported
#: above) so the ecall handler never rebuilds either mapping.
HOST_CALL_NAMES = {v: k for k, v in HOST_CALL_IDS.items()}

#: Pages are 1 KiB; the hot loop computes page numbers with a shift.
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
assert (1 << _PAGE_SHIFT) == PAGE_SIZE, "PAGE_SIZE must be a power of two"

class EmulationError(Exception):
    """Raised on invalid guest behaviour (unknown opcode, bad call target, ...)."""


class Machine:
    """A single-hart RV32IM machine with a flat word-addressed memory.

    The register file is a plain list indexed by the decoder's register
    slots (``zero`` is slot 0 and always reads 0); :meth:`get` / :meth:`set`
    translate ABI names for host calls and external callers.

    ``observers`` holds at most one :class:`~repro.cpu.CpuTimingModel`,
    which the run times in place; call its ``finalize()`` afterwards.  Any
    other per-instruction observer needs the event stream that only
    :class:`~repro.emulator.reference.ReferenceMachine` produces.
    """

    def __init__(self, program: AssemblyProgram, max_instructions: int = 50_000_000,
                 observers: Iterable[CpuTimingModel] = (), segment_size: int = 1 << 16,
                 input_values: Optional[list[int]] = None):
        self.program = program
        self.decoded: DecodedProgram = decode_program(program)
        self.max_instructions = max_instructions
        self.observers = list(observers)
        # Exact type: the timed loop inlines CpuTimingModel's own rules, so
        # a subclass overriding them would be silently ignored.
        if len(self.observers) > 1 or any(
                type(observer) is not CpuTimingModel for observer in self.observers):
            raise TypeError(
                f"{type(self).__name__} accepts at most one observer, a "
                "CpuTimingModel; drive other observers with ReferenceMachine")
        self.segment_size = segment_size
        self.input_values = input_values
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """(Re)initialise everything one ``run()`` mutates.

        Called from ``__init__`` and again at the top of :meth:`run`, so a
        second ``run()`` on the same instance starts from exactly the state a
        fresh machine would: no leftover memory writes, per-pc counters,
        segment page sets or segment-countdown phase from the previous run.
        """
        self.registers: List[int] = [0] * self.decoded.num_slots
        self.memory: dict[int, int] = dict(self.program.globals_init)
        self.stats = TraceStats()
        self.output: list[int] = []
        # Pages touched in the open segment (flushed into the stats' paging
        # events at each segment boundary and at halt).
        self._segment_pages_read: set[int] = set()
        self._segment_pages_written: set[int] = set()
        # Deferred statistics: executions (and taken branches) per static
        # instruction, folded into TraceStats dicts once at halt.
        size = len(self.decoded.code)
        self._exec_counts: List[int] = [0] * size
        self._taken_counts: List[int] = [0] * size
        self._executed = 0
        self._extra_registers: dict[str, int] = {}
        self._ran = False

    # -- memory interface shared with the host-call implementations ----------
    def _read_word(self, address: int) -> int:
        return self.memory.get(address & WORD_MASK & ~3, 0)

    def _write_word(self, address: int, value: int) -> None:
        self.memory[address & WORD_MASK & ~3] = value & WORD_MASK

    # -- register access (name-based, for host calls and external callers) ----
    def get(self, register: str) -> int:
        if register == "zero":
            return 0
        slot = self.decoded.slots.get(register)
        if slot is None:
            return self._extra_registers.get(register, 0)
        return self.registers[slot]

    def set(self, register: str, value: int) -> None:
        if register == "zero":
            return
        slot = self.decoded.slots.get(register)
        if slot is None:
            self._extra_registers[register] = value & WORD_MASK
        else:
            self.registers[slot] = value & WORD_MASK

    # -- main loop ------------------------------------------------------------
    def run(self, entry: str = "main", args: Optional[list[int]] = None) -> TraceStats:
        decoded = self.decoded
        if entry not in decoded.entries:
            raise EmulationError(f"no such function: {entry}")
        if self._ran:
            # Re-running one instance must behave like a fresh machine: no
            # carried-over memory, counters, segment page sets or countdown.
            self._reset_run_state()
        self._ran = True
        regs = self.registers
        for index, value in enumerate((args or [])[:8]):
            regs[10 + index] = value & WORD_MASK            # a0..a7
        regs[2] = STACK_TOP                                 # sp
        regs[1] = RETURN_SENTINEL                           # ra
        pc = decoded.entries[entry]
        try:
            if self.observers:
                self._run_timed(pc, self.observers[0])
            else:
                self._run_fast(pc)
        finally:
            # Fold the flat counters into TraceStats even when the guest
            # faulted, so partial traces stay inspectable (as they were when
            # the stats dicts were updated per instruction).
            self._fold_stats()
        self._flush_segment()
        stats = self.stats
        stats.return_value = to_signed(regs[10])
        stats.output = list(self.output)
        return stats

    # -- the fast path: no CPU model attached ----------------------------------
    def _run_fast(self, pc: int) -> None:
        decoded = self.decoded
        code = decoded.code
        regs = self.registers
        memory = self.memory
        mem_get = memory.get
        seg_read_add = self._segment_pages_read.add
        seg_write_add = self._segment_pages_written.add
        ec = self._exec_counts
        tc = self._taken_counts
        seg_size = self.segment_size
        limit = self.max_instructions
        executed = self._executed
        seg_left = seg_size - executed % seg_size
        M = WORD_MASK
        SENTINEL = RETURN_SENTINEL
        # Handler ids as locals: the ladder below tests them in rough
        # descending order of dynamic frequency.
        ADDI, ADD, ALU_RR, ALU_RI, LW, SW, BR, MV, LI, BEQZ, BNEZ, J, CALL, \
            JAL, JALR, ECALL, NOP, BAD = (
                K_ADDI, K_ADD, K_ALU_RR, K_ALU_RI, K_LW, K_SW, K_BR, K_MV,
                K_LI, K_BEQZ, K_BNEZ, K_J, K_CALL, K_JAL, K_JALR, K_ECALL,
                K_NOP, K_BAD)

        try:
            while pc != SENTINEL:
                ins = code[pc]
                if executed >= limit:
                    raise EmulationError(f"instruction limit exceeded ({limit})")
                ec[pc] += 1
                executed += 1
                k = ins[0]
                if k == ADDI:
                    rd = ins[1]
                    if rd:
                        regs[rd] = (regs[ins[2]] + ins[3]) & M
                    pc += 1
                elif k == ADD:
                    rd = ins[1]
                    if rd:
                        regs[rd] = (regs[ins[2]] + regs[ins[3]]) & M
                    pc += 1
                elif k == ALU_RR:
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4](regs[ins[2]], regs[ins[3]])
                    pc += 1
                elif k == ALU_RI:
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4](regs[ins[2]], ins[3])
                    pc += 1
                elif k == LW:
                    address = (regs[ins[3]] + ins[2]) & M
                    seg_read_add(address >> _PAGE_SHIFT)
                    rd = ins[1]
                    if rd:
                        regs[rd] = mem_get(address & 0xFFFFFFFC, 0) & M
                    pc += 1
                elif k == SW:
                    address = (regs[ins[3]] + ins[2]) & M
                    seg_write_add(address >> _PAGE_SHIFT)
                    memory[address & 0xFFFFFFFC] = regs[ins[1]]
                    pc += 1
                elif k == BR:
                    if ins[4](regs[ins[1]], regs[ins[2]]):
                        tc[pc] += 1
                        target = ins[3]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        pc = target
                    else:
                        pc += 1
                elif k == MV:
                    rd = ins[1]
                    if rd:
                        regs[rd] = regs[ins[2]]
                    pc += 1
                elif k == LI:
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[2]
                    pc += 1
                elif k == BEQZ:
                    if regs[ins[1]] == 0:
                        tc[pc] += 1
                        target = ins[2]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        pc = target
                    else:
                        pc += 1
                elif k == BNEZ:
                    if regs[ins[1]] != 0:
                        tc[pc] += 1
                        target = ins[2]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        pc = target
                    else:
                        pc += 1
                elif k == J:
                    target = ins[1]
                    if target < 0:
                        raise EmulationError(
                            f"unknown label: {decoded.unresolved[pc]}")
                    pc = target
                elif k == CALL:
                    target = ins[1]
                    if target < 0:   # faults before the link write (ref order)
                        raise EmulationError(
                            f"call to unknown function: {decoded.unresolved[pc]}")
                    regs[1] = ins[2]                        # ra = link
                    pc = target
                elif k == JAL:
                    rd = ins[1]
                    if rd:           # link is written before the fault check,
                        regs[rd] = ins[3]                   # as in the reference
                    target = ins[2]
                    if target < 0:
                        raise EmulationError(
                            f"unknown label: {decoded.unresolved[pc]}")
                    pc = target
                elif k == JALR:
                    target = (regs[ins[2]] + ins[3]) & M
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4]
                    pc = target
                elif k == ECALL:
                    self._ecall()
                    pc += 1
                elif k == NOP:
                    pc += 1
                elif k == BAD:
                    if not ins[3]:
                        ec[pc] -= 1
                        executed -= 1
                    raise (EmulationError(ins[2]) if ins[1]
                           else ValueError(ins[2]))
                else:  # pragma: no cover - decoder emits only known kinds
                    raise EmulationError(f"unknown handler id: {k}")

                seg_left -= 1
                if not seg_left:
                    seg_left = seg_size
                    self._flush_segment()
        except IndexError:
            if not 0 <= pc < len(code):
                raise EmulationError(
                    f"program counter out of range: {pc}") from None
            raise
        finally:
            self._executed = executed

    # -- the timed path: the CPU timing model fused into the dispatch ---------
    def _run_timed(self, pc: int, model: CpuTimingModel) -> None:
        """The fast path's dispatch with ``model``'s timing rules inlined.

        :meth:`CpuTimingModel.on_instruction` is the specification and, driven
        by :class:`~repro.emulator.reference.ReferenceMachine`, the test
        oracle.  Here the same rules run over integer state:

        * per-pc static facts: the latency of each instruction's class, from
          ``model.config``; the source and destination register slots come
          straight from the decoded tuples (slot 0, ``zero``, is never
          written, so its ready cycle stays 0 and never stalls an issue);
        * ``ready``, the cycle each register slot's value is ready, and the
          front end's ``cycle`` with ``left`` issue slots in it;
        * per-set lists of cache line numbers, most recently used first and
          pre-filled with ``-1`` so a probe never meets an empty set;
        * a list of 2-bit predictor counters indexed by ``pc % table_size``.

        As in the reference, only instructions that complete are timed: each
        handler writes ready cycles, cache and predictor state after its last
        fault check.  The issue-width bump that the reference makes at the
        start of an instruction is made at the end of the previous one and
        undone after the last.  A store has no destination, so its latency
        (and the store-miss penalty) never reaches a ready cycle and is not
        computed.  At exit the totals ``finalize()`` reads land on ``model``,
        its cache and its predictor, also when the guest faulted.
        """
        if model.instructions:
            raise ValueError(
                f"this CpuTimingModel already timed {model.instructions} "
                "instructions; attach a fresh model to each run")
        config = model.config
        WIDTH = config.issue_width
        if WIDTH < 1:
            raise ValueError(f"issue_width must be at least 1, not {WIDTH}")
        decoded = self.decoded
        code = decoded.code
        regs = self.registers
        memory = self.memory
        mem_get = memory.get
        seg_read_add = self._segment_pages_read.add
        seg_write_add = self._segment_pages_written.add
        ec = self._exec_counts
        tc = self._taken_counts
        seg_size = self.segment_size
        limit = self.max_instructions
        # Counts completed instructions only (bumped at the end of the loop
        # body), so it is also the number the model timed.
        executed = self._executed
        seg_left = seg_size - executed % seg_size
        M = WORD_MASK
        SENTINEL = RETURN_SENTINEL
        ADDI, ADD, ALU_RR, ALU_RI, LW, SW, BR, MV, LI, BEQZ, BNEZ, J, CALL, \
            JAL, JALR, ECALL, NOP, BAD = (
                K_ADDI, K_ADD, K_ALU_RR, K_ALU_RI, K_LW, K_SW, K_BR, K_MV,
                K_LI, K_BEQZ, K_BNEZ, K_J, K_CALL, K_JAL, K_JALR, K_ECALL,
                K_NOP, K_BAD)

        latency = config.latency
        lat = [latency.get(cls, 1) for cls in decoded.classes]
        LOAD_MISS = config.l1_miss_penalty
        MISPREDICT = config.mispredict_penalty
        cache = model.cache
        LINE = cache.line_bytes
        SETS = cache.sets
        lines = [[-1] * cache.ways for _ in range(SETS)]
        predictor = model.predictor
        TABLE = predictor.table_size
        counters = [1] * TABLE
        ready = [0] * decoded.num_slots
        cycle = 0
        left = WIDTH
        hits = misses = correct = mispredicted = 0

        try:
            while pc != SENTINEL:
                ins = code[pc]
                if executed >= limit:
                    raise EmulationError(f"instruction limit exceeded ({limit})")
                ec[pc] += 1
                k = ins[0]
                if k == ADDI:
                    rs = ins[2]
                    r = ready[rs]
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    rd = ins[1]
                    if rd:
                        regs[rd] = (regs[rs] + ins[3]) & M
                        ready[rd] = cycle + lat[pc]
                    pc += 1
                elif k == ADD:
                    rs = ins[2]
                    rt = ins[3]
                    r = ready[rs]
                    r2 = ready[rt]
                    if r2 > r:
                        r = r2
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    rd = ins[1]
                    if rd:
                        regs[rd] = (regs[rs] + regs[rt]) & M
                        ready[rd] = cycle + lat[pc]
                    pc += 1
                elif k == ALU_RR:
                    rs = ins[2]
                    rt = ins[3]
                    r = ready[rs]
                    r2 = ready[rt]
                    if r2 > r:
                        r = r2
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4](regs[rs], regs[rt])
                        ready[rd] = cycle + lat[pc]
                    pc += 1
                elif k == ALU_RI:
                    rs = ins[2]
                    r = ready[rs]
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4](regs[rs], ins[3])
                        ready[rd] = cycle + lat[pc]
                    pc += 1
                elif k == LW:
                    base = ins[3]
                    address = (regs[base] + ins[2]) & M
                    seg_read_add(address >> _PAGE_SHIFT)
                    r = ready[base]
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    line = address // LINE
                    entries = lines[line % SETS]
                    wait = lat[pc]
                    if entries[0] == line:
                        hits += 1
                    elif line in entries:
                        entries.remove(line)
                        entries.insert(0, line)
                        hits += 1
                    else:
                        entries.insert(0, line)
                        entries.pop()
                        misses += 1
                        wait += LOAD_MISS
                    rd = ins[1]
                    if rd:
                        regs[rd] = mem_get(address & 0xFFFFFFFC, 0) & M
                        ready[rd] = cycle + wait
                    pc += 1
                elif k == SW:
                    rs = ins[1]
                    base = ins[3]
                    address = (regs[base] + ins[2]) & M
                    seg_write_add(address >> _PAGE_SHIFT)
                    memory[address & 0xFFFFFFFC] = regs[rs]
                    r = ready[rs]
                    r2 = ready[base]
                    if r2 > r:
                        r = r2
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    line = address // LINE
                    entries = lines[line % SETS]
                    if entries[0] == line:
                        hits += 1
                    elif line in entries:
                        entries.remove(line)
                        entries.insert(0, line)
                        hits += 1
                    else:
                        entries.insert(0, line)
                        entries.pop()
                        misses += 1
                    pc += 1
                elif k == BR:
                    rs = ins[1]
                    rt = ins[2]
                    r = ready[rs]
                    r2 = ready[rt]
                    if r2 > r:
                        r = r2
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    slot = pc % TABLE
                    c = counters[slot]
                    if ins[4](regs[rs], regs[rt]):
                        tc[pc] += 1
                        target = ins[3]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        if c > 1:
                            correct += 1
                            if c == 2:
                                counters[slot] = 3
                        else:
                            counters[slot] = c + 1
                            mispredicted += 1
                            cycle += MISPREDICT
                            left = WIDTH
                        pc = target
                    else:
                        if c < 2:
                            correct += 1
                            if c:
                                counters[slot] = 0
                        else:
                            counters[slot] = c - 1
                            mispredicted += 1
                            cycle += MISPREDICT
                            left = WIDTH
                        pc += 1
                elif k == MV:
                    rs = ins[2]
                    r = ready[rs]
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    rd = ins[1]
                    if rd:
                        regs[rd] = regs[rs]
                        ready[rd] = cycle + lat[pc]
                    pc += 1
                elif k == LI:
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[2]
                        ready[rd] = cycle + lat[pc]
                    pc += 1
                elif k == BEQZ or k == BNEZ:
                    rs = ins[1]
                    r = ready[rs]
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    slot = pc % TABLE
                    c = counters[slot]
                    if (regs[rs] == 0) == (k == BEQZ):
                        tc[pc] += 1
                        target = ins[2]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        if c > 1:
                            correct += 1
                            if c == 2:
                                counters[slot] = 3
                        else:
                            counters[slot] = c + 1
                            mispredicted += 1
                            cycle += MISPREDICT
                            left = WIDTH
                        pc = target
                    else:
                        if c < 2:
                            correct += 1
                            if c:
                                counters[slot] = 0
                        else:
                            counters[slot] = c - 1
                            mispredicted += 1
                            cycle += MISPREDICT
                            left = WIDTH
                        pc += 1
                elif k == J:
                    target = ins[1]
                    if target < 0:
                        raise EmulationError(
                            f"unknown label: {decoded.unresolved[pc]}")
                    pc = target
                elif k == CALL:
                    target = ins[1]
                    if target < 0:   # faults before the link write (ref order)
                        raise EmulationError(
                            f"call to unknown function: {decoded.unresolved[pc]}")
                    regs[1] = ins[2]                        # ra = link
                    ready[1] = cycle + lat[pc]
                    pc = target
                elif k == JAL:
                    rd = ins[1]
                    if rd:           # link is written before the fault check,
                        regs[rd] = ins[3]                   # as in the reference
                    target = ins[2]
                    if target < 0:
                        raise EmulationError(
                            f"unknown label: {decoded.unresolved[pc]}")
                    if rd:
                        ready[rd] = cycle + lat[pc]
                    pc = target
                elif k == JALR:
                    rs = ins[2]
                    r = ready[rs]
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    target = (regs[rs] + ins[3]) & M
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4]
                        ready[rd] = cycle + lat[pc]
                    pc = target
                elif k == ECALL:
                    self._ecall()
                    # Sources a0-a2 and a7; the result lands in a0.
                    r = max(ready[10], ready[11], ready[12], ready[17])
                    if r > cycle:
                        cycle = r
                        left = WIDTH
                    ready[10] = cycle + lat[pc]
                    pc += 1
                elif k == NOP:
                    pc += 1
                elif k == BAD:
                    if not ins[3]:
                        ec[pc] -= 1
                    raise (EmulationError(ins[2]) if ins[1]
                           else ValueError(ins[2]))
                else:  # pragma: no cover - decoder emits only known kinds
                    raise EmulationError(f"unknown handler id: {k}")

                left -= 1
                if not left:
                    cycle += 1
                    left = WIDTH
                executed += 1
                seg_left -= 1
                if not seg_left:
                    seg_left = seg_size
                    self._flush_segment()
        except IndexError:
            if not 0 <= pc < len(code):
                raise EmulationError(
                    f"program counter out of range: {pc}") from None
            raise
        finally:
            self._executed = executed
            if executed and left == WIDTH:
                # Undo the bump after the last instruction: the reference
                # bumps only when a next instruction issues.  (A stall in an
                # instruction that then faulted also leaves ``left ==
                # WIDTH``.  Its ``cycle`` is a ready cycle, so the drain in
                # ``finalize()`` covers it and ``cycles`` comes out the same.)
                cycle -= 1
                left = 0
            model.instructions = executed
            model.current_cycle = cycle
            model.issued_this_cycle = WIDTH - left
            model.register_ready = {name: ready[slot] for name, slot
                                    in decoded.slots.items() if ready[slot]}
            cache.hits = hits
            cache.misses = misses
            predictor.correct = correct
            predictor.mispredicted = mispredicted

    # -- statistics ------------------------------------------------------------
    def _fold_stats(self) -> None:
        """Fold the flat per-instruction counters into the TraceStats dicts.

        Runs once at halt (or fault) instead of updating two dicts and a
        handful of scalars on every executed instruction.  The fold rebuilds
        the dicts from the counter arrays, so re-folding is idempotent.
        """
        decoded = self.decoded
        code = decoded.code
        opcodes = decoded.opcodes
        classes = decoded.classes
        tc = self._taken_counts
        stats = self.stats
        opcode_counts: dict[str, int] = {}
        class_counts: dict[str, int] = {}
        instructions = loads = stores = calls = 0
        taken = not_taken = 0
        for index, count in enumerate(self._exec_counts):
            if not count:
                continue
            instructions += count
            opcode = opcodes[index]
            opcode_counts[opcode] = opcode_counts.get(opcode, 0) + count
            cls = classes[index]
            class_counts[cls] = class_counts.get(cls, 0) + count
            k = code[index][0]
            if k == K_LW:
                loads += count
            elif k == K_SW:
                stores += count
            elif k == K_CALL:
                calls += count
            elif k == K_J:
                taken += count
            elif k in CONDITIONAL_KINDS:
                t = tc[index]
                taken += t
                not_taken += count - t
        stats.instructions = instructions
        stats.opcode_counts = opcode_counts
        stats.class_counts = class_counts
        stats.loads = loads
        stats.stores = stores
        stats.calls = calls
        stats.branches_taken = taken
        stats.branches_not_taken = not_taken
        # Pages touched in the still-open segment belong to the whole-run sets
        # too (the flush below only counts per-segment paging events).
        stats.pages_read |= self._segment_pages_read
        stats.pages_written |= self._segment_pages_written

    def _flush_segment(self) -> None:
        seg_read = self._segment_pages_read
        seg_written = self._segment_pages_written
        stats = self.stats
        stats.pages_read |= seg_read
        stats.pages_written |= seg_written
        stats.page_in_events += len(seg_read | seg_written)
        stats.page_out_events += len(seg_written)
        seg_read.clear()
        seg_written.clear()

    # -- host calls ------------------------------------------------------------
    def _ecall(self) -> None:
        regs = self.registers
        call_id = regs[17]                                  # a7
        name = HOST_CALL_NAMES.get(call_id)
        if name is None:
            raise EmulationError(f"unknown ecall id: {call_id}")
        host_calls = self.stats.host_calls
        host_calls[name] = host_calls.get(name, 0) + 1
        arity = HOST_CALL_ARITY.get(name, 1)
        result = interpret_host_call(
            name, [regs[10], regs[11], regs[12], regs[13]][:arity], self)
        regs[10] = result & WORD_MASK                       # a0


def run_program(program: AssemblyProgram, entry: str = "main",
                args: Optional[list[int]] = None,
                observers: Iterable[CpuTimingModel] = (),
                max_instructions: int = 50_000_000,
                input_values: Optional[list[int]] = None) -> TraceStats:
    """Convenience wrapper: execute ``program`` and return its trace statistics."""
    machine = Machine(program, max_instructions=max_instructions,
                      observers=observers, input_values=input_values)
    return machine.run(entry, args)
