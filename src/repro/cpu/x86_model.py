"""A traditional-CPU timing model (x86-class out-of-order core).

The paper's RQ3 compares optimization effects on zkVMs against a conventional
CPU.  We model the conventional CPU as an observer over the same RISC-V
instruction trace, with the hardware features zkVMs lack:

* a superscalar issue width with register-dependency tracking (ILP),
* per-class latencies where division and multiplication are genuinely slow,
* an L1 data cache with a miss penalty,
* a 2-bit branch predictor with a misprediction penalty.

Costing the *same* trace keeps the comparison apples-to-apples at the level
this study cares about (which transformations pay off where), without
building a second backend; the divergent effects — branchless code, strength
reduction, unrolling for ILP — come from the timing model, exactly as they do
on real hardware.

:meth:`CpuTimingModel.on_instruction` states the rules once, per instruction
and over register names.  Production runs never call it: a
:class:`~repro.emulator.machine.Machine` with a model attached runs the same
rules inlined in its dispatch loop over integer state and leaves the totals
on the model.  :class:`~repro.emulator.reference.ReferenceMachine` drives
``on_instruction`` event by event, which makes this class the tests' oracle
for the fused loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .branch_predictor import TwoBitPredictor
from .cache import DirectMappedCache


@dataclass
class CpuMetrics:
    """Result of costing one trace on the CPU model."""

    cycles: int
    instructions: int
    execution_time: float
    ipc: float
    cache_hit_rate: float
    branch_accuracy: float
    mispredictions: int
    cache_misses: int

    def as_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "execution_time": self.execution_time,
            "ipc": self.ipc,
            "cache_hit_rate": self.cache_hit_rate,
            "branch_accuracy": self.branch_accuracy,
        }


@dataclass
class CpuConfig:
    """Microarchitectural parameters of the modelled core.

    The defaults sketch a contemporary desktop-class x86 core: 4-wide
    issue at 3 GHz, single-cycle ALU ops, slow division, an L1 data cache
    with a 40-cycle load-miss penalty (the load latency covers a hit) and a
    14-cycle branch-misprediction penalty.  ``DEFAULT_CPU`` is the instance
    every measurement uses; its ``repr`` feeds the experiment cache
    fingerprint so parameter changes invalidate stale measurements.
    """

    issue_width: int = 4
    frequency_hz: float = 3.0e9
    latency: dict = field(default_factory=lambda: {
        "alu": 1, "mul": 3, "div": 22, "load": 4, "store": 1,
        "branch": 1, "jump": 1, "system": 40,
    })
    l1_miss_penalty: int = 40
    mispredict_penalty: int = 14
    cache_size_bytes: int = 32 * 1024
    cache_line_bytes: int = 64
    cache_ways: int = 8


DEFAULT_CPU = CpuConfig()


class CpuTimingModel:
    """Computes CPU cycles for one executed trace.

    The model is an in-order-issue, out-of-order-completion approximation:
    up to ``issue_width`` instructions issue per cycle, each instruction
    cannot issue before its source registers are ready, and its result
    becomes ready ``latency`` cycles after issue.  Branch mispredictions and
    cache misses stall the front end.

    Attach a fresh model to each run, ``Machine(program,
    observers=[model])``, then call :meth:`finalize`.  A model times one
    run: the machine rejects a model that has already timed instructions.
    """

    def __init__(self, config: CpuConfig = DEFAULT_CPU):
        self.config = config
        self.cache = DirectMappedCache(config.cache_size_bytes, config.cache_line_bytes,
                                       config.cache_ways)
        self.predictor = TwoBitPredictor()
        self.register_ready: dict[str, float] = {}
        self.current_cycle: float = 0.0
        self.issued_this_cycle = 0
        self.instructions = 0
        self._branch_counter = 0

    # -- observer interface -----------------------------------------------------
    def on_instruction(self, opcode: str, instruction_class: str,
                       dest: Optional[str], sources: list[str],
                       memory_address: Optional[int], is_store: bool,
                       branch_taken: Optional[bool], pc: int = 0) -> None:
        """Observer hook: cost one executed instruction of the guest trace.

        :class:`~repro.emulator.reference.ReferenceMachine` calls this after
        each completed instruction; ``Machine._run_timed`` inlines the same
        rules and must agree with it exactly.
        """
        config = self.config
        self.instructions += 1

        # Front-end: issue at most `issue_width` instructions per cycle.
        if self.issued_this_cycle >= config.issue_width:
            self.current_cycle += 1
            self.issued_this_cycle = 0

        # Dependencies: cannot issue before source operands are ready.
        ready = self.current_cycle
        for source in sources:
            if source and source != "zero":
                ready = max(ready, self.register_ready.get(source, 0.0))
        if ready > self.current_cycle:
            self.current_cycle = ready
            self.issued_this_cycle = 0

        latency = config.latency.get(instruction_class, 1)

        # Memory: the cache decides whether a load pays the miss penalty.
        if memory_address is not None:
            hit = self.cache.access(memory_address)
            if not hit and not is_store:
                latency += config.l1_miss_penalty
            elif not hit and is_store:
                latency += config.l1_miss_penalty // 4  # write-allocate, buffered

        # Branches: conditional branches consult the predictor; jumps are free-ish.
        if branch_taken is not None and opcode not in ("j",):
            self._branch_counter += 1
            correct = self.predictor.predict_and_update(pc, branch_taken)
            if not correct:
                self.current_cycle += config.mispredict_penalty
                self.issued_this_cycle = 0

        if dest and dest != "zero":
            self.register_ready[dest] = self.current_cycle + latency

        self.issued_this_cycle += 1

    # -- results -------------------------------------------------------------------
    def finalize(self) -> CpuMetrics:
        """Close the run and summarize it as :class:`CpuMetrics`."""
        # Drain: the last instructions' latencies must complete.
        drain = max(self.register_ready.values(), default=self.current_cycle)
        cycles = int(max(self.current_cycle, drain)) + 1
        return CpuMetrics(
            cycles=cycles,
            instructions=self.instructions,
            execution_time=cycles / self.config.frequency_hz,
            ipc=self.instructions / cycles if cycles else 0.0,
            cache_hit_rate=self.cache.hit_rate,
            branch_accuracy=self.predictor.accuracy,
            mispredictions=self.predictor.mispredicted,
            cache_misses=self.cache.misses,
        )
