"""zkVM cost models for RISC Zero and SP1.

Both zkVMs execute the same RISC-V trace; what differs is how the trace is
turned into *cycles*, how memory paging is charged, how the trace is split
into proving units (segments / shards), and how fast the executor and prover
are.  The constants below follow the public RISC Zero guest-optimization
guide and the orders of magnitude reported in the paper (Appendix A /
Table 6): most instructions have uniform cost, paging a 1 KiB page costs
~1,100 cycles on RISC Zero, and proving is orders of magnitude slower than
execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..emulator.trace import TraceStats
from .precompiles import PRECOMPILE_CYCLES


@dataclass
class ZkvmMetrics:
    """The three metrics the paper reports, plus the underlying cost components."""

    zkvm: str
    #: Total cycles (user cycles + paging cycles).
    total_cycles: int
    #: Cycles spent executing guest instructions (excluding paging).
    user_cycles: int
    #: Cycles spent paging data in/out of the guest memory image.
    paging_cycles: int
    #: Dynamically executed instructions.
    instructions: int
    #: Number of proving units (RISC Zero segments / SP1 shards).
    segments: int
    #: Wall-clock seconds for the executor to replay the guest.
    execution_time: float
    #: Wall-clock seconds for the prover to produce a proof.
    proving_time: float

    def as_dict(self) -> dict:
        return {
            "zkvm": self.zkvm,
            "total_cycles": self.total_cycles,
            "user_cycles": self.user_cycles,
            "paging_cycles": self.paging_cycles,
            "instructions": self.instructions,
            "segments": self.segments,
            "execution_time": self.execution_time,
            "proving_time": self.proving_time,
        }


@dataclass(frozen=True)
class ZkvmModel:
    """Analytic cost model of one zkVM."""

    name: str
    #: Cycles charged per instruction class.
    cycles_per_class: dict
    #: Cycles for paging one 1 KiB page in / out (0 if not modelled).
    page_in_cycles: int
    page_out_cycles: int
    #: Proving unit size, in cycles.
    segment_cycles: int
    #: Executor speed in cycles per second (used for zkVM execution time).
    executor_hz: float
    #: Prover speed: seconds per million cycles of trace, plus per-proof constant
    #: overhead and per-unit aggregation overhead when the trace spans more
    #: than one proving unit.
    seconds_per_megacycle: float
    proving_overhead_seconds: float
    aggregation_seconds_per_segment: float
    #: One-time execution overhead (program load, image hashing, ...).
    execution_overhead_seconds: float

    def evaluate(self, trace: TraceStats) -> ZkvmMetrics:
        """Compute all metrics for a trace.

        Paging is charged per the trace's per-segment paging events, which
        the emulator records at every segment boundary.
        """
        user = 0
        for cls, count in trace.class_counts.items():
            user += count * self.cycles_per_class.get(cls, 1)
        for host_call, count in trace.host_calls.items():
            user += count * PRECOMPILE_CYCLES.get(self.name, {}).get(host_call, 0)

        paging = (trace.page_in_events * self.page_in_cycles
                  + trace.page_out_events * self.page_out_cycles)

        total = user + paging
        segments = max(1, -(-total // self.segment_cycles))  # ceil division
        execution_time = self.execution_overhead_seconds + total / self.executor_hz
        proving_time = (self.proving_overhead_seconds
                        + total * self.seconds_per_megacycle / 1e6
                        + (segments - 1) * self.aggregation_seconds_per_segment)
        return ZkvmMetrics(
            zkvm=self.name,
            total_cycles=total,
            user_cycles=user,
            paging_cycles=paging,
            instructions=trace.instructions,
            segments=segments,
            execution_time=execution_time,
            proving_time=proving_time,
        )


#: RISC Zero: near-uniform instruction cost, explicit paging cost (~1,100 cycles
#: per page operation), 1M-cycle segments, GPU prover throughput calibrated so
#: baseline medians land in the seconds range (Table 6).
RISC_ZERO = ZkvmModel(
    name="risc0",
    cycles_per_class={"alu": 1, "mul": 1, "div": 2, "load": 1, "store": 1,
                      "branch": 1, "jump": 1, "system": 2},
    page_in_cycles=1094,
    page_out_cycles=1130,
    segment_cycles=1 << 20,
    executor_hz=220e6,
    seconds_per_megacycle=2.4,
    proving_overhead_seconds=0.45,
    aggregation_seconds_per_segment=0.35,
    execution_overhead_seconds=0.0009,
)

#: SP1: slightly different per-class weights (memory operations are a bit more
#: expensive in its chip layout), no exposed paging metric, 2M-cycle shards,
#: faster executor, different prover throughput.
SP1 = ZkvmModel(
    name="sp1",
    cycles_per_class={"alu": 1, "mul": 1, "div": 2, "load": 2, "store": 2,
                      "branch": 1, "jump": 1, "system": 2},
    page_in_cycles=0,
    page_out_cycles=0,
    segment_cycles=1 << 21,
    executor_hz=350e6,
    seconds_per_megacycle=1.6,
    proving_overhead_seconds=0.30,
    aggregation_seconds_per_segment=0.45,
    execution_overhead_seconds=0.0012,
)

ZKVMS: dict[str, ZkvmModel] = {"risc0": RISC_ZERO, "sp1": SP1}

#: Version of the analytic cost-model *formulas* above.  Parameter values are
#: fingerprinted directly by the experiment cache; bump this when the shape of
#: ``evaluate`` changes so stale cached measurements are
#: invalidated (see :mod:`repro.experiments.cache`).
COST_MODEL_VERSION = 1
