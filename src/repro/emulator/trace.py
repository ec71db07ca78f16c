"""Execution-trace statistics collected while emulating a guest program.

:class:`TraceStats` is the one record of a guest run: the zkVM cost models
read everything they charge from it (dynamic instruction counts by class,
host calls, per-segment paging events), and the differential tests compare
it whole across engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: RISC Zero pages are 1 KiB.
PAGE_SIZE = 1024


@dataclass
class TraceStats:
    """Aggregate statistics of one guest execution."""

    #: Total dynamically executed instructions (ecall counts as one).
    instructions: int = 0
    #: Executed instructions per coarse opcode class (alu/mul/div/load/store/...).
    class_counts: dict = field(default_factory=dict)
    #: Executed instructions per opcode.
    opcode_counts: dict = field(default_factory=dict)
    #: Number of taken / not-taken conditional branches; an unconditional
    #: ``j`` counts as a taken branch too.
    branches_taken: int = 0
    branches_not_taken: int = 0
    #: Executed ``call`` instructions; returns (``jalr``) are not counted.
    calls: int = 0
    #: Host calls by name (precompile usage).
    host_calls: dict = field(default_factory=dict)
    #: Pages read / written over the whole execution (unique page numbers).
    pages_read: set = field(default_factory=set)
    pages_written: set = field(default_factory=set)
    #: Paging events, counted per segment: a page touched in a segment is
    #: paged in once, and paged out once if it was written there.  The
    #: machines close a segment every ``segment_size`` retired instructions
    #: (65,536 by default), not when the zkVM model's cycle budget fills
    #: (``RISC_ZERO.segment_cycles`` is 2^20 cycles), so the two segment
    #: counts can disagree; ROADMAP.md item 1 is to give them one definition.
    page_in_events: int = 0
    page_out_events: int = 0
    #: Total memory loads/stores.
    loads: int = 0
    stores: int = 0
    #: Output values printed by the guest.
    output: list = field(default_factory=list)
    #: The guest's return value (main's a0 at halt).
    return_value: int = 0

    def record_instruction(self, opcode: str, instruction_class: str) -> None:
        self.instructions += 1
        self.class_counts[instruction_class] = self.class_counts.get(instruction_class, 0) + 1
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1

    def record_memory(self, address: int, is_write: bool) -> None:
        page = address // PAGE_SIZE
        if is_write:
            self.stores += 1
            self.pages_written.add(page)
        else:
            self.loads += 1
            self.pages_read.add(page)

    @property
    def unique_pages(self) -> int:
        return len(self.pages_read | self.pages_written)

    def summary(self) -> dict:
        return {
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches_taken": self.branches_taken,
            "branches_not_taken": self.branches_not_taken,
            "calls": self.calls,
            "unique_pages": self.unique_pages,
            "return_value": self.return_value,
        }
