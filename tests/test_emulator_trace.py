"""Direct unit tests for :mod:`repro.emulator.trace`.

The differential suites check TraceStats end-to-end (every engine must fold
to the same numbers); these tests pin the folding primitives themselves —
page numbering at page boundaries, the whole-run/per-segment set merges and
the paging events counted from them, fold idempotency and the empty-run
identities — so a folding bug surfaces here as a one-line arithmetic
failure instead of a cross-engine divergence on a 300k-instruction
benchmark.
"""

import copy
import dataclasses

from repro.backend.isa import AssemblyFunction, AssemblyProgram, MachineInstr
from repro.emulator import Machine, PAGE_SIZE, TraceStats


def _instr(opcode, *operands):
    return MachineInstr(opcode, list(operands))


def _memory_program() -> AssemblyProgram:
    """A tiny guest: one store and one load on page 4, then return 0."""
    body = [
        _instr("li", "t0", 0x1000),
        _instr("sw", "t0", 0, "t0"),
        _instr("lw", "t1", 0, "t0"),
        _instr("li", "a0", 0),
        _instr("jalr", "zero", "ra", 0),
    ]
    return AssemblyProgram(functions={
        "main": AssemblyFunction("main", body)})


class TestRecordInstruction:
    def test_counts_accumulate_per_opcode_and_class(self):
        stats = TraceStats()
        stats.record_instruction("addi", "alu")
        stats.record_instruction("addi", "alu")
        stats.record_instruction("mul", "mul")
        assert stats.instructions == 3
        assert stats.opcode_counts == {"addi": 2, "mul": 1}
        assert stats.class_counts == {"alu": 2, "mul": 1}


class TestRecordMemory:
    def test_boundary_addresses_fold_into_adjacent_pages(self):
        # The last byte address of page 0 and the first of page 1 must land
        # in different pages; the last word of page 1 stays in page 1.
        stats = TraceStats()
        stats.record_memory(PAGE_SIZE - 1, is_write=False)
        stats.record_memory(PAGE_SIZE, is_write=False)
        stats.record_memory(2 * PAGE_SIZE - 4, is_write=True)
        assert stats.pages_read == {0, 1}
        assert stats.pages_written == {1}
        assert stats.loads == 2
        assert stats.stores == 1

    def test_reads_and_writes_fold_into_separate_sets(self):
        stats = TraceStats()
        stats.record_memory(0, is_write=False)
        stats.record_memory(0, is_write=True)
        assert stats.pages_read == {0}
        assert stats.pages_written == {0}

    def test_unique_pages_is_the_union(self):
        stats = TraceStats()
        stats.pages_read = {0, 1}
        stats.pages_written = {1, 2}
        assert stats.unique_pages == 3


class TestEmptyRunIdentities:
    def test_fresh_stats_are_equal_and_all_zero(self):
        assert TraceStats() == TraceStats()
        summary = TraceStats().summary()
        assert all(value == 0 for value in summary.values())

    def test_any_recorded_event_breaks_the_identity(self):
        stats = TraceStats()
        stats.record_instruction("nop", "alu")
        assert stats != TraceStats()

    def test_unrun_machine_carries_empty_stats(self):
        machine = Machine(_memory_program())
        assert machine.stats == TraceStats()
        assert (machine.stats.page_in_events,
                machine.stats.page_out_events) == (0, 0)

    def test_summary_reports_the_folded_scalars(self):
        machine = Machine(_memory_program())
        stats = machine.run()
        assert stats.summary() == {
            "instructions": 5,
            "loads": 1,
            "stores": 1,
            "branches_taken": 0,
            "branches_not_taken": 0,
            "calls": 0,
            "unique_pages": 1,
            "return_value": 0,
        }


class TestFoldingIdentities:
    def test_refolding_after_halt_is_idempotent(self):
        # _fold_stats rebuilds the dicts from the counter arrays, so running
        # the fold a second time must be the identity on the stats.
        machine = Machine(_memory_program())
        machine.run()
        snapshot = copy.deepcopy(machine.stats)
        machine._fold_stats()
        assert machine.stats == snapshot

    def test_flushing_an_empty_segment_is_the_identity(self):
        # After halt the per-segment page sets are empty; a flush of an empty
        # segment must add no paging events and leave the stats untouched.
        machine = Machine(_memory_program())
        machine.run()
        snapshot = copy.deepcopy(machine.stats)
        machine._flush_segment()
        assert machine.stats == snapshot

    def test_open_segment_pages_merge_into_whole_run_sets(self):
        # One segment covering the whole run: the trailing partial segment's
        # pages must reach pages_read/pages_written exactly once.
        machine = Machine(_memory_program(), segment_size=1 << 16)
        stats = machine.run()
        assert stats.pages_read == {0x1000 // PAGE_SIZE}
        assert stats.pages_written == {0x1000 // PAGE_SIZE}
        assert stats.page_in_events == 1
        assert stats.page_out_events == 1


class TestSegmentBoundaryFolding:
    def test_per_segment_first_touches_recount_across_boundaries(self):
        # segment_size=2 splits the 5-instruction run into segments
        # [li,sw][lw,li][jalr]: the page is written in segment one (one
        # page-in, one page-out), re-read in segment two (one page-in, clean
        # so no page-out), untouched in the trailing partial segment.
        machine = Machine(_memory_program(), segment_size=2)
        stats = machine.run()
        assert stats.page_in_events == 2
        assert stats.page_out_events == 1
        # Whole-run sets are segment-independent.
        assert stats.pages_read == {0x1000 // PAGE_SIZE}
        assert stats.pages_written == {0x1000 // PAGE_SIZE}

    def test_whole_run_sets_invariant_under_segment_size(self):
        # Everything but the per-segment paging events is independent of
        # where the segment boundaries fall.
        def unsegmented(stats):
            return dataclasses.replace(stats, page_in_events=0,
                                       page_out_events=0)

        baseline = Machine(_memory_program(), segment_size=1 << 16).run()
        for segment_size in (1, 2, 3, 5, 6):
            stats = Machine(_memory_program(),
                            segment_size=segment_size).run()
            assert unsegmented(stats) == unsegmented(baseline), \
                f"segment_size={segment_size}"

    def test_paging_events_monotone_in_segment_count(self):
        # More segment boundaries can only re-touch pages, never un-touch
        # them: page-in events are monotone as segments shrink.
        events = []
        for segment_size in (1 << 16, 3, 1):
            stats = Machine(_memory_program(), segment_size=segment_size).run()
            events.append(stats.page_in_events)
        assert events == sorted(events)
