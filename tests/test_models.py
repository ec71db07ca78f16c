"""Tests for the zkVM cost models, the CPU timing model, the precompile layer
and the analysis statistics."""

import pytest

from repro.analysis import format_table, kendall_tau, mean, pearson_r, stddev
from repro.backend import compile_module
from repro.cpu import CpuTimingModel, DirectMappedCache, TwoBitPredictor
from repro.emulator import Machine, TraceStats
from repro.experiments import BenchmarkRunner, baseline_profile
from repro.frontend import compile_source
from repro.zkvm import PRECOMPILE_CYCLES, RISC_ZERO, SP1, ZKVMS, make_signature
from repro.zkvm.precompiles import interpret_host_call

from support import REFERENCE_PROGRAM


def measure(source: str, **machine_kwargs):
    program = compile_module(compile_source(source))
    cpu = CpuTimingModel()
    machine = Machine(program, observers=[cpu], **machine_kwargs)
    trace = machine.run()
    return trace, machine, cpu


class TestZkvmModels:
    def test_metrics_scale_with_instruction_count(self):
        small, _, _ = measure("fn main() -> int { var i; var a = 0;"
                              " for (i = 0; i < 10; i = i + 1) { a = a + i; }"
                              " return a; }")
        large, _, _ = measure("fn main() -> int { var i; var a = 0;"
                              " for (i = 0; i < 1000; i = i + 1) { a = a + i; }"
                              " return a; }")
        for model in (RISC_ZERO, SP1):
            m_small = model.evaluate(small)
            m_large = model.evaluate(large)
            assert m_large.total_cycles > m_small.total_cycles
            assert m_large.execution_time > m_small.execution_time
            assert m_large.proving_time >= m_small.proving_time

    def test_proving_slower_than_execution(self):
        trace, _, _ = measure(REFERENCE_PROGRAM)
        for model in ZKVMS.values():
            metrics = model.evaluate(trace)
            assert metrics.proving_time > metrics.execution_time

    def test_risc0_charges_paging_sp1_does_not(self):
        trace, _, _ = measure("""
        global big[4096];
        fn main() -> int {
          var i;
          for (i = 0; i < 4096; i = i + 64) { big[i] = i; }
          return 0;
        }
        """)
        r0 = RISC_ZERO.evaluate(trace)
        sp1 = SP1.evaluate(trace)
        assert r0.paging_cycles > 0
        assert sp1.paging_cycles == 0
        assert r0.total_cycles > r0.user_cycles

    def test_segment_count_drives_proving_time(self):
        trace = TraceStats()
        trace.class_counts = {"alu": RISC_ZERO.segment_cycles * 3}
        trace.instructions = RISC_ZERO.segment_cycles * 3
        metrics = RISC_ZERO.evaluate(trace)
        assert metrics.segments == 3
        single = TraceStats()
        single.class_counts = {"alu": 100}
        single.instructions = 100
        assert RISC_ZERO.evaluate(single).segments == 1

    def test_precompiles_charged_fixed_cycles(self):
        trace = TraceStats()
        trace.class_counts = {"alu": 1000}
        trace.instructions = 1000
        trace.host_calls = {"__sha256": 5}
        with_precompile = RISC_ZERO.evaluate(trace)
        trace_plain = TraceStats()
        trace_plain.class_counts = {"alu": 1000}
        trace_plain.instructions = 1000
        without = RISC_ZERO.evaluate(trace_plain)
        assert with_precompile.user_cycles == \
            without.user_cycles + 5 * PRECOMPILE_CYCLES["risc0"]["__sha256"]


def _segment_gap(name, page_ins, pages):
    return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
        f"ROADMAP item 1: the emulator closes a paging segment every 65,536 "
        f"instructions, the model every 2^20 cycles; baseline {name} pages "
        f"in {page_ins} times against 1 segment x {pages} page(s) touched")))


@pytest.mark.parametrize("name", [
    _segment_gap("bigmem", 68, 17),
    _segment_gap("merkle", 19, 4),
    _segment_gap("spec-631", 5, 1),
])
def test_page_ins_fit_the_models_segments(name):
    """A page is paged in at most once per segment the model proves."""
    measurement = BenchmarkRunner().measure(name, baseline_profile())
    trace = measurement.trace
    assert trace.page_in_events <= \
        measurement.risc0.segments * trace.unique_pages


class TestCpuModel:
    def test_division_heavy_code_is_slower_on_cpu(self):
        div_heavy = "fn main() -> int { var a = 1000000; var i;" \
                    " for (i = 1; i < 200; i = i + 1) { a = a / i + 17; } return a; }"
        add_heavy = "fn main() -> int { var a = 1000000; var i;" \
                    " for (i = 1; i < 200; i = i + 1) { a = a - i + 17; } return a; }"
        _, _, cpu_div = measure(div_heavy)
        _, _, cpu_add = measure(add_heavy)
        div_metrics, add_metrics = cpu_div.finalize(), cpu_add.finalize()
        assert div_metrics.cycles > add_metrics.cycles
        # On the zkVM model the two differ far less (uniform cost).
        assert div_metrics.cycles / add_metrics.cycles > 1.5

    def test_ipc_is_bounded_by_issue_width(self):
        _, _, cpu = measure(REFERENCE_PROGRAM)
        metrics = cpu.finalize()
        assert 0.0 < metrics.ipc <= cpu.config.issue_width

    def test_branch_predictor_learns_regular_patterns(self):
        predictor = TwoBitPredictor()
        for _ in range(100):
            predictor.predict_and_update(1234, True)
        assert predictor.accuracy > 0.9

    def test_cache_hits_after_warmup(self):
        cache = DirectMappedCache(size_bytes=1024, line_bytes=64, ways=2)
        for _ in range(4):
            for address in range(0, 512, 4):
                cache.access(address)
        assert cache.hit_rate > 0.8

    def test_cache_conflicts_cause_misses(self):
        cache = DirectMappedCache(size_bytes=256, line_bytes=64, ways=1)
        for _ in range(8):
            cache.access(0)
            cache.access(256)  # maps to the same set, evicts the other line
        assert cache.misses >= 8


class TestPrecompiles:
    class _FakeMachine:
        def __init__(self):
            self.memory = {}
            self.output = []

        def _read_word(self, address):
            return self.memory.get(address & ~3, 0)

        def _write_word(self, address, value):
            self.memory[address & ~3] = value & 0xFFFFFFFF

    def test_print_and_read_input(self):
        machine = self._FakeMachine()
        interpret_host_call("__print", [123], machine)
        assert machine.output == [123]
        value = interpret_host_call("__read_input", [3], machine)
        assert 0 <= value <= 0xFFFFFFFF

    def test_sha256_is_deterministic_and_input_sensitive(self):
        machine = self._FakeMachine()
        for i in range(4):
            machine._write_word(0x100 + 4 * i, i + 1)
        interpret_host_call("__sha256", [0x100, 4, 0x200], machine)
        first = [machine._read_word(0x200 + 4 * i) for i in range(8)]
        machine._write_word(0x100, 999)
        interpret_host_call("__sha256", [0x100, 4, 0x200], machine)
        second = [machine._read_word(0x200 + 4 * i) for i in range(8)]
        assert first != second and any(first)

    def test_signature_verification_roundtrip(self):
        machine = self._FakeMachine()
        message = [i + 1 for i in range(8)]
        key = [i * 3 + 7 for i in range(8)]
        signature = make_signature(message, key, "ecdsa")
        for i in range(8):
            machine._write_word(0x100 + 4 * i, message[i])
            machine._write_word(0x200 + 4 * i, key[i])
            machine._write_word(0x300 + 4 * i, signature[i])
        assert interpret_host_call("__ecdsa_verify", [0x100, 0x200, 0x300], machine) == 1
        machine._write_word(0x300, 0)
        assert interpret_host_call("__ecdsa_verify", [0x100, 0x200, 0x300], machine) == 0

    def test_bigint_modmul(self):
        machine = self._FakeMachine()
        machine._write_word(0x100, 7)
        machine._write_word(0x200, 9)
        machine._write_word(0x300, 5)
        interpret_host_call("__bigint_modmul", [0x100, 0x200, 0x300, 0x400], machine)
        assert machine._read_word(0x400) == (7 * 9) % 5

    def test_unknown_host_call_rejected(self):
        with pytest.raises(ValueError):
            interpret_host_call("__nope", [], self._FakeMachine())


class TestAnalysis:
    def test_kendall_tau_perfect_orderings(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert kendall_tau([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_pearson_linear_relationship(self):
        xs = [1, 2, 3, 4, 5]
        assert pearson_r(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_degenerate_inputs_return_zero(self):
        assert kendall_tau([1, 1, 1], [2, 3, 4]) == 0.0
        assert pearson_r([1], [2]) == 0.0

    def test_mean_and_stddev(self):
        assert mean([1, 2, 3, 4]) == 2.5
        assert stddev([2, 2, 2]) == 0.0
        assert stddev([1, 3]) == pytest.approx(2 ** 0.5)

    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2]], title="T")
        assert "name" in text and "bb" in text and "1.50" in text

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1])
