"""Property-based tests (hypothesis): the frontend/interpreter/emulator agree
with Python's own arithmetic, optimization passes never change behaviour on
randomly generated programs, and randomly ordered pass pipelines behave
identically with and without analysis caching."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import compile_module
from repro.benchmarks import get_benchmark
from repro.emulator import run_program
from repro.frontend import compile_source
from repro.ir import Constant, verify_module, I32
from repro.ir.interpreter import Interpreter, run_module
from repro.ir.printer import format_module
from repro.passes import PassManager, available_passes, run_passes
from repro.passes.utils import fold_binary, fold_icmp

WORD = 0xFFFFFFFF


def _to_signed(value: int) -> int:
    value &= WORD
    return value - (1 << 32) if value >= (1 << 31) else value


small_ints = st.integers(min_value=-1000, max_value=1000)
words = st.integers(min_value=0, max_value=WORD)


class TestScalarSemantics:
    @given(a=words, b=words)
    @settings(max_examples=200, deadline=None)
    def test_fold_binary_matches_interpreter(self, a, b):
        for opcode in ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"):
            assert fold_binary(opcode, a, b) == Interpreter._binop(opcode, a, b)

    @given(a=words, b=words)
    @settings(max_examples=200, deadline=None)
    def test_division_semantics_match_riscv(self, a, b):
        sa, sb = _to_signed(a), _to_signed(b)
        expected = WORD if sb == 0 else (abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)) & WORD
        assert fold_binary("sdiv", a, b) == expected

    @given(a=words, b=words)
    @settings(max_examples=200, deadline=None)
    def test_comparisons_are_consistent(self, a, b):
        assert fold_icmp("ult", a, b) == int(a < b)
        assert fold_icmp("slt", a, b) == int(_to_signed(a) < _to_signed(b))
        assert fold_icmp("eq", a, b) == int(a == b)

    @given(value=st.integers(min_value=-(2 ** 40), max_value=2 ** 40))
    @settings(max_examples=100, deadline=None)
    def test_constants_wrap_consistently(self, value):
        constant = Constant(value, I32)
        assert constant.value == value & WORD
        assert constant.signed_value == _to_signed(value)


# A tiny expression generator for whole-program differential testing.
@st.composite
def arithmetic_expression(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(0, 200)))
        if choice == 1:
            return "x"
        return "y"
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^"]))
    left = draw(arithmetic_expression(depth=depth + 1))
    right = draw(arithmetic_expression(depth=depth + 1))
    return f"({left} {op} {right})"


def python_semantics(expression: str, x: int, y: int) -> int:
    """Evaluate with MiniC/RISC-V semantics (truncating division, wrapping)."""
    def div(a, b):
        if b == 0:
            return -1
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q

    def rem(a, b):
        if b == 0:
            return a
        r = abs(a) % abs(b)
        return r if a >= 0 else -r

    def wrap(v):
        return _to_signed(v & WORD)

    def evaluate(node):
        return node

    # Reuse Python's parser: replace operators with function calls is overkill;
    # instead evaluate with eval() on a transformed expression.
    safe = expression.replace("/", "//DIV//").replace("%", "//REM//")
    # Evaluate manually via a tiny recursive descent on the generated shape:
    # the generator only emits fully parenthesized binary expressions.
    def parse(tokens):
        token = tokens.pop(0)
        if token == "(":
            left = parse(tokens)
            op = tokens.pop(0)
            right = parse(tokens)
            assert tokens.pop(0) == ")"
            if op == "+":
                return wrap(left + right)
            if op == "-":
                return wrap(left - right)
            if op == "*":
                return wrap(left * right)
            if op == "/":
                return wrap(div(left, right))
            if op == "%":
                return wrap(rem(left, right))
            if op == "&":
                return wrap((left & WORD) & (right & WORD))
            if op == "|":
                return wrap((left & WORD) | (right & WORD))
            if op == "^":
                return wrap((left & WORD) ^ (right & WORD))
        if token == "x":
            return x
        if token == "y":
            return y
        return int(token)

    tokens = expression.replace("(", " ( ").replace(")", " ) ").split()
    return parse(tokens)


class TestWholeProgramProperties:
    @given(expression=arithmetic_expression(), x=small_ints, y=small_ints)
    @settings(max_examples=40, deadline=None)
    def test_interpreter_matches_reference_semantics(self, expression, x, y):
        source = f"""
        fn compute(x, y) -> int {{ return {expression}; }}
        fn main() -> int {{ return compute({x}, {y}); }}
        """
        result = run_module(compile_source(source))
        assert result.return_value == python_semantics(expression, x, y)

    @given(expression=arithmetic_expression(), x=small_ints, y=small_ints,
           passes=st.lists(st.sampled_from(["mem2reg", "instcombine", "gvn", "sccp",
                                            "simplifycfg", "early-cse", "dce",
                                            "instsimplify", "adce"]),
                           min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_random_pass_sequences_preserve_semantics(self, expression, x, y, passes):
        source = f"""
        fn compute(x, y) -> int {{ return {expression}; }}
        fn main() -> int {{ return compute({x}, {y}); }}
        """
        module = compile_source(source)
        reference = run_module(module).return_value
        optimized = run_passes(module, passes)
        verify_module(optimized)
        assert run_module(optimized).return_value == reference

    @given(x=small_ints, y=small_ints)
    @settings(max_examples=15, deadline=None)
    def test_emulator_agrees_with_interpreter_on_branchy_code(self, x, y):
        source = f"""
        fn decide(a, b) -> int {{
          if (a < b) {{ return a * 2 + b; }}
          if (a == b) {{ return a - 7; }}
          if (a % 2 == 0 || b < 0) {{ return a / (b + 1000001); }}
          return a ^ b;
        }}
        fn main() -> int {{ return decide({x}, {y}); }}
        """
        module = compile_source(source)
        interpreted = run_module(module).return_value
        emulated = run_program(compile_module(module)).return_value
        assert interpreted == emulated


class TestPipelineOrderFuzz:
    """Seeded pass-order fuzzing of the analysis-caching pass manager.

    25 pipelines drawn uniformly from ``available_passes()`` run over three
    small benchmarks, each through the caching pipeline and through the
    ``analysis_cache=False`` escape hatch.  Whatever the order — loop passes
    before SSA construction, double inlining, reg2mem in the middle — the two
    must emit byte-identical IR and the result must verify.
    """

    BENCHMARKS = ("fibonacci", "loop-sum", "factorial")
    PIPELINES = 25
    SEED = 0xA11A  # fixed: failures must reproduce

    def _modules(self):
        return {name: compile_source(get_benchmark(name).source,
                                     module_name=name)
                for name in self.BENCHMARKS}

    def test_random_pass_orders_cached_equals_fresh(self):
        rng = random.Random(self.SEED)
        passes = available_passes()
        modules = self._modules()
        for index in range(self.PIPELINES):
            length = rng.randint(2, 8)
            pipeline = [rng.choice(passes) for _ in range(length)]
            for name, module in modules.items():
                cached = module.clone()
                PassManager(pipeline, analysis_cache=True).run(cached)
                fresh = module.clone()
                PassManager(pipeline, analysis_cache=False).run(fresh)
                context = f"pipeline #{index} {pipeline} on {name}"
                assert format_module(cached) == format_module(fresh), \
                    f"cached and fresh IR diverged for {context}"
                verify_module(cached)

    def test_random_pass_orders_preserve_behaviour(self):
        """The fuzzed pipelines must also keep the guest's semantics."""
        rng = random.Random(self.SEED + 1)
        passes = available_passes()
        modules = self._modules()
        references = {name: run_module(module).return_value
                      for name, module in modules.items()}
        for index in range(10):
            length = rng.randint(2, 6)
            pipeline = [rng.choice(passes) for _ in range(length)]
            for name, module in modules.items():
                optimized = module.clone()
                PassManager(pipeline, analysis_cache=True).run(optimized)
                verify_module(optimized)
                assert run_module(optimized).return_value == references[name], \
                    f"pipeline #{index} {pipeline} broke {name}"
