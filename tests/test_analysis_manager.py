"""Unit tests for the analysis manager's one reuse rule.

Covers the contract in :mod:`repro.passes.analysis`: a cached analysis is
served exactly while its function's CFG version is unchanged.

* a no-op pass keeps every cached analysis;
* a pass that changes the CFG gets its analyses recomputed;
* a CFG-preserving mutating pass keeps the CFG-derived analyses alive;
* an analysis a pass computes after its own CFG change reaches the next
  pass as the same object;
* after a module pass, only the functions whose CFG it changed recompute;
* any CFG-version bump outdates the cached analyses;
* a mutation that bypasses the IR mutation APIs is caught by the debug-mode
  ``verify_analyses`` cross-check, whose fresh side shares nothing with the
  cache it checks (verify mode counts exactly like plain mode);
* no-op pass runs are skipped at unchanged IR epochs (and resume after a
  mutation);
* pipeline failures carry the failing pass's name, index and function.
"""

from __future__ import annotations

import pytest

from repro.benchmarks import get_benchmark
from repro.experiments.profiles import profile_by_name
from repro.frontend import compile_source
from repro.ir import Branch, CondBranch, Function, Module
from repro.passes import PassManager, get_pass
from repro.passes.analysis import AnalysisManager, StaleAnalysisError
from repro.passes.pass_manager import FunctionPass, PassPipelineError

CLEAN_SOURCE = """
fn helper(x) -> int {
  var acc = 0;
  var i;
  for (i = 0; i < x; i = i + 1) { acc = acc + i; }
  return acc;
}
fn main() -> int { return helper(10); }
"""

#: instcombine turns ``x * 2`` into a shift — a change with no CFG effect.
CFG_PRESERVING_SOURCE = """
fn main() -> int {
  var a = 7;
  if (a > 3) { a = a * 2; } else { a = a * 4; }
  return a;
}
"""


def _module(source=CLEAN_SOURCE):
    return compile_source(source, module_name="am-test")


def _prepared(pass_name):
    """A registered pass wired to a fresh caching manager."""
    manager = AnalysisManager()
    pass_ = get_pass(pass_name)
    pass_.analysis = manager
    return pass_, manager


def _split_entry_edge(function):
    """Insert a block on the entry block's first edge through the IR APIs
    (bumping the CFG version)."""
    block = function.blocks[0]
    split = function.add_block("test.split", after=block)
    target = block.terminator.successors[0]
    block.replace_successor(target, split)
    split.append(Branch(target))


class _DomtreeProbe(FunctionPass):
    """Requests every function's dominator tree and remembers it."""

    name = "domtree-probe"

    def __init__(self):
        super().__init__()
        self.seen = {}

    def run_on_function(self, function: Function, module: Module) -> bool:
        self.seen[function.name] = self.analysis.domtree(function)
        return False


class _SplitThenDomtree(FunctionPass):
    """Changes helper's CFG, then requests its dominator tree."""

    name = "split-then-domtree"

    def run_on_function(self, function: Function, module: Module) -> bool:
        if function.name != "helper":
            return False
        _split_entry_edge(function)
        self.tree = self.analysis.domtree(function)
        return True


def _swap_a_branch(function):
    """Rewire a conditional branch by direct attribute assignment, bypassing
    the IR mutation APIs (so no version counter moves)."""
    for block in function.blocks:
        terminator = block.terminator
        if isinstance(terminator, CondBranch):
            terminator.true_target, terminator.false_target = \
                terminator.false_target, terminator.true_target
            return
    pytest.fail("expected a conditional branch")


class TestInvalidationSemantics:
    def test_noop_pass_preserves_everything(self):
        module = _module()
        pass_, manager = _prepared("dce")  # nothing is dead in this module
        function = module.get_function("main")
        domtree = manager.domtree(function)
        loops = manager.loop_info(function)
        assert not pass_.run(module)
        assert manager.domtree(function) is domtree
        assert manager.loop_info(function) is loops

    def test_cfg_changing_pass_recomputes_analyses(self):
        module = _module()
        pass_, manager = _prepared("simplifycfg")
        function = module.get_function("helper")
        domtree = manager.domtree(function)
        assert pass_.run(module)  # merges the -O0 block scaffolding
        assert manager.domtree(function) is not domtree

    def test_cfg_preserving_pass_keeps_analyses_alive(self):
        module = _module(CFG_PRESERVING_SOURCE)
        pass_, manager = _prepared("instcombine")
        function = module.get_function("main")
        domtree = manager.domtree(function)
        assert pass_.run(module)  # strength-reduces the multiplications
        # The IR changed but the block graph did not: the dominator tree must
        # have survived.
        assert manager.domtree(function) is domtree

    def test_analysis_computed_after_a_cfg_change_reaches_the_next_pass(self):
        splitter, probe = _SplitThenDomtree(), _DomtreeProbe()
        manager = PassManager([splitter, probe])
        manager.run(_module())
        # Still at the version it was computed at: served, not recomputed.
        assert probe.seen["helper"] is splitter.tree
        assert manager.timings[1].analysis.computed == 1  # main's tree only

    def test_module_pass_recomputes_only_cfg_changed_functions(self):
        before, after = _DomtreeProbe(), _DomtreeProbe()
        manager = PassManager([before, "inline", after])
        manager.run(_module())
        assert manager.timings[1].changed  # helper inlined into main
        assert after.seen["helper"] is before.seen["helper"]
        assert after.seen["main"] is not before.seen["main"]

    def test_cfg_version_bump_outdates_cached_analyses(self):
        module = _module()
        manager = AnalysisManager()
        function = module.get_function("helper")
        domtree = manager.domtree(function)
        _split_entry_edge(function)
        assert manager.domtree(function) is not domtree
        assert manager.stats.drifted == 1

    def test_stale_cache_is_caught_by_verify_analyses(self):
        module = _module()
        manager = AnalysisManager()
        function = module.get_function("helper")
        manager.domtree(function)
        manager.reachable(function)
        _swap_a_branch(function)  # CFG version never moves
        with pytest.raises(StaleAnalysisError):
            manager.verify_analyses(function)

    def test_debug_mode_checks_on_every_hit(self):
        module = _module()
        manager = AnalysisManager(verify=True)
        function = module.get_function("helper")
        manager.domtree(function)
        _swap_a_branch(function)
        with pytest.raises(StaleAnalysisError):
            manager.domtree(function)

    @pytest.mark.parametrize("name", ["fibonacci", "npb-cg", "sha256",
                                      "polybench-gemm"])
    def test_verify_mode_counts_like_plain_mode(self, name):
        # The cross-check recomputes on a disabled manager: it neither reads
        # the cached dominator tree nor counts its own requests as hits.
        profile = profile_by_name("-O3")
        module = compile_source(get_benchmark(name).source, module_name=name)
        stats = []
        for verify in (False, True):
            manager = PassManager(profile.passes, profile.config,
                                  verify_analyses=verify)
            manager.run(module.clone())
            stats.append(manager.analysis.stats)
        assert stats[1] == stats[0]

    def test_disabled_manager_always_recomputes(self):
        module = _module()
        manager = AnalysisManager(enabled=False)
        function = module.get_function("helper")
        assert manager.domtree(function) is not manager.domtree(function)
        assert manager.stats.hits == 0
        assert manager.stats.computed >= 2


class TestNoopSkipping:
    def test_noop_pass_is_skipped_at_unchanged_epoch(self):
        module = _module()
        pass_, manager = _prepared("simplifycfg")
        pass_.run(module)          # does its work
        pass_.run(module)          # proves itself a no-op everywhere
        before = manager.stats.skipped
        pass_.run(module)          # third run: skipped per function
        assert manager.stats.skipped == \
            before + len(module.defined_functions())

    def test_mutation_reenables_the_pass(self):
        module = _module(CFG_PRESERVING_SOURCE)
        dce, manager = _prepared("dce")
        dce.run(module)
        dce.run(module)
        skipped = manager.stats.skipped
        dce.run(module)
        assert manager.stats.skipped > skipped
        # Any IR mutation moves the epoch and re-enables the pass.
        instcombine = get_pass("instcombine")
        instcombine.analysis = manager
        assert instcombine.run(module)
        before = manager.stats.skipped
        dce.run(module)
        assert manager.stats.skipped == before  # ran for real again

    def test_module_dependent_passes_are_never_skipped(self):
        module = _module()
        gvn, manager = _prepared("gvn")
        assert not gvn.module_independent
        gvn.run(module)
        gvn.run(module)
        gvn.run(module)
        assert manager.stats.skipped == 0


class TestPipelineErrorContext:
    class _ExplodingPass(FunctionPass):
        name = "exploding-pass"
        description = "raises for the error-context regression test"

        def run_on_function(self, function: Function, module: Module) -> bool:
            if function.name == "helper":
                raise ValueError("boom")
            return False

    def test_pipeline_error_carries_pass_and_function_context(self):
        module = _module()
        manager = PassManager(["dce"])
        manager.add(self._ExplodingPass())
        with pytest.raises(PassPipelineError) as excinfo:
            manager.run(module)
        error = excinfo.value
        # The seed wrapped this in a bare RuntimeError that said only
        # "pass 'exploding-pass' failed: boom" — no slot, no function.
        assert isinstance(error, RuntimeError)
        assert error.pass_name == "exploding-pass"
        assert error.pass_index == 1
        assert error.function_name == "helper"
        assert isinstance(error.__cause__, ValueError)
        message = str(error)
        assert "exploding-pass" in message
        assert "index 1" in message
        assert "helper" in message
