"""RISC-V (RV32IM) backend: instruction selection, machine-level peephole
optimization, register allocation and frame lowering.

The top-level entry point is :func:`compile_module`, which turns an IR module
into an executable :class:`~repro.backend.isa.AssemblyProgram` through the
optimizing pipeline::

    lowering.py  →  peephole.py  →  regalloc.py  →  frame finalization

Its independent oracle is the IR interpreter: the backend differential
tests and the fuzz harness replay every compiled guest and compare its
output and return value with :func:`repro.ir.interpreter.run_module` on the
same module.
"""

from ..ir import Module
from .cost_model import CPU_COST_MODEL, ZKVM_COST_MODEL, TargetCostModel, cost_model_for
from .encoding import (
    EncodeError, EncodedProgram, code_size_report, decode_words,
    encode_program, reassemble,
)
from .isa import AssemblyFunction, AssemblyProgram, Label, MachineInstr, classify
from .lowering import (
    DATA_SEGMENT_BASE, FunctionLowering, HOST_CALL_IDS, STACK_TOP, lower_module,
)
from .peephole import (
    cleanup_after_regalloc, drop_redundant_jumps, recolor_for_rvc, run_peephole,
)
from .regalloc import (
    LinearScanAllocator, allocate_registers, finalize_frame,
    weighted_static_cost,
)


def compile_module(module: Module,
                   cost_model: TargetCostModel = CPU_COST_MODEL) -> AssemblyProgram:
    """Lower ``module`` to RV32IM and run the full backend on every function.

    The returned program carries ``backend_stats``: per-function dicts of
    static size before/after the peephole passes, per-rule peephole hit
    counts, and the allocator's spill statistics (``repro lower --stats``
    renders them).
    """
    program = lower_module(module, cost_model)
    ir_functions = {f.name: f for f in module.defined_functions()}
    backend_stats: dict[str, dict] = {}
    for name, asm in list(program.functions.items()):
        stats = _run_backend_pipeline(asm)
        if stats["spilled_vregs"] >= _HOIST_RETRY_SPILLS:
            # Loop-invariant hoisting raised register pressure enough to
            # spill; re-lower without it and keep the cheaper variant (by
            # the same loop-weighted cost the spill heuristic optimizes).
            retry = FunctionLowering(ir_functions[name], program, cost_model,
                                     hoist_limit=0).lower()
            drop_redundant_jumps(retry)
            retry_stats = _run_backend_pipeline(retry)
            if retry_stats["weighted_cost"] < stats["weighted_cost"]:
                program.functions[name] = retry
                stats = retry_stats
                stats["hoisting_disabled"] = True
        backend_stats[name] = stats
    program.backend_stats = backend_stats
    _attach_code_sizes(program, backend_stats)
    return program


def _attach_code_sizes(program: AssemblyProgram, backend_stats: dict) -> None:
    """Measure the program's binary footprint and record it on the program.

    ``program.code_sizes`` holds the whole-program byte counts
    (``{"rv32": ..., "rvc": ...}``), and each function's ``backend_stats``
    entry gets ``code_bytes``/``code_bytes_rvc``.  Programs carrying
    something the encoder rejects (possible for hand-built test inputs,
    never for lowered code) get ``code_sizes=None`` rather than failing the
    compile.
    """
    try:
        sizes = code_size_report(program)
    except EncodeError:
        program.code_sizes = None
        return
    program.code_sizes = {"rv32": sizes["rv32"], "rvc": sizes["rvc"]}
    for name, stats in backend_stats.items():
        per_function = sizes["functions"].get(name)
        if per_function is not None:
            stats["code_bytes"] = per_function["rv32"]
            stats["code_bytes_rvc"] = per_function["rvc"]


#: Spilled-vreg count at which ``compile_module`` re-lowers a function with
#: loop-invariant hoisting disabled and keeps the cheaper variant.
_HOIST_RETRY_SPILLS = 4


def _run_backend_pipeline(asm: AssemblyFunction) -> dict:
    """Peephole → allocate → cleanup → finalize one function, in place.

    Returns the per-function entry for ``AssemblyProgram.backend_stats``.
    """
    lowered = len(asm.instructions())
    peephole_hits = run_peephole(asm)
    allocator = LinearScanAllocator(asm)
    allocator.run()
    cleanup_hits = cleanup_after_regalloc(asm)
    finalize_frame(asm, allocator.used_callee_saved)
    recolored = recolor_for_rvc(asm)
    for key, value in cleanup_hits.items():
        peephole_hits[key] = peephole_hits.get(key, 0) + value
    return {
        "lowered_instructions": lowered,
        "final_instructions": len(asm.instructions()),
        "frame_bytes": asm.frame_size,
        "spilled_vregs": allocator.spilled_vregs,
        "spill_loads": allocator.spill_loads,
        "spill_stores": allocator.spill_stores,
        "weighted_cost": weighted_static_cost(asm),
        "rvc_recolored": recolored,
        "peephole": peephole_hits,
    }


__all__ = [
    "compile_module", "lower_module",
    "allocate_registers", "run_peephole", "cleanup_after_regalloc",
    "AssemblyFunction", "AssemblyProgram", "Label", "MachineInstr", "classify",
    "TargetCostModel", "CPU_COST_MODEL", "ZKVM_COST_MODEL", "cost_model_for",
    "DATA_SEGMENT_BASE", "HOST_CALL_IDS", "STACK_TOP",
    "EncodeError", "EncodedProgram", "code_size_report", "decode_words",
    "encode_program", "reassemble",
]
