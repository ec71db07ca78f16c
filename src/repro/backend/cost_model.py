"""Target cost models that steer instruction selection.

The default model mirrors LLVM's RISC-V tuning for conventional cores
(division is slow, branches can mispredict, so branchless selects are
preferred).  The zkVM-aware model is the paper's Change Set 1: it reflects
the near-uniform per-instruction cost of proving, so the backend prefers the
shortest instruction sequence even when it contains a division or a branch.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TargetCostModel:
    """Knobs consulted by the instruction selector."""

    name: str = "cpu"
    #: Lower ``select`` into a branch-free mask sequence (5 ALU ops) instead of
    #: a short branch.  Good when branches mispredict; bad when every
    #: instruction is proven.
    prefer_branchless_select: bool = True
    #: Expand multiplications by small constants into shift/add sequences.
    expand_mul_by_constant: bool = True


CPU_COST_MODEL = TargetCostModel(name="cpu")

ZKVM_COST_MODEL = TargetCostModel(
    name="zkvm",
    prefer_branchless_select=False,
    expand_mul_by_constant=False,
)


def cost_model_for(zkvm_aware: bool) -> TargetCostModel:
    """The backend cost model for a compilation mode: zkVM-aware or CPU."""
    return ZKVM_COST_MODEL if zkvm_aware else CPU_COST_MODEL
