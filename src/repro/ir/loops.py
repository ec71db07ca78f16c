"""Natural-loop detection, mirroring LLVM's LoopInfo analysis.

Loop structure drives several passes the paper studies (licm, loop-unroll,
loop-rotate, loop-deletion, indvars, ...), so the analysis exposes the same
concepts: header, latch, preheader, exit blocks and loop depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basic_block import BasicBlock
from .cfg import OrderedSet, predecessors_map
from .dominators import DominatorTree
from .function import Function


@dataclass
class Loop:
    """A natural loop: a header plus the set of blocks that can reach the latch.

    ``blocks`` is an insertion-ordered set so every iteration over a loop's
    body (hoisting, unrolling, cloning, ...) is deterministic and compiles
    stay byte-reproducible.
    """

    header: BasicBlock
    blocks: OrderedSet = field(default_factory=OrderedSet)
    latches: list[BasicBlock] = field(default_factory=list)
    parent: "Loop | None" = None
    subloops: list["Loop"] = field(default_factory=list)

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    @property
    def depth(self) -> int:
        depth = 1
        parent = self.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        return depth

    def preheader(self) -> BasicBlock | None:
        """The unique out-of-loop predecessor of the header, if there is one."""
        outside = [p for p in self.header.predecessors if p not in self.blocks]
        if len(outside) == 1 and len(outside[0].successors) == 1:
            return outside[0]
        return None

    def exit_blocks(self) -> list[BasicBlock]:
        """Blocks outside the loop that are targeted from inside the loop."""
        exits: list[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors:
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def body_in_rpo(self) -> list[BasicBlock]:
        """The loop's blocks in reverse post-order from the header.

        Cloning transformations (unrolling, unswitching) must visit defs
        before their cross-block uses so their value maps are populated in
        time; iterating the bare ``blocks`` set visits blocks in discovery
        order, which runs latch-backwards and broke that invariant.
        """
        visited = {self.header}
        order: list[BasicBlock] = []
        stack = [(self.header, iter(self.header.successors))]
        while stack:
            block, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ in self.blocks and succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors)))
                    advanced = True
                    break
            if not advanced:
                order.append(block)
                stack.pop()
        order.reverse()
        # Unreachable-from-header loop blocks cannot exist in a natural loop,
        # but keep any stragglers rather than dropping them silently.
        order.extend(b for b in self.blocks if b not in visited)
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Loop(header={self.header.name}, blocks={len(self.blocks)}, depth={self.depth})"


class LoopInfo:
    """All natural loops of a function, nested into a loop forest."""

    def __init__(self, function: Function, domtree: DominatorTree | None = None):
        self.function = function
        self.domtree = domtree or DominatorTree(function)
        self.top_level: list[Loop] = []
        self._block_to_loop: dict[BasicBlock, Loop] = {}
        self._discover()

    def _discover(self) -> None:
        preds = predecessors_map(self.function)
        # Find back edges: edge (latch -> header) where header dominates latch.
        headers: dict[BasicBlock, list[BasicBlock]] = {}
        for block in self.function.blocks:
            for succ in block.successors:
                if self.domtree.dominates(succ, block):
                    headers.setdefault(succ, []).append(block)

        loops: list[Loop] = []
        for header, latches in headers.items():
            loop = Loop(header=header, latches=latches)
            loop.blocks.add(header)
            worklist = list(latches)
            while worklist:
                block = worklist.pop()
                if block in loop.blocks:
                    continue
                loop.blocks.add(block)
                worklist.extend(preds.get(block, []))
            loops.append(loop)

        # Nest loops: a loop is a subloop of the smallest loop strictly containing it.
        loops.sort(key=lambda l: len(l.blocks))
        for i, inner in enumerate(loops):
            for outer in loops[i + 1:]:
                if inner.header in outer.blocks and inner is not outer:
                    inner.parent = outer
                    outer.subloops.append(inner)
                    break
        self.top_level = [l for l in loops if l.parent is None]
        # Map each block to its innermost loop.
        for loop in loops:
            for block in loop.blocks:
                existing = self._block_to_loop.get(block)
                if existing is None or len(loop.blocks) < len(existing.blocks):
                    self._block_to_loop[block] = loop

    def loops(self) -> list[Loop]:
        """All loops (outermost first within each tree)."""
        result: list[Loop] = []

        def visit(loop: Loop) -> None:
            result.append(loop)
            for sub in loop.subloops:
                visit(sub)

        for loop in self.top_level:
            visit(loop)
        return result

    def innermost_loops(self) -> list[Loop]:
        return [l for l in self.loops() if not l.subloops]

    def loop_for(self, block: BasicBlock) -> Loop | None:
        return self._block_to_loop.get(block)

    def loop_depth(self, block: BasicBlock) -> int:
        loop = self.loop_for(block)
        return loop.depth if loop is not None else 0
