"""Instruction selection: lowering IR modules to RV32IM machine code.

This is the optimizing selector introduced by the backend code-quality
overhaul.  Every emitted instruction is later *proven* by the zkVM, so the
selector works to keep the dynamic stream short:

* **No eager materialization.**  Constants fold into ``addi``/``andi``/
  ``slti``-style immediate forms; the constant 0 is the ``zero`` register;
  repeated constants, global addresses and alloca addresses are reused from a
  per-block cache instead of re-emitted per use.
* **Loop-invariant hoisting.**  A constant or address first needed inside a
  loop is materialized once in the function entry (up to
  :data:`HOIST_LIMIT` values) instead of once per iteration.
* **Address folding.**  Loads and stores through allocas, globals and
  constant-index GEPs fold the address arithmetic into the ``lw``/``sw``
  offset field; a GEP whose only users are memory accesses emits no code at
  all.
* **Parallel-move phi lowering.**  Phi nodes are lowered as one parallel
  copy per CFG edge (sequentialized with cycle-breaking), written directly
  into the phi result registers — the seed's per-phi staging register and
  block-entry copy (two dynamic moves per phi per iteration) are gone.
  Conditional edges into phi-carrying blocks get a machine-level edge block.

The cost-model-driven decisions the paper studies (branchless selects,
strength reduction) are unchanged in spirit: ``TargetCostModel`` still picks
between branchy and branchless selects and gates multiply strength
reduction.  Machine-level cleanup beyond selection (copy propagation,
store-to-load forwarding, branch flips, dead-code removal) lives in
:mod:`repro.backend.peephole`, which :func:`repro.backend.compile_module`
runs before register allocation.
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Alloca, Argument, BasicBlock, BinaryOp, Branch, Call, Cast, CondBranch,
    Constant, Function, GEP, GlobalVariable, ICmp, Instruction, Load, Module,
    Phi, Ret, Select, Store, UndefValue, Unreachable, Value, I1,
)
from ..ir.loops import LoopInfo
from .cost_model import TargetCostModel, CPU_COST_MODEL
from .isa import (
    ARGUMENT_REGISTERS, AssemblyFunction, AssemblyProgram, INVERTED_BRANCHES,
    Label, MachineInstr,
)
from .peephole import drop_redundant_jumps

#: Host-call ABI: name -> ecall id (placed in a7).
HOST_CALL_IDS = {
    "__print": 1,
    "__read_input": 2,
    "__sha256": 3,
    "__keccak256": 4,
    "__ecdsa_verify": 5,
    "__eddsa_verify": 6,
    "__bigint_modmul": 7,
    "__halt": 0,
}

DATA_SEGMENT_BASE = 0x0001_0000
STACK_TOP = 0x0400_0000
IMM_MIN, IMM_MAX = -2048, 2047

#: Maximum number of loop-invariant constants/addresses hoisted into a
#: function's entry block.  Each hoisted value occupies a register across its
#: loop uses; past a handful the register-pressure cost outweighs the
#: re-materialization savings, so the selector falls back to per-block reuse.
HOIST_LIMIT = 12

#: Address regions for absolute (global) addresses are 2 KiB so the region
#: delta always fits a 12-bit signed load/store offset.
_REGION_MASK = ~0x7FF


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _fits_imm(value: int) -> bool:
    return IMM_MIN <= value <= IMM_MAX


class FunctionLowering:
    """Lowers a single IR function to machine code with virtual registers."""

    def __init__(self, function: Function, program: AssemblyProgram,
                 cost_model: TargetCostModel, hoist_limit: int = HOIST_LIMIT):
        self.function = function
        self.program = program
        self.cost_model = cost_model
        self.asm = AssemblyFunction(function.name)
        self.vreg_counter = 0
        self.edge_counter = 0
        self.value_regs: dict[int, str] = {}      # id(value) -> vreg
        self.alloca_offsets: dict[int, int] = {}  # id(alloca) -> frame offset
        self.frame_bytes = 0
        self.block_labels: dict[int, str] = {}
        # Reuse caches (see _invariant_reg / _block_reg).
        self._hoisted: dict = {}                  # key -> vreg, entry block
        self._block_cache: dict = {}              # key -> vreg, current block
        self._entry_insert_pos = 0
        self._hoist_enabled = hoist_limit > 0
        self._hoist_budget = hoist_limit
        self._cur_depth = 0
        self._block_depths: dict[int, int] = {}   # id(block) -> loop depth

    # -- small helpers -----------------------------------------------------
    def new_vreg(self, hint: str = "v") -> str:
        """A fresh virtual register name."""
        self.vreg_counter += 1
        return f"%{hint}{self.vreg_counter}"

    def emit(self, opcode: str, *operands, comment: str = "") -> MachineInstr:
        """Append one instruction to the function body."""
        instr = MachineInstr(opcode, list(operands), comment)
        self.asm.body.append(instr)
        return instr

    def emit_label(self, name: str) -> None:
        """Append a label, recording its loop depth for the allocator."""
        self.asm.body.append(Label(name))
        self.asm.label_depths[name] = self._cur_depth

    def label_for(self, block: BasicBlock) -> str:
        key = id(block)
        if key not in self.block_labels:
            self.block_labels[key] = f".{self.function.name}.{block.name}"
        return self.block_labels[key]

    # -- value reuse caches ------------------------------------------------
    def _invariant_reg(self, key, hint: str, build) -> str:
        """A register holding a function-invariant value (constant, address).

        ``build(reg)`` returns the instruction(s) that materialize the value
        into ``reg``.  Inside a loop the materialization is hoisted to the
        function entry (once per function, budgeted); outside loops it is
        cached per basic block.
        """
        reg = self._hoisted.get(key)
        if reg is not None:
            return reg
        if self._cur_depth > 0 and self._hoist_enabled and self._hoist_budget > 0:
            reg = self.new_vreg(hint)
            instrs = build(reg)
            for index, instr in enumerate(instrs):
                self.asm.body.insert(self._entry_insert_pos + index, instr)
            self._entry_insert_pos += len(instrs)
            self._hoisted[key] = reg
            self._hoist_budget -= 1
            return reg
        return self._block_reg(key, hint, build)

    def _block_reg(self, key, hint: str, build) -> str:
        """A register holding a value reusable within the current block only."""
        reg = self._block_cache.get(key)
        if reg is None:
            reg = self.new_vreg(hint)
            self.asm.body.extend(build(reg))
            self._block_cache[key] = reg
        return reg

    def _const_reg(self, value: int, hint: str = "c") -> str:
        """A register holding the 32-bit constant ``value`` (``zero`` for 0)."""
        if value == 0:
            return "zero"
        return self._invariant_reg(("const", value), hint, lambda reg: [
            MachineInstr("li", [reg, value])])

    def _alloca_reg(self, alloca: Alloca) -> str:
        """A register holding the frame address of ``alloca``."""
        offset = self.alloca_offsets[id(alloca)]
        return self._invariant_reg(("alloca", id(alloca)), "fp", lambda reg: [
            MachineInstr("addi", [reg, "sp", offset],
                         comment=f"&{alloca.name}")])

    def reg_for(self, value: Value) -> str:
        """The virtual register holding ``value`` (materializing constants)."""
        if isinstance(value, Constant):
            return self._const_reg(value.signed_value)
        if isinstance(value, UndefValue):
            return "zero"
        if isinstance(value, GlobalVariable):
            address = self.program.globals_layout[value.name]
            return self._const_reg(address, hint="g")
        if isinstance(value, Alloca):
            return self._alloca_reg(value)
        key = id(value)
        if key not in self.value_regs:
            self.value_regs[key] = self.new_vreg()
        return self.value_regs[key]

    def result_reg(self, inst: Instruction) -> str:
        key = id(inst)
        if key not in self.value_regs:
            self.value_regs[key] = self.new_vreg()
        return self.value_regs[key]

    # -- static address resolution -----------------------------------------
    def _address_of(self, value: Value):
        """Resolve a pointer to a static form, or ``None``.

        Returns ``("sp", offset)`` for frame addresses and ``("abs", addr)``
        for data-segment addresses, folding constant-index GEP chains.
        """
        if isinstance(value, Alloca):
            return ("sp", self.alloca_offsets[id(value)])
        if isinstance(value, GlobalVariable):
            return ("abs", self.program.globals_layout[value.name])
        if isinstance(value, GEP) and isinstance(value.index, Constant):
            base = self._address_of(value.base)
            if base is not None:
                kind, addr = base
                return (kind, addr + value.index.signed_value * value.element_size)
        return None

    def _static_mem(self, pointer: Value):
        """The ``_address_of`` resolution of ``pointer`` iff it can be used
        directly as a load/store operand (offset in range), else ``None``."""
        static = self._address_of(pointer)
        if static is None:
            return None
        kind, address = static
        if kind == "sp" and _fits_imm(address):
            return static
        if kind == "abs" and address >= 0:
            return static
        return None

    def _mem_operand(self, pointer: Value) -> tuple[int, str]:
        """``(offset, base_reg)`` for a load/store through ``pointer``.

        Frame addresses fold into an ``sp``-relative offset; absolute
        addresses share one materialized register per 2 KiB region (the
        region delta always fits the 12-bit offset).  Anything else computes
        the address into a register and uses offset 0.
        """
        static = self._static_mem(pointer)
        if static is not None:
            kind, address = static
            if kind == "sp":
                return address, "sp"
            region = address & _REGION_MASK
            return address - region, self._const_reg(region, hint="g")
        return 0, self.reg_for(pointer)

    def _gep_folds_away(self, inst: GEP) -> bool:
        """True when a GEP needs no code: every user folds it into a memory
        operand, or it is dead."""
        if not inst.users:
            return True
        if self._static_mem(inst) is None:
            return False
        for user in inst.users:
            if isinstance(user, Load) and user.pointer is inst:
                continue
            if isinstance(user, Store) and user.pointer is inst \
                    and user.value is not inst:
                continue
            return False
        return True

    # -- driver ---------------------------------------------------------------
    def lower(self) -> AssemblyFunction:
        # Assign frame slots for allocas.
        for block in self.function.blocks:
            for inst in block.instructions:
                if isinstance(inst, Alloca):
                    self.alloca_offsets[id(inst)] = self.frame_bytes
                    self.frame_bytes += max(4, inst.size_bytes)
        self.asm.frame_size = self.frame_bytes

        # Loop depths steer constant hoisting here and spill weights in the
        # register allocator (via AssemblyFunction.label_depths).
        loops = LoopInfo(self.function)
        for block in self.function.blocks:
            self._block_depths[id(block)] = loops.loop_depth(block)
        # A function whose entry is itself a loop header cannot hoist to the
        # entry block (the materialization would still run per iteration).
        if self.function.blocks and \
                self._block_depths[id(self.function.blocks[0])] > 0:
            self._hoist_enabled = False

        # Copy incoming arguments out of a0..a7.
        for index, argument in enumerate(self.function.arguments):
            if index < len(ARGUMENT_REGISTERS):
                self.emit("mv", self.reg_for(argument), ARGUMENT_REGISTERS[index],
                          comment=f"arg {argument.name}")
        self._entry_insert_pos = len(self.asm.body)

        for block in self.function.blocks:
            self._cur_depth = self._block_depths[id(block)]
            self._block_cache.clear()
            self.emit_label(self.label_for(block))
            # Phi results are written on each incoming edge (parallel moves
            # in the predecessors); nothing to do at block entry.
            for inst in block.non_phi_instructions():
                self.lower_instruction(inst, block)
        return self.asm

    # -- per-instruction lowering --------------------------------------------
    def lower_instruction(self, inst: Instruction, block: BasicBlock) -> None:
        if isinstance(inst, Alloca):
            return  # handled via frame slots
        if isinstance(inst, BinaryOp):
            self.lower_binop(inst)
        elif isinstance(inst, ICmp):
            # A compare whose only user is this block's conditional branch is
            # fused into the branch; don't materialize it twice.
            if len(inst.users) == 1 and isinstance(inst.users[0], CondBranch) \
                    and inst.users[0].parent is block \
                    and inst.predicate in (*self._BRANCH_OPCODES, *self._SWAPPED_BRANCHES):
                return
            self.lower_icmp_value(inst)
        elif isinstance(inst, Select):
            self.lower_select(inst)
        elif isinstance(inst, Load):
            offset, base = self._mem_operand(inst.pointer)
            self.emit("lw", self.result_reg(inst), offset, base)
        elif isinstance(inst, Store):
            offset, base = self._mem_operand(inst.pointer)
            self.emit("sw", self.reg_for(inst.value), offset, base)
        elif isinstance(inst, GEP):
            if not self._gep_folds_away(inst):
                self.lower_gep(inst)
        elif isinstance(inst, Cast):
            self.lower_cast(inst)
        elif isinstance(inst, Call):
            self.lower_call(inst)
        elif isinstance(inst, Branch):
            copies = self._phi_copies(block, inst.target)
            self._emit_parallel_copies(copies)
            self.emit("j", self.label_for(inst.target))
        elif isinstance(inst, CondBranch):
            self.lower_cond_branch(inst, block)
        elif isinstance(inst, Ret):
            if inst.value is not None:
                self._move_into("a0", inst.value)
            self.emit("ret")
        elif isinstance(inst, Unreachable):
            self.emit("ebreak")
        else:
            raise NotImplementedError(f"cannot lower {type(inst).__name__}")

    def _move_into(self, register: str, value: Value) -> None:
        """Put ``value`` into a specific physical register (ABI moves)."""
        if isinstance(value, Constant) and value.signed_value != 0:
            self.emit("li", register, value.signed_value)
        else:
            self.emit("mv", register, self.reg_for(value))

    _BINOP_OPCODES = {
        "add": "add", "sub": "sub", "mul": "mul", "sdiv": "div", "udiv": "divu",
        "srem": "rem", "urem": "remu", "and": "and", "or": "or", "xor": "xor",
        "shl": "sll", "lshr": "srl", "ashr": "sra",
    }
    _IMMEDIATE_FORMS = {"add": "addi", "and": "andi", "or": "ori", "xor": "xori",
                        "shl": "slli", "lshr": "srli", "ashr": "srai"}
    _COMMUTATIVE = frozenset(["add", "mul", "and", "or", "xor"])

    def lower_binop(self, inst: BinaryOp) -> None:
        dest = self.result_reg(inst)
        lhs, rhs = inst.lhs, inst.rhs
        # Canonicalize a constant onto the right for commutative operators so
        # the immediate forms below apply.
        if isinstance(lhs, Constant) and not isinstance(rhs, Constant) \
                and inst.opcode in self._COMMUTATIVE:
            lhs, rhs = rhs, lhs
        rhs_const = rhs.signed_value if isinstance(rhs, Constant) else None
        # Immediate forms when the constant fits.
        if rhs_const is not None and inst.opcode in self._IMMEDIATE_FORMS \
                and _fits_imm(rhs_const):
            self.emit(self._IMMEDIATE_FORMS[inst.opcode], dest,
                      self.reg_for(lhs), rhs_const)
            return
        if rhs_const is not None and inst.opcode == "sub" \
                and _fits_imm(-rhs_const):
            self.emit("addi", dest, self.reg_for(lhs), -rhs_const)
            return
        # Multiplication by a power of two: shift when the cost model says so.
        if rhs_const is not None and inst.opcode == "mul" \
                and self.cost_model.expand_mul_by_constant and _is_power_of_two(rhs_const):
            self.emit("slli", dest, self.reg_for(lhs), rhs_const.bit_length() - 1)
            return
        self.emit(self._BINOP_OPCODES[inst.opcode], dest,
                  self.reg_for(lhs), self.reg_for(rhs))

    def lower_icmp_value(self, inst: ICmp) -> None:
        """Materialize a comparison result as 0/1 in a register."""
        dest = self.result_reg(inst)
        predicate = inst.predicate
        rhs_const = inst.rhs.signed_value \
            if isinstance(inst.rhs, Constant) else None

        if rhs_const is not None and self._lower_icmp_immediate(
                inst, dest, predicate, rhs_const):
            return

        lhs, rhs = self.reg_for(inst.lhs), self.reg_for(inst.rhs)
        if predicate == "eq":
            tmp = self.new_vreg()
            self.emit("xor", tmp, lhs, rhs)
            self.emit("sltiu", dest, tmp, 1)
        elif predicate == "ne":
            tmp = self.new_vreg()
            self.emit("xor", tmp, lhs, rhs)
            self.emit("sltu", dest, "zero", tmp)
        elif predicate in ("slt", "ult"):
            self.emit("slt" if predicate == "slt" else "sltu", dest, lhs, rhs)
        elif predicate in ("sgt", "ugt"):
            self.emit("slt" if predicate == "sgt" else "sltu", dest, rhs, lhs)
        elif predicate in ("sle", "ule"):
            self.emit("slt" if predicate == "sle" else "sltu", dest, rhs, lhs)
            self.emit("xori", dest, dest, 1)
        elif predicate in ("sge", "uge"):
            self.emit("slt" if predicate == "sge" else "sltu", dest, lhs, rhs)
            self.emit("xori", dest, dest, 1)
        else:
            raise NotImplementedError(predicate)

    def _lower_icmp_immediate(self, inst: ICmp, dest: str, predicate: str,
                              imm: int) -> bool:
        """Compare-against-constant forms that avoid materializing the
        constant; returns False when no immediate form applies."""
        lhs = None  # resolved lazily so a bail-out emits nothing

        def L() -> str:
            nonlocal lhs
            if lhs is None:
                lhs = self.reg_for(inst.lhs)
            return lhs

        if predicate == "eq" and imm == 0:
            self.emit("sltiu", dest, L(), 1)
            return True
        if predicate == "ne" and imm == 0:
            self.emit("sltu", dest, "zero", L())
            return True
        if predicate in ("eq", "ne") and _fits_imm(imm):
            tmp = self.new_vreg()
            self.emit("xori", tmp, L(), imm)
            if predicate == "eq":
                self.emit("sltiu", dest, tmp, 1)
            else:
                self.emit("sltu", dest, "zero", tmp)
            return True
        if predicate in ("slt", "ult") and _fits_imm(imm):
            self.emit("slti" if predicate == "slt" else "sltiu", dest, L(), imm)
            return True
        if predicate in ("sge", "uge") and _fits_imm(imm):
            self.emit("slti" if predicate == "sge" else "sltiu", dest, L(), imm)
            self.emit("xori", dest, dest, 1)
            return True
        # x <= c  is  x < c+1;  x > c  is  !(x < c+1) — valid while c+1 does
        # not overflow the immediate (and, for unsigned forms, c itself is a
        # small non-negative value so c+1 cannot wrap).
        if predicate in ("sle", "sgt") and _fits_imm(imm + 1):
            self.emit("slti", dest, L(), imm + 1)
            if predicate == "sgt":
                self.emit("xori", dest, dest, 1)
            return True
        if predicate in ("ule", "ugt") and 0 <= imm < IMM_MAX:
            self.emit("sltiu", dest, L(), imm + 1)
            if predicate == "ugt":
                self.emit("xori", dest, dest, 1)
            return True
        return False

    def lower_select(self, inst: Select) -> None:
        dest = self.result_reg(inst)
        cond = self.reg_for(inst.condition)
        true_zero = isinstance(inst.true_value, Constant) \
            and inst.true_value.signed_value == 0
        false_zero = isinstance(inst.false_value, Constant) \
            and inst.false_value.signed_value == 0
        if self.cost_model.prefer_branchless_select:
            if false_zero:
                # dest = t & -cond
                mask = self.new_vreg()
                self.emit("sub", mask, "zero", cond)
                self.emit("and", dest, self.reg_for(inst.true_value), mask)
                return
            if true_zero:
                # dest = f & (cond - 1)
                mask = self.new_vreg()
                self.emit("addi", mask, cond, -1)
                self.emit("and", dest, self.reg_for(inst.false_value), mask)
                return
            # mask = -cond; dest = (t & mask) | (f & ~mask)
            true_reg = self.reg_for(inst.true_value)
            false_reg = self.reg_for(inst.false_value)
            mask = self.new_vreg()
            inv = self.new_vreg()
            tmp_t = self.new_vreg()
            tmp_f = self.new_vreg()
            self.emit("sub", mask, "zero", cond)
            self.emit("and", tmp_t, true_reg, mask)
            self.emit("xori", inv, mask, -1)
            self.emit("and", tmp_f, false_reg, inv)
            self.emit("or", dest, tmp_t, tmp_f)
        else:
            label = f".{self.function.name}.sel{self.vreg_counter}"
            self._move_into(dest, inst.true_value)
            self.emit("bnez", cond, label)
            # The false arm only executes when the condition is false, so any
            # value materialized inside it (a global address, a cached
            # constant) must not enter the block cache: a later use in this
            # block would read a register whose defining instruction was
            # branched over.
            saved_cache = dict(self._block_cache)
            self._move_into(dest, inst.false_value)
            self._block_cache = saved_cache
            self.emit_label(label)

    def lower_gep(self, inst: GEP) -> None:
        dest = self.result_reg(inst)
        static = self._address_of(inst)
        if static is not None:
            kind, address = static
            if kind == "sp" and _fits_imm(address):
                self.emit("addi", dest, "sp", address)
                return
            if kind == "abs":
                self.emit("li", dest, address)
                return
        size = inst.element_size
        base = self.reg_for(inst.base)
        if isinstance(inst.index, Constant):
            offset = inst.index.signed_value * size
            if offset == 0:
                self.emit("mv", dest, base)
            elif _fits_imm(offset):
                self.emit("addi", dest, base, offset)
            else:
                self.emit("add", dest, base, self._const_reg(offset))
            return
        scaled = self._scaled_index_reg(inst.index, size)
        self.emit("add", dest, base, scaled)

    def _scaled_index_reg(self, index: Value, size: int) -> str:
        """``index * size`` in a register, shared per block across GEPs."""
        index_reg = self.reg_for(index)
        if size == 1:
            return index_reg
        if _is_power_of_two(size):
            shift = size.bit_length() - 1
            return self._block_reg(("scaled", index_reg, shift), "s",
                                   lambda reg: [MachineInstr(
                                       "slli", [reg, index_reg, shift])])
        return self._block_reg(("scaledm", index_reg, size), "s",
                               lambda reg: [MachineInstr(
                                   "mul", [reg, index_reg,
                                           self._const_reg(size)])])

    def lower_cast(self, inst: Cast) -> None:
        dest = self.result_reg(inst)
        source = self.reg_for(inst.value)
        bits = getattr(inst.type, "bits", 32)
        if inst.opcode == "zext":
            # i1 values are materialized as 0/1 everywhere, so the zext is a
            # plain copy (the peephole's copy propagation usually erases it).
            self.emit("mv", dest, source)
        elif inst.opcode == "trunc":
            if bits >= 32:
                self.emit("mv", dest, source)
            else:
                self.emit("andi", dest, source, (1 << bits) - 1)
        else:  # sext
            source_bits = getattr(inst.value.type, "bits", 32)
            if source_bits >= 32:
                self.emit("mv", dest, source)
            else:
                shift = 32 - source_bits
                self.emit("slli", dest, source, shift)
                self.emit("srai", dest, dest, shift)

    def lower_call(self, inst: Call) -> None:
        if inst.callee in HOST_CALL_IDS:
            for index, arg in enumerate(inst.args[:7]):
                self._move_into(ARGUMENT_REGISTERS[index], arg)
            self.emit("li", "a7", HOST_CALL_IDS[inst.callee], comment=inst.callee)
            self.emit("ecall")
        else:
            for index, arg in enumerate(inst.args[:8]):
                self._move_into(ARGUMENT_REGISTERS[index], arg)
            self.emit("call", inst.callee)
        if inst.has_result and inst.users:
            self.emit("mv", self.result_reg(inst), "a0")

    _BRANCH_OPCODES = {"eq": "beq", "ne": "bne", "slt": "blt", "sge": "bge",
                       "ult": "bltu", "uge": "bgeu"}
    _SWAPPED_BRANCHES = {"sgt": "blt", "sle": "bge", "ugt": "bltu", "ule": "bgeu"}
    _INVERTED_BRANCHES = INVERTED_BRANCHES

    def _branch_parts(self, inst: CondBranch, block: BasicBlock):
        """``(opcode, operands)`` for the branch condition, label excluded."""
        condition = inst.condition
        if isinstance(condition, ICmp) and condition.parent is block \
                and len(condition.users) == 1:
            predicate = condition.predicate
            if predicate in self._BRANCH_OPCODES:
                lhs = self.reg_for(condition.lhs)
                rhs = self.reg_for(condition.rhs)
                return self._BRANCH_OPCODES[predicate], [lhs, rhs]
            if predicate in self._SWAPPED_BRANCHES:
                lhs = self.reg_for(condition.lhs)
                rhs = self.reg_for(condition.rhs)
                return self._SWAPPED_BRANCHES[predicate], [rhs, lhs]
        return "bnez", [self.reg_for(condition)]

    def lower_cond_branch(self, inst: CondBranch, block: BasicBlock) -> None:
        true_label = self.label_for(inst.true_target)
        false_label = self.label_for(inst.false_target)

        if inst.true_target is inst.false_target:
            # Degenerate two-way branch to one block: an unconditional jump.
            copies = self._phi_copies(block, inst.true_target)
            self._emit_parallel_copies(copies)
            self.emit("j", true_label)
            return

        # Materialize branch operands and phi-copy sources *before* the
        # branch so both edges see them.
        opcode, operands = self._branch_parts(inst, block)
        true_copies = self._phi_copies(block, inst.true_target)
        false_copies = self._phi_copies(block, inst.false_target)

        if true_copies and not false_copies:
            # Invert so the copy-free edge takes the branch and the copies
            # run on the fallthrough.
            self.emit(self._INVERTED_BRANCHES[opcode], *operands, false_label)
            self._emit_parallel_copies(true_copies)
            self.emit("j", true_label)
            return
        self.emit(opcode, *operands,
                  true_label if not true_copies else self._edge_label())
        if true_copies:  # both edges carry copies: branch to an edge block
            edge = self.asm.body[-1].operands[-1]
            self._emit_parallel_copies(false_copies)
            self.emit("j", false_label)
            self.emit_label(edge)
            self._emit_parallel_copies(true_copies)
            self.emit("j", true_label)
            return
        self._emit_parallel_copies(false_copies)
        self.emit("j", false_label)

    def _edge_label(self) -> str:
        self.edge_counter += 1
        return f".{self.function.name}.edge{self.edge_counter}"

    # -- phi lowering: one parallel copy per CFG edge -------------------------
    def _phi_copies(self, block: BasicBlock, target: BasicBlock) -> list:
        """The parallel copy for edge ``block -> target``.

        Returns ``(dest, ("reg", name) | ("imm", value))`` pairs writing each
        phi's result register directly; self-copies are dropped.
        """
        copies = []
        for phi in target.phis():
            incoming = phi.incoming_for_block(block)
            if incoming is None:
                continue
            dest = self.result_reg(phi)
            if isinstance(incoming, Constant) and incoming.signed_value != 0:
                copies.append((dest, ("imm", incoming.signed_value)))
            else:
                source = self.reg_for(incoming)
                if source != dest:
                    copies.append((dest, ("reg", source)))
        return copies

    def _emit_parallel_copies(self, copies: list) -> None:
        """Sequentialize a parallel copy, breaking cycles with one temp.

        A copy may not overwrite a register another pending copy still reads
        (phi-swap semantics); when only cycles remain, one destination is
        saved into a temporary and the cycle unwinds through it.
        """
        pending = list(copies)
        while pending:
            for i, (dest, source) in enumerate(pending):
                if any(s == ("reg", dest)
                       for j, (_, s) in enumerate(pending) if j != i):
                    continue
                if source[0] == "imm":
                    self.emit("li", dest, source[1])
                else:
                    self.emit("mv", dest, source[1], comment="phi")
                pending.pop(i)
                break
            else:
                dest, _ = pending[0]
                temp = self.new_vreg("cyc")
                self.emit("mv", temp, dest, comment="phi cycle")
                pending = [(d, ("reg", temp) if s == ("reg", dest) else s)
                           for d, s in pending]


def lower_module(module: Module,
                 cost_model: TargetCostModel = CPU_COST_MODEL) -> AssemblyProgram:
    """Lower an IR module to an RV32IM assembly program (virtual registers)."""
    program = AssemblyProgram()
    # Lay out globals in the data segment.
    address = DATA_SEGMENT_BASE
    for gv in module.globals.values():
        program.globals_layout[gv.name] = address
        if gv.initializer is not None:
            elem = gv.element_type.size_bytes
            for i, word in enumerate(gv.initializer):
                program.globals_init[address + i * elem] = word & 0xFFFFFFFF
        address += max(4, gv.size_bytes)
        address = (address + 3) & ~3
    program.data_end = address

    for function in module.defined_functions():
        lowering = FunctionLowering(function, program, cost_model)
        asm = lowering.lower()
        drop_redundant_jumps(asm)
        program.functions[function.name] = asm
    return program
