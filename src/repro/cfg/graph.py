"""Control-flow-graph data model for synthetic programs.

A synthetic program is a set of functions, each a list of basic blocks laid
out consecutively.  Every block optionally ends with a terminator branch;
blocks without a terminator fall through to the next block of the function.
Addresses are assigned later by :mod:`repro.cfg.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa import FIXED_INSTRUCTION_SIZE, BranchKind, Instruction


@dataclass
class Terminator:
    """The branch that ends a basic block.

    ``taken_succ`` is a basic-block id for COND/JUMP, or ``None`` for
    RETURN.  For CALL and INDIRECT the callee is a *function* id (INDIRECT
    models an indirect call that dispatches over ``indirect_callees``).
    COND blocks also fall through to the next block with probability
    ``1 - taken_prob``.
    """

    kind: BranchKind
    taken_succ: Optional[int] = None
    callee: Optional[int] = None
    taken_prob: float = 1.0
    indirect_callees: Sequence[Tuple[int, float]] = ()

    def __post_init__(self) -> None:
        if self.kind is BranchKind.COND and self.taken_succ is None:
            raise ValueError("conditional terminator needs a taken successor")
        if self.kind is BranchKind.JUMP and self.taken_succ is None:
            raise ValueError("jump terminator needs a successor")
        if self.kind is BranchKind.CALL and self.callee is None:
            raise ValueError("call terminator needs a callee")
        if self.kind is BranchKind.INDIRECT and not self.indirect_callees:
            raise ValueError("indirect terminator needs callees")
        if not 0.0 <= self.taken_prob <= 1.0:
            raise ValueError("taken probability must be in [0, 1]")


@dataclass
class BasicBlock:
    """A basic block: ``n_instr`` instructions, the last being the terminator
    when one is present."""

    bid: int
    func: int
    n_instr: int
    terminator: Optional[Terminator] = None
    is_cold: bool = False

    # Filled in by layout:
    addr: int = -1
    size: int = -1

    def __post_init__(self) -> None:
        if self.n_instr < 1:
            raise ValueError("a basic block holds at least one instruction")
        # Derived by layout from the fields, so not fields themselves
        # (they stay out of ``==`` and ``repr``): the terminator's
        # instruction, and the instruction list once assigned or derived.
        self._branch: Optional[Instruction] = None
        self._instructions: Optional[List[Instruction]] = None

    @property
    def laid_out(self) -> bool:
        return self.addr >= 0

    @property
    def end(self) -> int:
        if not self.laid_out:
            raise RuntimeError(f"block {self.bid} not laid out yet")
        return self.addr + self.size

    @property
    def branch(self) -> Optional[Instruction]:
        """The terminator instruction, once laid out."""
        return self._branch

    @branch.setter
    def branch(self, instr: Optional[Instruction]) -> None:
        self._branch = instr
        self._instructions = None

    @property
    def instructions(self) -> List[Instruction]:
        """Every instruction of the block, in address order.

        A variable-length layout assigns the list (each size is drawn).
        On the fixed-length ISA it is derived on first read: the
        non-branches are the ``FIXED_INSTRUCTION_SIZE``-byte slots from
        ``addr`` on and the terminator comes last, so a build holds one
        :class:`Instruction` per terminated block, not one per
        instruction.  Empty before layout.
        """
        instrs = self._instructions
        if instrs is None:
            if not self.laid_out:
                return []
            branch = self._branch
            step = FIXED_INSTRUCTION_SIZE
            instrs = [Instruction(self.addr + step * i, step)
                      for i in range(self.n_instr - (branch is not None))]
            if branch is not None:
                instrs.append(branch)
            self._instructions = instrs
        return instrs

    @instructions.setter
    def instructions(self, instrs: List[Instruction]) -> None:
        self._instructions = instrs
        self._branch = (instrs[-1] if self.terminator is not None and instrs
                        else None)


@dataclass
class Function:
    """A function: contiguous basic blocks, entered at ``blocks[0]``."""

    fid: int
    blocks: List[BasicBlock] = field(default_factory=list)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise RuntimeError(f"function {self.fid} has no blocks")
        return self.blocks[0]

    @property
    def n_instr(self) -> int:
        return sum(b.n_instr for b in self.blocks)


class ControlFlowGraph:
    """The whole synthetic program."""

    def __init__(self, functions: Sequence[Function]):
        if not functions:
            raise ValueError("a program needs at least one function")
        self.functions: List[Function] = list(functions)
        self._by_fid: Dict[int, Function] = {f.fid: f for f in self.functions}
        self._by_bid: Dict[int, BasicBlock] = {}
        for f in self.functions:
            for b in f.blocks:
                if b.bid in self._by_bid:
                    raise ValueError(f"duplicate basic-block id {b.bid}")
                self._by_bid[b.bid] = b
        self._validate()

    def _validate(self) -> None:
        for f in self.functions:
            if not f.blocks:
                raise ValueError(f"function {f.fid} is empty")
            last = f.blocks[-1]
            if last.terminator is None or last.terminator.kind not in (
                    BranchKind.RETURN, BranchKind.JUMP):
                raise ValueError(
                    f"function {f.fid} must end in a return or jump, "
                    f"got {last.terminator}"
                )
            for i, b in enumerate(f.blocks):
                t = b.terminator
                if t is None and i == len(f.blocks) - 1:
                    raise ValueError(
                        f"last block {b.bid} of function {f.fid} falls off the end"
                    )
                if t is None:
                    continue
                for succ in (t.taken_succ,):
                    if succ is not None and succ not in self._by_bid:
                        raise ValueError(f"block {b.bid} targets unknown block {succ}")
                if t.callee is not None and t.callee not in self._by_fid:
                    raise ValueError(f"block {b.bid} calls unknown function {t.callee}")
                for callee, _p in t.indirect_callees:
                    if callee not in self._by_fid:
                        raise ValueError(
                            f"block {b.bid} indirectly calls unknown function {callee}"
                        )

    def function(self, fid: int) -> Function:
        return self._by_fid[fid]

    def block(self, bid: int) -> BasicBlock:
        return self._by_bid[bid]

    def fallthrough_of(self, block: BasicBlock) -> Optional[BasicBlock]:
        """The next block of the same function, if any."""
        func = self._by_fid[block.func]
        idx = func.blocks.index(block)
        if idx + 1 < len(func.blocks):
            return func.blocks[idx + 1]
        return None

    @property
    def n_blocks(self) -> int:
        return len(self._by_bid)

    @property
    def n_instr(self) -> int:
        return sum(f.n_instr for f in self.functions)

    def iter_blocks(self):
        for f in self.functions:
            yield from f.blocks
