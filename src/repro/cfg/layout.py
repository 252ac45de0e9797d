"""Code layout: assign addresses to a CFG and emit a real text segment.

Functions are laid out in function-id order, blocks in program order inside
each function, so fall-through edges are physically sequential and cold
error blocks sit inline between hot blocks — the layout that makes plain
NXL prefetchers issue useless prefetches (paper Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..isa import (
    CACHE_BLOCK_SIZE,
    FIXED_INSTRUCTION_SIZE,
    MAX_VARIABLE_SIZE,
    MIN_VARIABLE_SIZE,
    VL_BRANCH_MIN_SIZE,
    BranchKind,
    EncodingError,
    Instruction,
    PredecodeCaches,
    Predecoder,
    TextSegment,
)
from .graph import BasicBlock, ControlFlowGraph, Terminator

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TEXT_BASE = 0x10000
FUNCTION_ALIGNMENT = 16


@dataclass(frozen=True)
class LineSpan:
    """The portion of one basic block that lives in one cache line."""

    # Declared by hand: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = ("line_base", "first_pc", "n_instr", "has_terminator")

    line_base: int
    first_pc: int
    n_instr: int
    #: True when this span contains the block's terminator (always the
    #: last span of a block that has a terminator).
    has_terminator: bool

    # Frozen slots reject the setattr that pickling and copying restore
    # state with; these do what ``dataclass(slots=True)`` generates.
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class Program:
    """A laid-out synthetic program: CFG + byte image + derived indexes."""

    def __init__(self, cfg: ControlFlowGraph, segment: TextSegment):
        self.cfg = cfg
        self.segment = segment
        self._spans: Dict[int, Tuple[LineSpan, ...]] = {}
        self._branch_offsets: Dict[int, Tuple[int, ...]] = {}
        # One decode memo per program: every predecoder built from this
        # Program shares it (the segment is immutable), so back-to-back
        # simulations skip the cold re-decode of the whole text.
        self._predecode_caches = PredecodeCaches()
        self._index_lines()

    @property
    def variable_length(self) -> bool:
        return self.segment.variable_length

    @property
    def text_bytes(self) -> int:
        return self.segment.size

    def predecoder(self, **kwargs) -> Predecoder:
        return Predecoder(self.segment, caches=self._predecode_caches,
                          **kwargs)

    def spans_of(self, bid: int) -> Tuple[LineSpan, ...]:
        """Cache-line spans of a basic block, in fetch order."""
        return self._spans[bid]

    def branch_byte_offsets(self, line_base: int) -> Tuple[int, ...]:
        """Ground-truth byte offsets of branches in a cache line.

        This is what the retire stream would reveal; it seeds branch
        footprints for the VL-ISA experiments (Fig. 8/9).
        """
        return self._branch_offsets.get(line_base, ())

    def lines(self) -> List[int]:
        """All cache-line base addresses that hold instructions."""
        seen = set()
        for spans in self._spans.values():
            for s in spans:
                seen.add(s.line_base)
        return sorted(seen)

    def _index_lines(self) -> None:
        offsets: Dict[int, List[int]] = {}
        spans_of = _vl_spans if self.variable_length else _fixed_spans
        for blk in self.cfg.iter_blocks():
            self._spans[blk.bid] = spans_of(blk)
            # Only a block's terminator is a branch, on either ISA.
            branch = blk.branch
            if branch is not None:
                line = branch.pc - branch.pc % CACHE_BLOCK_SIZE
                offsets.setdefault(line, []).append(branch.pc - line)
        for line, offs in offsets.items():
            self._branch_offsets[line] = tuple(sorted(offs))


def _fixed_spans(blk: BasicBlock) -> Tuple[LineSpan, ...]:
    """Line spans of a fixed-length block from its bounds: its
    instructions are the 4-byte slots from ``addr`` on, so none is
    visited."""
    spans: List[LineSpan] = []
    pc = blk.addr
    end = pc + blk.size
    has_term = blk.terminator is not None
    while pc < end:
        line = pc - pc % CACHE_BLOCK_SIZE
        # Slots that start in this line (a slot may straddle its end).
        n = -(-(min(line + CACHE_BLOCK_SIZE, end) - pc)
              // FIXED_INSTRUCTION_SIZE)
        nxt = pc + n * FIXED_INSTRUCTION_SIZE
        spans.append(LineSpan(line, pc, n, has_term and nxt >= end))
        pc = nxt
    return tuple(spans)


def _vl_spans(blk: BasicBlock) -> Tuple[LineSpan, ...]:
    """Line spans of a variable-length block, one instruction at a time
    (each instruction has its own size)."""
    spans: List[LineSpan] = []
    cur_line = -1
    first_pc = 0
    count = 0
    for instr in blk.instructions:
        pc = instr.pc
        line = pc - pc % CACHE_BLOCK_SIZE
        if line != cur_line:
            if count:
                spans.append(LineSpan(cur_line, first_pc, count, False))
            cur_line = line
            first_pc = pc
            count = 0
        count += 1
    if count:
        spans.append(LineSpan(cur_line, first_pc, count,
                              blk.terminator is not None))
    return tuple(spans)


def _variable_sizes(block: BasicBlock, rng: np.random.Generator) -> List[int]:
    sizes = [int(rng.integers(MIN_VARIABLE_SIZE, MAX_VARIABLE_SIZE + 1))
             for _ in range(block.n_instr)]
    term = block.terminator
    if term is not None and term.kind.target_encoded:
        sizes[-1] = max(sizes[-1], VL_BRANCH_MIN_SIZE)
    return sizes


def _branch_target(cfg: ControlFlowGraph, term: Terminator) -> Optional[int]:
    """The encoded target of a terminator, once every block has an
    address (None for returns and indirect calls)."""
    if term.kind in (BranchKind.COND, BranchKind.JUMP):
        return cfg.block(term.taken_succ).addr
    if term.kind is BranchKind.CALL:
        return cfg.function(term.callee).entry.addr
    return None


def layout_program(cfg: ControlFlowGraph, variable_length: bool = False,
                   base: int = DEFAULT_TEXT_BASE, seed: int = 0) -> Program:
    """Assign addresses, build instructions and write the text segment."""
    import numpy as np
    rng = np.random.default_rng(seed ^ 0x1A40)

    # Pass 1: sizes and addresses.  Only the variable-length ISA draws
    # instruction sizes; a fixed-length block is 4 bytes an instruction.
    vl_sizes: Dict[int, List[int]] = {}
    cursor = base
    for func in cfg.functions:
        rem = cursor % FUNCTION_ALIGNMENT
        if rem:
            cursor += FUNCTION_ALIGNMENT - rem
        for blk in func.blocks:
            if variable_length:
                sizes = vl_sizes[blk.bid] = _variable_sizes(blk, rng)
                blk.size = sum(sizes)
            else:
                blk.size = FIXED_INSTRUCTION_SIZE * blk.n_instr
            blk.addr = cursor
            cursor += blk.size

    segment = TextSegment(base=base, size=cursor - base,
                          variable_length=variable_length)

    # Pass 2: resolve targets, build instructions and emit bytes.
    for blk in cfg.iter_blocks():
        term = blk.terminator
        if not variable_length:
            # A fixed-length non-branch encodes to four zero bytes and a
            # fresh segment holds zeros, so only the terminator is built
            # and written; the bounds check writing every instruction
            # would make is made per block.
            if not segment.contains(blk.addr, blk.size):
                raise EncodingError(
                    f"block {blk.bid} at {blk.addr:#x} (+{blk.size}) outside "
                    f"segment [{segment.base:#x}, {segment.end:#x})")
            if term is None:
                blk.branch = None
            else:
                blk.branch = Instruction(
                    blk.end - FIXED_INSTRUCTION_SIZE, FIXED_INSTRUCTION_SIZE,
                    term.kind, _branch_target(cfg, term))
                segment.write_instruction(blk.branch)
            continue
        sizes = vl_sizes[blk.bid]
        instrs: List[Instruction] = []
        pc = blk.addr
        for isize in (sizes if term is None else sizes[:-1]):
            instrs.append(Instruction(pc, isize))
            pc += isize
        if term is not None:
            instrs.append(Instruction(pc, sizes[-1], term.kind,
                                      _branch_target(cfg, term)))
        blk.instructions = instrs
        for instr in instrs:
            segment.write_instruction(instr)

    return Program(cfg, segment)
