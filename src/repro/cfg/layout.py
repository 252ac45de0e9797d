"""Code layout: assign addresses to a CFG and emit a real text segment.

Functions are laid out in function-id order, blocks in program order inside
each function, so fall-through edges are physically sequential and cold
error blocks sit inline between hot blocks — the layout that makes plain
NXL prefetchers issue useless prefetches (paper Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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
from .graph import BasicBlock, ControlFlowGraph

DEFAULT_TEXT_BASE = 0x10000
FUNCTION_ALIGNMENT = 16


@dataclass(frozen=True)
class LineSpan:
    """The portion of one basic block that lives in one cache line."""

    line_base: int
    first_pc: int
    n_instr: int
    #: True when this span contains the block's terminator (always the
    #: last span of a block that has a terminator).
    has_terminator: bool


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
        for blk in self.cfg.iter_blocks():
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
                if instr.kind != BranchKind.NOT_BRANCH:
                    offs = self._branch_offsets.setdefault(line, ())
                    self._branch_offsets[line] = offs + (pc - line,)
            if count:
                spans.append(LineSpan(cur_line, first_pc, count,
                                      blk.terminator is not None))
            self._spans[blk.bid] = tuple(spans)
        for line, offs in self._branch_offsets.items():
            self._branch_offsets[line] = tuple(sorted(offs))


def _terminator_kind(block: BasicBlock) -> Optional[BranchKind]:
    return block.terminator.kind if block.terminator is not None else None


def _instruction_sizes(block: BasicBlock, variable_length: bool,
                       rng: np.random.Generator) -> List[int]:
    if not variable_length:
        return [FIXED_INSTRUCTION_SIZE] * block.n_instr
    sizes = [int(rng.integers(MIN_VARIABLE_SIZE, MAX_VARIABLE_SIZE + 1))
             for _ in range(block.n_instr)]
    kind = _terminator_kind(block)
    if kind is not None and kind.target_encoded:
        sizes[-1] = max(sizes[-1], VL_BRANCH_MIN_SIZE)
    return sizes


def layout_program(cfg: ControlFlowGraph, variable_length: bool = False,
                   base: int = DEFAULT_TEXT_BASE, seed: int = 0) -> Program:
    """Assign addresses, build instructions and write the text segment."""
    rng = np.random.default_rng(seed ^ 0x1A40)

    # Pass 1: sizes and addresses.
    all_sizes: Dict[int, List[int]] = {}
    cursor = base
    for func in cfg.functions:
        rem = cursor % FUNCTION_ALIGNMENT
        if rem:
            cursor += FUNCTION_ALIGNMENT - rem
        for blk in func.blocks:
            sizes = _instruction_sizes(blk, variable_length, rng)
            all_sizes[blk.bid] = sizes
            blk.addr = cursor
            blk.size = sum(sizes)
            cursor += blk.size

    segment = TextSegment(base=base, size=cursor - base,
                          variable_length=variable_length)

    # Pass 2: resolve targets, build instructions and emit bytes.
    for func in cfg.functions:
        for blk in func.blocks:
            sizes = all_sizes[blk.bid]
            term = blk.terminator
            instrs: List[Instruction] = []
            pc = blk.addr
            for isize in (sizes if term is None else sizes[:-1]):
                instrs.append(Instruction(pc, isize))
                pc += isize
            if term is not None:
                target = None
                if term.kind in (BranchKind.COND, BranchKind.JUMP):
                    target = cfg.block(term.taken_succ).addr
                elif term.kind is BranchKind.CALL:
                    target = cfg.function(term.callee).entry.addr
                instrs.append(Instruction(pc, sizes[-1], term.kind, target))
            blk.instructions = instrs
            if variable_length:
                for instr in instrs:
                    segment.write_instruction(instr)
                continue
            # A fixed-length non-branch encodes to four zero bytes and a
            # fresh segment holds zeros, so only the terminator is
            # written.  The size and bounds checks that encoding and
            # writing each instruction would make are made per block.
            if sizes.count(FIXED_INSTRUCTION_SIZE) != len(sizes):
                raise EncodingError(
                    f"fixed-length ISA requires {FIXED_INSTRUCTION_SIZE}-byte "
                    f"instructions, block {blk.bid} has sizes {sizes}")
            if not segment.contains(blk.addr, blk.size):
                raise EncodingError(
                    f"block {blk.bid} at {blk.addr:#x} (+{blk.size}) outside "
                    f"segment [{segment.base:#x}, {segment.end:#x})")
            if term is not None:
                segment.write_instruction(instrs[-1])

    return Program(cfg, segment)
