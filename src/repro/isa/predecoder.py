"""Block pre-decoder shared by the Dis and BTB prefetchers (paper Section V-C).

A single pre-decoder serves both consumers: it walks the instructions of a
cache block, extracts the branch instructions (for BTB prefilling), and can
additionally check whether the instruction at a given offset — the offset the
DisTable recorded — is a branch, and if so compute its target.

For the fixed-length ISA every 4-byte-aligned address in a block is an
instruction boundary, so a block can be decoded in isolation.  For the
variable-length ISA boundaries are unknown; the pre-decoder then requires a
*branch footprint* (the byte offsets of up to four branches in the block,
Section V-D) and only decodes at those offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .encoding import EncodingError, TextSegment
from .instructions import (
    CACHE_BLOCK_SIZE,
    FIXED_INSTRUCTION_SIZE,
    BranchKind,
    Instruction,
    block_base,
)


@dataclass
class PredecodeResult:
    """Everything a pre-decode pass over one cache block discovered."""

    block_addr: int
    branches: List[Instruction] = field(default_factory=list)
    #: Branch found at the offset the caller asked about (DisTable replay),
    #: or None when the offset held a non-branch / undecodable bytes.
    offset_branch: Optional[Instruction] = None


class PredecodeCaches:
    """Shared decode memos for one immutable text segment.

    A :class:`~repro.cfg.layout.Program` owns one instance and hands it to
    every Predecoder it builds, so repeated simulations of the same program
    (e.g. a benchmark matrix) decode each block's bytes once instead of
    once per simulator.  Instruction objects are frozen dataclasses and the
    segment never changes, so sharing is safe; per-pass accounting
    (``blocks_decoded``) stays on the individual Predecoder.
    """

    __slots__ = ("fixed", "fixed_info", "vl", "prewarmed")

    def __init__(self) -> None:
        #: block base -> list of branch Instructions (fixed-length ISA)
        self.fixed: dict = {}
        #: block base -> (branches tuple, offset -> branch map)
        self.fixed_info: dict = {}
        #: pc -> Instruction | None (variable-length ISA)
        self.vl: dict = {}
        #: True once :meth:`Predecoder.prewarm_fixed` has decoded the
        #: whole segment into these memos.
        self.prewarmed = False


class Predecoder:
    """Decodes cache blocks to find branch instructions.

    ``latency`` is the modelled pipeline cost (cycles) of one pre-decode
    pass; the frontend charges it on the prefetch path, never on the demand
    path.  The paper notes that fixed-length blocks pre-decode in parallel
    while VL-ISA blocks proceed instruction by instruction, hence the
    higher default VL latency.
    """

    def __init__(self, segment: TextSegment, latency: int = 1,
                 vl_latency: int = 4,
                 caches: Optional[PredecodeCaches] = None):
        self.segment = segment
        self.latency = vl_latency if segment.variable_length else latency
        self.blocks_decoded = 0
        # Simulation-speed memo: the text segment is immutable, so a
        # block always decodes to the same result.  Hardware re-decodes
        # every pass (``blocks_decoded`` still counts the passes).
        # ``caches`` lets a Program share the memos across its predecoders.
        if caches is None:
            caches = PredecodeCaches()
        self._caches = caches
        self._fixed_cache = caches.fixed
        self._vl_cache = caches.vl
        # (branches tuple, offset -> branch map) per block, for the
        # allocation-free fixed-ISA path (fixed_block_info).
        self._fixed_info = caches.fixed_info

    def _block_bounds(self, addr: int) -> range:
        base = block_base(addr)
        lo = max(base, self.segment.base)
        hi = min(base + CACHE_BLOCK_SIZE, self.segment.end)
        return range(lo, hi)

    def decode_block(self, block_addr: int,
                     footprint_offsets: Optional[Sequence[int]] = None,
                     dis_offset: Optional[int] = None) -> PredecodeResult:
        """Pre-decode one cache block.

        ``footprint_offsets`` — byte offsets of branches within the block;
        required for VL-ISA blocks, ignored for fixed-length ones.

        ``dis_offset`` — the DisTable offset to check: an *instruction*
        offset for the fixed-length ISA (4-bit, 16 slots) or a *byte*
        offset for the VL-ISA (6-bit).
        """
        self.blocks_decoded += 1
        bounds = self._block_bounds(block_addr)
        result = PredecodeResult(block_addr=block_base(block_addr))
        if not len(bounds):
            return result

        if self.segment.variable_length:
            self._decode_variable(result, bounds, footprint_offsets, dis_offset)
        else:
            self._decode_fixed(result, dis_offset)
        return result

    def _decode_fixed(self, result: PredecodeResult,
                      dis_offset: Optional[int]) -> None:
        base = result.block_addr
        cached = self._fixed_branches(base)
        result.branches = list(cached)
        if dis_offset is not None:
            for instr in cached:
                if (instr.pc - base) // FIXED_INSTRUCTION_SIZE == dis_offset:
                    result.offset_branch = instr
                    break

    def _fixed_branches(self, base: int) -> List[Instruction]:
        """The branches of the fixed-length block at ``base`` (memoised).

        Only a slot whose opcode byte is nonzero can hold a branch or
        fail to decode: a zero opcode is ``NOT_BRANCH``.  So the opcode
        bytes are scanned and only the nonzero slots decoded, which
        yields the branches a decode of every slot would.
        """
        cached = self._fixed_cache.get(base)
        if cached is None:
            cached = []
            bounds = self._block_bounds(base)
            opcodes = self.segment.read(bounds.start, len(bounds))[
                ::FIXED_INSTRUCTION_SIZE]
            for slot, opcode in enumerate(opcodes):
                if not opcode:
                    continue
                try:
                    instr = self.segment.decode_at(
                        bounds.start + slot * FIXED_INSTRUCTION_SIZE)
                except EncodingError:
                    continue
                if instr.is_branch:
                    cached.append(instr)
            self._fixed_cache[base] = cached
        return cached

    def _fixed_info_of(self, base: int):
        """``(branches, offset_map)`` of the block at ``base`` (memoised)."""
        info = self._fixed_info.get(base)
        if info is None:
            cached = self._fixed_branches(base)
            offset_map: dict = {}
            for instr in cached:
                offset_map.setdefault(
                    (instr.pc - base) // FIXED_INSTRUCTION_SIZE, instr)
            info = (tuple(cached), offset_map)
            self._fixed_info[base] = info
        return info

    def fixed_block_info(self, block_addr: int):
        """Pre-decode a fixed-length block without result-object churn.

        Returns ``(branches, offset_map)``: the block's branch
        instructions as a tuple and a map from 4-bit instruction offset
        to the first branch at that offset — the two pieces
        :meth:`decode_block` would package into a fresh
        :class:`PredecodeResult` (with a copied list) on every pass.
        Counts one pre-decode pass like :meth:`decode_block`; callers
        must not mutate the returned structures.
        """
        if self.segment.variable_length:
            raise EncodingError(
                "fixed_block_info is only defined for fixed-length ISAs")
        self.blocks_decoded += 1
        return self._fixed_info_of(block_base(block_addr))

    def prewarm_fixed(self) -> None:
        """Decode every fixed-ISA block of the segment into the memos.

        Pure cache warming done at construction/attach time: it fills
        the shared ``fixed_info``/``fixed`` maps without touching
        ``blocks_decoded`` (per-pass accounting is a property of the
        passes, not of the memo state), so simulated behaviour and
        counters are unchanged — only the cold first-decode cost moves
        off the simulated hot path.  No-op for variable-length
        segments and when the shared caches were already prewarmed.
        """
        if self.segment.variable_length or self._caches.prewarmed:
            return
        self._caches.prewarmed = True
        seg = self.segment
        for base in range(block_base(seg.base), seg.end, CACHE_BLOCK_SIZE):
            self._fixed_info_of(base)

    def _decode_one_vl(self, pc: int) -> Optional[Instruction]:
        if pc in self._vl_cache:
            return self._vl_cache[pc]
        try:
            instr = self.segment.decode_at(pc)
        except EncodingError:
            instr = None
        self._vl_cache[pc] = instr
        return instr

    def _decode_variable(self, result: PredecodeResult, bounds: range,
                         footprint_offsets: Optional[Sequence[int]],
                         dis_offset: Optional[int]) -> None:
        base = result.block_addr
        offsets = set(footprint_offsets or ())
        if dis_offset is not None:
            offsets.add(dis_offset)
        for off in sorted(offsets):
            pc = base + off
            if not (bounds.start <= pc < bounds.stop):
                continue
            instr = self._decode_one_vl(pc)
            if instr is None or not instr.is_branch:
                continue
            if footprint_offsets is None or off in footprint_offsets:
                result.branches.append(instr)
            if dis_offset is not None and off == dis_offset:
                result.offset_branch = instr

    def branch_offsets(self, block_addr: int) -> List[int]:
        """Byte offsets of all branch instructions in a fixed-length block.

        Used to *construct* branch footprints; only defined for the
        fixed-length ISA (the retire stream provides offsets for VL-ISA).
        """
        if self.segment.variable_length:
            raise EncodingError(
                "branch offsets of a VL block cannot be discovered by "
                "scanning; build footprints from the retire stream instead"
            )
        base = block_base(block_addr)
        return [instr.pc - base
                for instr in self.decode_block(block_addr).branches]


def target_of(instr: Instruction, btb_lookup=None) -> Optional[int]:
    """Resolve a branch target the way the Dis prefetcher does (Section V-B).

    Targets encoded in the instruction are returned directly; otherwise the
    BTB is consulted via ``btb_lookup(pc) -> Optional[int]``; if that also
    fails, ``None`` (no prefetch is sent).
    """
    if not instr.is_branch:
        return None
    if instr.kind.target_encoded:
        return instr.target
    if btb_lookup is not None:
        return btb_lookup(instr.pc)
    return None
