"""Byte-level codecs for the synthetic fixed- and variable-length ISAs.

The codecs produce and parse real byte streams so that the pre-decoder
(:mod:`repro.isa.predecoder`) genuinely extracts branches from memory
contents rather than from an oracle.

Fixed-length encoding (4 bytes per instruction)
    byte 0        opcode (one of the ``BranchKind`` values)
    bytes 1..3    signed 24-bit byte displacement (``target - pc``), only
                  meaningful for COND / JUMP / CALL; zero otherwise

Variable-length encoding (2 to 10 bytes per instruction)
    byte 0        high nibble = opcode, low nibble = total instruction length
    bytes 1..4    signed 32-bit little-endian byte displacement for
                  COND / JUMP / CALL (these kinds are always >= 6 bytes)
    rest          immediate padding bytes (0x90)

Parsing a variable-length stream requires knowing where an instruction
starts; starting mid-instruction misparses, which is exactly the VL-ISA
challenge the paper's branch footprints (Section V-D) solve.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .instructions import (
    FIXED_INSTRUCTION_SIZE,
    MAX_VARIABLE_SIZE,
    MIN_VARIABLE_SIZE,
    BranchKind,
    Instruction,
)

_PAD_BYTE = 0x90
_DISP24_MIN = -(1 << 23)
_DISP24_MAX = (1 << 23) - 1
_DISP32_MIN = -(1 << 31)
_DISP32_MAX = (1 << 31) - 1

#: Minimum size of a VL branch with an encoded target: opcode + 4 disp bytes
#: rounded up to the 6-byte slot the generator uses.
VL_BRANCH_MIN_SIZE = 6


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or decoded."""


def encode_fixed(instr: Instruction) -> bytes:
    """Encode one instruction of the fixed-length ISA into 4 bytes."""
    if instr.size != FIXED_INSTRUCTION_SIZE:
        raise EncodingError(
            f"fixed-length ISA requires {FIXED_INSTRUCTION_SIZE}-byte "
            f"instructions, got {instr.size}"
        )
    kind = instr.kind
    disp = 0
    if kind.target_encoded:
        disp = instr.target - instr.pc
        if not _DISP24_MIN <= disp <= _DISP24_MAX:
            raise EncodingError(f"displacement {disp} out of 24-bit range")
    return bytes((kind & 0xFF,)) + (disp & 0xFFFFFF).to_bytes(3, "little")


def decode_fixed(data: bytes, pc: int) -> Instruction:
    """Decode one fixed-length instruction from 4 bytes starting at ``pc``."""
    if len(data) < FIXED_INSTRUCTION_SIZE:
        raise EncodingError("truncated fixed-length instruction")
    opcode = data[0]
    try:
        kind = BranchKind(opcode)
    except ValueError as exc:
        raise EncodingError(f"unknown opcode {opcode:#x} at {pc:#x}") from exc
    target = None
    if kind.target_encoded:
        raw = int.from_bytes(data[1:4], "little")
        if raw & 0x800000:
            raw -= 1 << 24
        target = pc + raw
    return Instruction(pc=pc, size=FIXED_INSTRUCTION_SIZE, kind=kind, target=target)


def encode_variable(instr: Instruction) -> bytes:
    """Encode one instruction of the variable-length ISA."""
    if not MIN_VARIABLE_SIZE <= instr.size <= MAX_VARIABLE_SIZE:
        raise EncodingError(
            f"variable-length instruction size {instr.size} outside "
            f"[{MIN_VARIABLE_SIZE}, {MAX_VARIABLE_SIZE}]"
        )
    kind = instr.kind
    if kind.target_encoded and instr.size < VL_BRANCH_MIN_SIZE:
        raise EncodingError(
            f"{kind.name} needs at least {VL_BRANCH_MIN_SIZE} bytes "
            f"to encode a displacement, got {instr.size}"
        )
    out = bytearray(instr.size)
    out[0] = ((kind & 0xF) << 4) | (instr.size & 0xF)
    if kind.target_encoded:
        disp = instr.target - instr.pc
        if not _DISP32_MIN <= disp <= _DISP32_MAX:
            raise EncodingError(f"displacement {disp} out of 32-bit range")
        out[1:5] = (disp & 0xFFFFFFFF).to_bytes(4, "little")
        for i in range(5, instr.size):
            out[i] = _PAD_BYTE
    else:
        for i in range(1, instr.size):
            out[i] = _PAD_BYTE
    return bytes(out)


def decode_variable(data: bytes, pc: int) -> Instruction:
    """Decode one variable-length instruction starting at ``pc``."""
    if not data:
        raise EncodingError("empty variable-length instruction")
    opcode = data[0] >> 4
    size = data[0] & 0xF
    if not MIN_VARIABLE_SIZE <= size <= MAX_VARIABLE_SIZE:
        raise EncodingError(f"invalid VL instruction length {size} at {pc:#x}")
    if len(data) < size:
        raise EncodingError("truncated variable-length instruction")
    try:
        kind = BranchKind(opcode)
    except ValueError as exc:
        raise EncodingError(f"unknown opcode {opcode:#x} at {pc:#x}") from exc
    target = None
    if kind.target_encoded:
        raw = int.from_bytes(data[1:5], "little")
        if raw & 0x80000000:
            raw -= 1 << 32
        target = pc + raw
    return Instruction(pc=pc, size=size, kind=kind, target=target)


class TextSegment:
    """A byte-addressed program image plus the ISA used to encode it.

    The segment owns the authoritative bytes; the pre-decoder reads them
    back.  ``variable_length`` selects between the two codecs.
    """

    def __init__(self, base: int, size: int, variable_length: bool = False):
        if base < 0 or size <= 0:
            raise ValueError("text segment needs a non-negative base and positive size")
        self.base = base
        self.size = size
        self.variable_length = variable_length
        self._bytes = bytearray(size)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    def write_instruction(self, instr: Instruction) -> None:
        """Encode ``instr`` and store its bytes at ``instr.pc``."""
        if self.variable_length:
            encoded = encode_variable(instr)
        else:
            encoded = encode_fixed(instr)
        if not self.contains(instr.pc, len(encoded)):
            raise EncodingError(
                f"instruction at {instr.pc:#x} (+{len(encoded)}) outside segment "
                f"[{self.base:#x}, {self.end:#x})"
            )
        off = instr.pc - self.base
        self._bytes[off:off + len(encoded)] = encoded

    def read(self, addr: int, length: int) -> bytes:
        """Read raw bytes; reads past the segment end are truncated."""
        if addr < self.base:
            raise EncodingError(f"read at {addr:#x} below segment base")
        off = addr - self.base
        return bytes(self._bytes[off:off + length])

    def decode_at(self, pc: int) -> Instruction:
        """Decode the instruction starting exactly at ``pc``."""
        window = self.read(pc, MAX_VARIABLE_SIZE if self.variable_length
                           else FIXED_INSTRUCTION_SIZE)
        if self.variable_length:
            return decode_variable(window, pc)
        return decode_fixed(window, pc)

    def decode_range(self, start: int, end: int) -> List[Instruction]:
        """Decode consecutive instructions in ``[start, end)``.

        ``start`` must be a true instruction boundary.  For the fixed-length
        ISA any 4-byte-aligned address is a boundary; for the VL-ISA the
        caller must know the boundary (that is the point of branch
        footprints).
        """
        out: List[Instruction] = []
        pc = start
        while pc < end and self.contains(pc):
            instr = self.decode_at(pc)
            out.append(instr)
            pc = instr.end
        return out

    def instruction_count(self, start: int, end: int) -> int:
        return len(self.decode_range(start, end))


def displacement_fits_fixed(pc: int, target: int) -> bool:
    """Whether ``target`` is PC-relative encodable in the fixed-length ISA."""
    return _DISP24_MIN <= (target - pc) <= _DISP24_MAX


def split_sizes_variable(total: int, n_instr: int, n_branches: int,
                         rng) -> Optional[Tuple[int, ...]]:
    """Pick VL instruction sizes summing to ``total``.

    The first ``n_branches`` slots are branch-capable (>= 6 bytes).  Returns
    ``None`` when no split exists.  ``rng`` is a ``numpy.random.Generator``.
    """
    if n_instr <= 0:
        return None
    lo = n_branches * VL_BRANCH_MIN_SIZE + (n_instr - n_branches) * MIN_VARIABLE_SIZE
    hi = n_instr * MAX_VARIABLE_SIZE
    if not lo <= total <= hi:
        return None
    sizes = [VL_BRANCH_MIN_SIZE] * n_branches + \
            [MIN_VARIABLE_SIZE] * (n_instr - n_branches)
    slack = total - sum(sizes)
    while slack > 0:
        i = int(rng.integers(0, n_instr))
        room = MAX_VARIABLE_SIZE - sizes[i]
        if room == 0:
            continue
        add = min(room, slack)
        sizes[i] += add
        slack -= add
    return tuple(sizes)
