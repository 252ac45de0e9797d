"""Instruction model for the synthetic ISAs.

The paper evaluates on the UltraSPARC III (fixed-length) ISA and discusses an
extension to variable-length ISAs.  Neither ISA is available here, so this
module defines a small synthetic instruction model that carries exactly the
information the prefetchers need: where instructions start, how long they
are, which ones are branches, what kind of branch they are, and whether the
target is encoded in the instruction itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class BranchKind(enum.IntEnum):
    """Classification of instructions as seen by the pre-decoder and BTBs.

    ``COND``, ``JUMP`` and ``CALL`` encode a PC-relative target in the
    instruction, so a pre-decoder can extract the target without consulting
    the BTB.  ``RETURN`` takes its target from the return address stack and
    ``INDIRECT`` from a register, so neither has an encoded target.
    """

    NOT_BRANCH = 0
    COND = 1
    JUMP = 2
    CALL = 3
    RETURN = 4
    INDIRECT = 5

    # The predicates below compare plain ints (NOT_BRANCH is 0; COND,
    # JUMP and CALL are 1-3): every instruction built or decoded asks
    # them, and an enum identity or tuple-membership test costs several
    # times as much.

    @property
    def is_branch(self) -> bool:
        return self != 0

    @property
    def target_encoded(self) -> bool:
        """True when the branch target can be computed from the bytes alone."""
        return 0 < self < 4

    @property
    def is_unconditional(self) -> bool:
        return self in (BranchKind.JUMP, BranchKind.CALL,
                        BranchKind.RETURN, BranchKind.INDIRECT)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``target`` is the absolute target address for branches whose target is
    encoded in the instruction (conditional branches, direct jumps and
    calls); ``None`` for non-branches, returns and indirect branches.
    """

    pc: int
    size: int
    kind: BranchKind = BranchKind.NOT_BRANCH
    target: Optional[int] = None

    @property
    def is_branch(self) -> bool:
        return self.kind != 0

    @property
    def end(self) -> int:
        """Address of the first byte after this instruction."""
        return self.pc + self.size

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"instruction size must be positive, got {self.size}")
        kind = self.kind
        if 0 < kind < 4 and self.target is None:    # COND, JUMP, CALL
            raise ValueError(f"{kind.name} branch at {self.pc:#x} needs a target")
        if kind == 0 and self.target is not None:
            raise ValueError("non-branch instructions cannot carry a target")


FIXED_INSTRUCTION_SIZE = 4
"""Instruction size of the synthetic fixed-length ISA (bytes)."""

CACHE_BLOCK_SIZE = 64
"""Cache block size used throughout the reproduction (bytes)."""

MIN_VARIABLE_SIZE = 2
MAX_VARIABLE_SIZE = 10
"""Instruction size bounds of the synthetic variable-length ISA (bytes)."""


def block_of(addr: int, block_size: int = CACHE_BLOCK_SIZE) -> int:
    """Cache-block index of a byte address."""
    return addr // block_size


def block_base(addr: int, block_size: int = CACHE_BLOCK_SIZE) -> int:
    """Byte address of the start of the cache block containing ``addr``."""
    return addr - (addr % block_size)


def block_offset(addr: int, block_size: int = CACHE_BLOCK_SIZE) -> int:
    """Byte offset of ``addr`` within its cache block."""
    return addr % block_size
