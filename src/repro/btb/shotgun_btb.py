"""Shotgun's split BTB organisation (paper Sections II-B and III).

Shotgun divides BTB storage into three structures:

* **U-BTB** — unconditional branches (jumps, calls, indirect calls).  Each
  entry additionally stores two spatial *footprints*: the blocks touched
  around the branch target (*call footprint*) and around the return site
  (*return footprint*).  Footprints are learned from the retired
  instruction stream, so BTB prefilling can recreate the entry's target but
  never its footprints — the root cause of the paper's Fig. 1 critique.
* **C-BTB** — a small table for conditional branches, aggressively
  prefilled by pre-decoding prefetched blocks.
* **RIB** — return instruction buffer; returns take targets from the RAS.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from ..isa import CACHE_BLOCK_SIZE, BranchKind


@dataclass
class RegionFootprint:
    """A bit vector of useful blocks around an anchor block.

    ``bits`` bit *i* set means block ``anchor_block + i - blocks_before``
    was touched while the region was live.
    """

    anchor_block: int
    bits: int = 0
    blocks_before: int = 2
    blocks_after: int = 5

    @property
    def span(self) -> int:
        return self.blocks_before + 1 + self.blocks_after

    def record(self, block: int) -> bool:
        rel = block - self.anchor_block + self.blocks_before
        if 0 <= rel <= self.blocks_before + self.blocks_after:
            self.bits |= 1 << rel
            return True
        return False

    def blocks(self) -> List[int]:
        return [self.anchor_block - self.blocks_before + i
                for i in range(self.span) if self.bits >> i & 1]

    def __bool__(self) -> bool:
        return self.bits != 0


@dataclass
class UBtbEntry:
    pc: int
    target: Optional[int]
    kind: BranchKind
    call_footprint: Optional[RegionFootprint] = None
    return_footprint: Optional[RegionFootprint] = None
    #: True when the entry was created by BTB prefilling (pre-decode):
    #: the target is known but footprints cannot be recreated.
    prefilled: bool = False


@dataclass
class CBtbEntry:
    pc: int
    target: int


class _AssocTable:
    """Small generic set-associative LRU table keyed by PC."""

    def __init__(self, n_entries: int, assoc: int, name: str):
        if n_entries <= 0 or assoc <= 0 or n_entries % assoc:
            raise ValueError(f"{name}: entries must be a positive multiple of assoc")
        self.name = name
        self.n_entries = n_entries
        self.assoc = assoc
        self.n_sets = n_entries // assoc
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int):
        cset = self._sets[(pc >> 2) % self.n_sets]
        entry = cset.get(pc)
        if entry is None:
            self.misses += 1
            return None
        cset.move_to_end(pc)
        self.hits += 1
        return entry

    def peek(self, pc: int):
        return self._sets[(pc >> 2) % self.n_sets].get(pc)

    def insert(self, pc: int, entry) -> None:
        cset = self._sets[(pc >> 2) % self.n_sets]
        if pc in cset:
            cset[pc] = entry
            cset.move_to_end(pc)
            return
        if len(cset) >= self.assoc:
            cset.popitem(last=False)
        cset[pc] = entry

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class ShotgunBtb:
    """The three-way split BTB plus retired-stream footprint learning."""

    def __init__(self, u_entries: int = 1536, c_entries: int = 128,
                 rib_entries: int = 512, u_assoc: int = 4,
                 c_assoc: int = 4, rib_assoc: int = 4,
                 block_size: int = CACHE_BLOCK_SIZE):
        self.u_btb = _AssocTable(u_entries, u_assoc, "u-btb")
        self.c_btb = _AssocTable(c_entries, c_assoc, "c-btb")
        self.rib = _AssocTable(rib_entries, rib_assoc, "rib")
        self.block_size = block_size
        #: The footprints being collected from the retire stream, both
        #: owned by the last retired unconditional branch: its call
        #: footprint (around the target) and, for a call, its return
        #: footprint (around the return site).
        self._owner_pc: Optional[int] = None
        self._call_region: Optional[RegionFootprint] = None
        self._return_region: Optional[RegionFootprint] = None
        # Footprint accounting for Fig. 1.
        self.footprint_accesses = 0
        self.footprint_misses = 0

    # -- lookups ---------------------------------------------------------

    def lookup_unconditional(self, pc: int) -> Optional[UBtbEntry]:
        entry = self.u_btb.lookup(pc)
        if entry is not None:
            self.footprint_accesses += 1
            if not entry.call_footprint and not entry.return_footprint:
                self.footprint_misses += 1
        else:
            # A missing entry necessarily misses its footprints too.
            self.footprint_accesses += 1
            self.footprint_misses += 1
        return entry

    def lookup_conditional(self, pc: int) -> Optional[CBtbEntry]:
        return self.c_btb.lookup(pc)

    def lookup_return(self, pc: int) -> bool:
        return self.rib.lookup(pc) is not None

    @property
    def footprint_miss_ratio(self) -> float:
        if not self.footprint_accesses:
            return 0.0
        return self.footprint_misses / self.footprint_accesses

    # -- fills -------------------------------------------------------------

    def insert_branch(self, pc: int, kind: BranchKind,
                      target: Optional[int], prefilled: bool = False) -> None:
        """Route a branch to its table.  ``prefilled`` marks pre-decode
        fills, which can never carry footprints."""
        if kind is BranchKind.COND:
            if target is not None:
                self.c_btb.insert(pc, CBtbEntry(pc, target))
            return
        if kind is BranchKind.RETURN:
            self.rib.insert(pc, True)
            return
        existing = self.u_btb.peek(pc)
        if existing is not None:
            existing.target = target if target is not None else existing.target
            return
        self.u_btb.insert(pc, UBtbEntry(pc, target, kind, prefilled=prefilled))

    # -- footprint learning from the retire stream -------------------------

    def retire_unconditional(self, pc: int, target: Optional[int],
                             kind: BranchKind,
                             return_site: Optional[int] = None) -> None:
        """An unconditional branch retired: close open regions, open new ones.

        Closing installs each non-empty open footprint into its owner's
        U-BTB entry, if the entry is still there.  The new *call
        footprint* region anchors at the target block; for calls, a
        *return footprint* region anchors at the return-site block.
        """
        self.insert_branch(pc, kind, target)
        if self._owner_pc is not None:
            owner = self.u_btb.peek(self._owner_pc)
            if owner is not None:
                if self._call_region:
                    owner.call_footprint = self._call_region
                if self._return_region:
                    owner.return_footprint = self._return_region
        self._owner_pc = self._call_region = self._return_region = None
        entry = self.u_btb.peek(pc)
        if entry is None:
            return
        entry.prefilled = False
        self._owner_pc = pc
        if target is not None:
            self._call_region = RegionFootprint(
                anchor_block=target // self.block_size)
        if kind is BranchKind.CALL and return_site is not None:
            self._return_region = RegionFootprint(
                anchor_block=return_site // self.block_size)

    def retire_block_access(self, block_addr: int) -> None:
        """Feed a retired demand block into the open footprint regions."""
        block = block_addr // self.block_size
        if self._call_region is not None:
            self._call_region.record(block)
        if self._return_region is not None:
            self._return_region.record(block)

    # -- storage ------------------------------------------------------------

    #: U-BTB entry: tag+target (~72b) + two footprints (2 x 8b) + kind.
    U_ENTRY_BITS = 72 + 16 + 3
    C_ENTRY_BITS = 40 + 32
    RIB_ENTRY_BITS = 40

    def storage_bytes(self) -> int:
        return (self.u_btb.n_entries * self.U_ENTRY_BITS +
                self.c_btb.n_entries * self.C_ENTRY_BITS +
                self.rib.n_entries * self.RIB_ENTRY_BITS) // 8
