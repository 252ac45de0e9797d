"""Boomerang: metadata-free BTB-directed instruction and BTB prefetching.

Boomerang (Kumar et al., HPCA'17; paper Section II-B) runs the branch
prediction unit ahead of fetch using a basic-block-oriented BTB, prefetches
the discovered instruction blocks, and on a BTB miss fetches/prefetches the
enclosing block and *pre-decodes* it to recreate the missing entry
(reactive BTB prefill).  Its weakness — every BTB miss stalls the entire
runahead — is what Shotgun and the paper's proposal attack.
"""

from __future__ import annotations

from ..isa import BranchKind, block_base
from .runahead import RunaheadPrefetcher


class BoomerangPrefetcher(RunaheadPrefetcher):
    """BTB-directed runahead with reactive pre-decode BTB prefill."""

    name = "boomerang"

    def __init__(self, window: int = 32, mispredict_rate: float = 0.04,
                 predecode_latency: int = 3):
        super().__init__(window, mispredict_rate, predecode_latency)
        self.predecode_fills = 0

    def process_runahead(self, index: int, record) -> bool:
        sim = self.sim
        sim.issue_prefetch(record.line)

        if not record.has_branch:
            return True

        if record.branch_kind is BranchKind.RETURN:
            # Returns resolve through the RAS; no BTB needed.
            return True

        entry = sim.btb.peek(record.branch_pc)
        if entry is None:
            # BTB miss: the runahead stops, the enclosing block is
            # fetched and pre-decoded, and its branches fill the BTB.
            self.block_on_fill(record.branch_pc, sim.cycle)
            self._prefill_from_block(record)
            return False

        if record.branch_kind is BranchKind.COND \
                and self.sample_mispredict(record, index):
            self.resync(index)
            return False
        if record.branch_kind is BranchKind.INDIRECT \
                and entry.target != record.branch_target:
            self.resync(index)
            return False
        return True

    def _prefill_from_block(self, record) -> None:
        """Pre-decode the branch's block and insert every branch whose
        target is encoded in the instruction (calls/jumps/conditionals)."""
        sim = self.sim
        result = sim.predecoder().decode_block(block_base(record.branch_pc))
        for instr in result.branches:
            if instr.target is not None:
                sim.btb.insert(instr.pc, instr.target, instr.kind)
                self.predecode_fills += 1
        # Indirect branches have no encoded target; the demand stream
        # trains them (the engine inserts on the redirect).

    def storage_bytes(self) -> int:
        # Boomerang is metadata-free beyond its basic-block BTB and FTQ.
        return self.window * 8
