"""Shotgun: BTB-directed prefetching over a split U-BTB/C-BTB/RIB.

Shotgun (Kumar et al., ASPLOS'18; paper Sections II-B and III) dedicates
most BTB storage to unconditional branches (U-BTB), each entry carrying
spatial *footprints* of the blocks used around the branch target (call
footprint) and around the return site (return footprint).  On a U-BTB hit
the footprint blocks are bulk-prefetched and pre-decoded to proactively
prefill the small C-BTB through a 32-entry BTB prefetch buffer.  On a
U-BTB or C-BTB miss the runahead falls back to reactive prefill: fetch the
block, pre-decode, fill, continue — one block at a time.

Footprints are learned from the *retired* instruction stream, so entries
recreated by pre-decode prefilling have no footprints.  That is the
paper's Fig. 1 critique: on footprint misses Shotgun degenerates to the
slow reactive path, the FTQ drains, and the core stalls (Table I).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..btb import BtbEntry, BtbPrefetchBuffer, ShotgunBtb, UBtbEntry
from ..btb.prefetch_buffer import BufferedBranch
from ..frontend.l1pb import L1PrefetchBuffer
from ..isa import CACHE_BLOCK_SIZE, BranchKind
from .runahead import RunaheadPrefetcher

_UNCONDITIONAL = (BranchKind.JUMP, BranchKind.CALL, BranchKind.INDIRECT)


class ShotgunBtbAdapter:
    """Presents the three-way split BTB to the engine's demand path.

    Hardware searches the three structures simultaneously on every lookup
    (paper Section V-F); the adapter mirrors that and routes inserts by
    branch kind.  ``lookup`` is bound to the three tables once, at
    construction.
    """

    def __init__(self, shotgun: ShotgunBtb):
        self.shotgun = shotgun
        self.hits = 0
        self.misses = 0
        self.lookup = self._bind_lookup()

    def _bind_lookup(self):
        adapter = self
        c_lookup = self.shotgun.c_btb.lookup
        u_lookup = self.shotgun.u_btb.lookup
        rib_lookup = self.shotgun.rib.lookup

        def lookup(pc: int):
            entry = c_lookup(pc)
            if entry is None:
                entry = u_lookup(pc)
                if entry is None or entry.target is None:
                    entry = (BtbEntry(pc, -1, BranchKind.RETURN)
                             if rib_lookup(pc) else None)
            if entry is None:
                adapter.misses += 1
            else:
                adapter.hits += 1
            return entry

        return lookup

    def peek(self, pc: int):
        s = self.shotgun
        entry = s.c_btb.peek(pc)
        if entry is not None:
            return entry
        u = s.u_btb.peek(pc)
        if u is not None and u.target is not None:
            return u
        if s.rib.peek(pc):
            return BtbEntry(pc, -1, BranchKind.RETURN)
        return None

    def insert(self, pc: int, target: int, kind: BranchKind) -> None:
        self.shotgun.insert_branch(pc, kind, target)

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class ShotgunPrefetcher(RunaheadPrefetcher):
    """The full Shotgun scheme.

    Its hooks (the runahead step, footprint prefetch, reactive and
    proactive prefill, retire-stream learning) are closures bound to the
    simulator's structures at attach, in :meth:`_bind_hooks`.
    """

    name = "shotgun"

    def __init__(self, u_entries: int = 1536, c_entries: int = 128,
                 rib_entries: int = 512, window: int = 32,
                 mispredict_rate: float = 0.04,
                 predecode_latency: int = 3,
                 l1_buffer_entries: int = 64,
                 btb_buffer_entries: int = 32):
        super().__init__(window, mispredict_rate, predecode_latency)
        self.shotgun = ShotgunBtb(u_entries=u_entries, c_entries=c_entries,
                                  rib_entries=rib_entries)
        self.l1_buffer_entries = l1_buffer_entries
        self.btb_buffer_entries = btb_buffer_entries
        self._call_stack: List[UBtbEntry] = []
        #: Footprint blocks awaiting arrival before they can be
        #: pre-decoded for proactive C-BTB prefill.
        self._pending_prefill: set = set()
        self.footprint_prefetches = 0
        self.proactive_prefills = 0

    def attach(self, sim) -> None:
        sim.btb = ShotgunBtbAdapter(self.shotgun)
        sim.l1_prefetch_buffer = L1PrefetchBuffer(self.l1_buffer_entries)
        sim.btb_prefetch_buffer = BtbPrefetchBuffer(self.btb_buffer_entries)
        super().attach(sim)

    def _bind_hooks(self):
        """Bind every hook to the simulator's structures; install
        ``on_fill`` and ``on_branch_retire`` and return the runahead
        ``(step, observe)`` pair."""
        pf = self
        sim = self.sim
        shotgun = self.shotgun
        issue = sim.issue_prefetch
        block_on_fill = self.block_on_fill
        sample_mispredict = self.sample_mispredict
        resync = self.resync
        insert_branch = shotgun.insert_branch
        lookup_unconditional = shotgun.lookup_unconditional
        retire_unconditional = shotgun.retire_unconditional
        c_peek = shotgun.c_btb.peek
        bpb = sim.btb_prefetch_buffer
        bpb_lookup = bpb.lookup
        bpb_fill = bpb.fill_prepared
        bpb_bs = bpb.block_size
        bpb_cap = bpb.BRANCHES_PER_ENTRY
        l1i_contains = sim.l1i.contains
        pb_entries = sim.l1_prefetch_buffer._entries
        call_stack = self._call_stack
        pending = self._pending_prefill
        block_size = CACHE_BLOCK_SIZE
        not_branch_k, cond_k = BranchKind.NOT_BRANCH, BranchKind.COND
        return_k, call_k = BranchKind.RETURN, BranchKind.CALL
        indirect_k = BranchKind.INDIRECT
        # The program's ISA picks the pre-decode leg: a fixed-length
        # block is read from the predecoder's memo, a variable-length one
        # decodes each pass.  The predecoder is fetched on first use, so
        # a simulator without a Program attaches (and fails only if it
        # ever pre-decodes).
        program = sim.program
        fixed = program is None or not program.variable_length
        predecoder = None
        #: block address -> (BTB-buffer line, prepared buffer entry, the
        #: block's unconditional branches with an encoded target).  A
        #: block always decodes to the same branches and nothing mutates
        #: a BufferedBranch, so one prepared entry per block replaces the
        #: per-fill rebuild.
        prepared: Dict[int, Tuple[int, tuple, tuple]] = {}

        def prefill(block_addr: int, mark_prefilled: bool) -> None:
            """Pre-decode one block into the BTB prefetch buffer;
            ``mark_prefilled`` also recreates its encoded-target
            unconditional branches in the U-BTB, without footprints."""
            nonlocal predecoder
            if predecoder is None:
                predecoder = sim.predecoder()
            if fixed:
                branches = predecoder.fixed_block_info(block_addr)[0]
            else:
                branches = predecoder.decode_block(block_addr).branches
            if not branches:
                return
            prep = prepared.get(block_addr)
            if prep is None:
                prep = prepared[block_addr] = (
                    block_addr // bpb_bs,
                    tuple(BufferedBranch(b.pc, b.target, b.kind)
                          for b in branches[:bpb_cap]),
                    tuple(b for b in branches
                          if b.kind in _UNCONDITIONAL
                          and b.target is not None))
            line, entry, unconditional = prep
            bpb_fill(line, entry)
            pf.proactive_prefills += 1
            if mark_prefilled:
                for b in unconditional:
                    insert_branch(b.pc, b.kind, b.target, prefilled=True)

        def prefetch_footprint(footprint) -> None:
            for block in footprint.blocks():
                addr = block * block_size
                if issue(addr):
                    pf.footprint_prefetches += 1
                # Proactive prefill: pre-decode the footprint block into
                # the BTB prefetch buffer so C-BTB misses inside the
                # region are rescued without stalling.  A block can only
                # be pre-decoded once its bytes are actually here.
                if l1i_contains(addr) or addr in pb_entries:
                    prefill(addr, False)
                else:
                    pending.add(addr)
                    if len(pending) > 128:
                        pending.pop()

        def conditional(index: int, record) -> bool:
            pc = record.branch_pc
            if c_peek(pc) is None:
                buffered = bpb_lookup(pc)
                if buffered is not None and buffered.target is not None:
                    insert_branch(pc, cond_k, buffered.target)
                else:
                    # Reactive C-BTB prefill: the slow
                    # one-block-at-a-time path.
                    block_on_fill(pc, sim.cycle)
                    prefill(pc - pc % block_size, False)
                    return False
            if sample_mispredict(record, index):
                resync(index)
                return False
            return True

        def step(index: int, record) -> bool:
            issue(record.line)
            kind = record.branch_kind
            if kind is cond_k:
                return conditional(index, record)
            if kind is not_branch_k or not record.taken:
                return True
            if kind is return_k:
                if call_stack:
                    entry = call_stack.pop()
                    if entry.return_footprint:
                        prefetch_footprint(entry.return_footprint)
                return True
            pc = record.branch_pc
            entry = lookup_unconditional(pc)
            if entry is None:
                # U-BTB miss: reactive prefill.  Pre-decode recreates the
                # entry (sans footprints) for encoded-target branches only.
                block_on_fill(pc, sim.cycle)
                prefill(pc - pc % block_size, True)
                if kind is indirect_k:
                    # Even pre-decode cannot reveal an indirect target.
                    resync(index)
                return False
            if kind is indirect_k and entry.target != record.branch_target:
                # The U-BTB's stale indirect target sends the runahead
                # down the wrong path.
                resync(index)
                return False
            if entry.call_footprint:
                prefetch_footprint(entry.call_footprint)
            if kind is call_k or kind is indirect_k:
                call_stack.append(entry)
                if len(call_stack) > 64:
                    del call_stack[0]
            return True

        def on_fill(line_addr, was_prefetch, cycle) -> None:
            if line_addr in pending:
                pending.discard(line_addr)
                prefill(line_addr, False)

        def on_branch_retire(record, cycle) -> None:
            # Footprints are learned from the retired stream.
            kind = record.branch_kind
            if kind in _UNCONDITIONAL and record.taken:
                pc = record.branch_pc
                retire_unconditional(
                    pc, record.branch_target, kind,
                    pc + record.branch_size if kind is not BranchKind.JUMP
                    else None)
            elif kind is return_k:
                insert_branch(record.branch_pc, return_k, None)

        self.on_fill = on_fill
        self.on_branch_retire = on_branch_retire
        return step, shotgun.retire_block_access

    # ------------------------------------------------------------------

    @property
    def footprint_miss_ratio(self) -> float:
        return self.shotgun.footprint_miss_ratio

    def storage_bytes(self) -> int:
        """Extra storage over a conventional 2 K-entry BTB (paper: ~6 KB).

        The split BTB replaces the baseline BTB, so only the additional
        segments (footprints, basic-block metadata) plus the two prefetch
        buffers count.
        """
        conventional = 2048 * 50 // 8
        extra_btb = max(0, self.shotgun.storage_bytes() - conventional)
        buffers = 0
        if self.sim is not None:
            if self.sim.l1_prefetch_buffer is not None:
                buffers += self.sim.l1_prefetch_buffer.storage_bytes()
            if self.sim.btb_prefetch_buffer is not None:
                buffers += self.sim.btb_prefetch_buffer.storage_bytes()
        return extra_btb + buffers
