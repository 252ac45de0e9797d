"""Proactive SN4L+Dis(+BTB) prefetching (paper Sections V-B and V-C).

The proactive machinery chains sequential and discontinuity prefetches
multiple regions ahead of the fetch stream:

* every demand access that misses the **RLU** becomes a depth-0 trigger in
  **SeqQueue** and **DisQueue**;
* SN4L pops SeqQueue and emits the useful subsequent blocks (4-wide at
  depth 0, SN1L beyond — the paper trades width for accuracy deeper in the
  chain) as candidates into **RLUQueue**;
* Dis pops DisQueue, consults DisTable, pre-decodes the block (when it is
  available) to re-extract the discontinuity branch, and emits the branch
  target as a candidate;
* candidates popped from RLUQueue that miss the RLU are looked up in the
  cache, prefetched on a miss, and — depth permitting — pushed back into
  the queues as new triggers (sequential candidates trigger only Dis;
  discontinuity candidates trigger both SN4L and Dis).

Chains terminate at depth :attr:`max_depth` (four, per the paper).  The
same pre-decode pass that answers Dis also feeds the **BTB prefetch
buffer** (Section V-C): every block missing the RLU is pre-decoded and all
its branches buffered next to the BTB.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..btb import BtbPrefetchBuffer, BufferedBranch
from ..frontend.engine import HIT
from ..isa import CACHE_BLOCK_SIZE, BranchKind, block_base, block_offset
from ..memory import (
    CacheLine,
    DynamicallyVirtualizedLlc,
    InFlight,
    LastLevelCache,
)
from ..prefetchers.base import Prefetcher
from ..workloads import NO_ADDR
from .distable import DisTable
from .rlu import PrefetchQueue, RecentlyLookedUp
from .seqtable import SeqTable

#: Candidate provenance inside RLUQueue.
_SRC_SEQ = 0
_SRC_DIS = 1

#: When set, :meth:`ProactivePrefetcher.attach` shadows the per-access
#: hot path (``on_demand`` / ``on_fill`` / ``_drain``) with closures
#: compiled against the simulator.  The plain methods remain the
#: readable reference implementation; tests monkeypatch this flag off
#: to run on them — results are identical.
COMPILE_HOT_PATH = True

FIXED_OFFSET_BITS = 4     # instruction offset within a 16-instruction block
VARIABLE_OFFSET_BITS = 6  # byte offset within a 64-byte block


class ProactivePrefetcher(Prefetcher):
    """SN4L+Dis+BTB and its ablations.

    ``enable_seq`` / ``enable_dis`` / ``enable_btb`` select the composed
    scheme: all three give the paper's SN4L+Dis+BTB; ``enable_btb=False``
    gives SN4L+Dis; ``enable_seq=False, enable_btb=False`` gives the
    standalone Dis prefetcher of Fig. 13.

    ``variable_length=True`` switches DisTable to 6-bit byte offsets and
    sources pre-decode boundaries from branch footprints virtualized in
    the DV-LLC (Section V-D); the simulator must then be configured with
    ``dv_llc=True``.
    """

    def __init__(self, enable_seq: bool = True, enable_dis: bool = True,
                 enable_btb: bool = True,
                 seqtable: Optional[SeqTable] = None,
                 distable: Optional[DisTable] = None,
                 seqtable_entries: Optional[int] = 16 * 1024,
                 distable_entries: Optional[int] = 4096,
                 distable_tag_bits: Optional[int] = 4,
                 max_depth: int = 4,
                 chain_width: int = 1,
                 rlu_entries: int = 8,
                 queue_entries: int = 16,
                 drain_budget: int = 64,
                 predecode_delay: int = 3,
                 btb_buffer_entries: int = 32,
                 variable_length: bool = False):
        super().__init__()
        if max_depth < 1:
            raise ValueError("max chain depth must be >= 1")
        if not 1 <= chain_width <= 4:
            raise ValueError("chain width is 1 (SN1L, the paper's choice) "
                             "to 4 (SN4L everywhere)")
        self.enable_seq = enable_seq
        self.enable_dis = enable_dis
        self.enable_btb = enable_btb
        self.variable_length = variable_length
        self.max_depth = max_depth
        #: Sequential width used past the first discontinuity.  The paper
        #: uses SN1L there ("timeliness is obtained at the cost of lower
        #: prefetch accuracy", Section V-B); 4 keeps SN4L everywhere.
        self.chain_width = chain_width
        self.drain_budget = drain_budget
        self.predecode_delay = predecode_delay
        self.btb_buffer_entries = btb_buffer_entries

        offset_bits = VARIABLE_OFFSET_BITS if variable_length \
            else FIXED_OFFSET_BITS
        self.seqtable = seqtable if seqtable is not None else \
            SeqTable(seqtable_entries)
        self.distable = distable if distable is not None else \
            DisTable(distable_entries, tag_bits=distable_tag_bits,
                     offset_bits=offset_bits)
        self.rlu = RecentlyLookedUp(rlu_entries)
        self.seq_queue = PrefetchQueue(queue_entries, "SeqQueue")
        self.dis_queue = PrefetchQueue(queue_entries, "DisQueue")
        self._rlu_queue: Deque[Tuple[int, int, int]] = deque()
        self.rlu_queue_entries = queue_entries
        #: Blocks awaiting pre-decode once they arrive: line -> depth.
        self._pending_predecode: Dict[int, int] = {}
        self._prev_record = None
        #: Fixed-ISA fast path: prepared (buffer line, BufferedBranch
        #: tuple) per block.  The text segment is immutable and nothing
        #: mutates a BufferedBranch, so the prepared entry never goes
        #: stale and may be shared across fills.
        self._prepared_btb: Dict[int, Tuple[int, tuple]] = {}
        self._pd = None  # cached sim.predecoder()

        parts = []
        if enable_seq:
            parts.append("sn4l")
        if enable_dis:
            parts.append("dis")
        if enable_btb:
            parts.append("btb")
        self.name = "+".join(parts) if parts else "proactive-none"

        self.predecodes = 0
        self.dis_prefetch_candidates = 0

    # ------------------------------------------------------------------

    def attach(self, sim) -> None:
        super().attach(sim)
        # on_branch_retire only builds DV-LLC branch footprints, a
        # VL-ISA mechanism; fixed-length engines may skip the call.
        self.branch_retire_noop = not self.variable_length
        if self.enable_btb:
            sim.btb_prefetch_buffer = BtbPrefetchBuffer(self.btb_buffer_entries)
        if self.variable_length and not isinstance(
                sim.llc, DynamicallyVirtualizedLlc):
            raise RuntimeError(
                "variable-length mode stores branch footprints in the "
                "DV-LLC; build the simulator with FrontendConfig(dv_llc=True)"
            )
        # The program's ISA picks the pre-decode leg, once: the
        # memoised fixed-ISA leg needs a fixed-length segment, and any
        # other pairing decodes each pass with ``decode_block``.
        program = getattr(sim, "program", None)
        self._fixed_leg = not self.variable_length and (
            program is None or not program.variable_length)
        # Front-load the segment decode: the shared per-Program memo is
        # filled once at attach time, so no simulated access ever pays a
        # cold decode (behaviour and per-pass counters are unchanged).
        if ((self.enable_dis or self.enable_btb) and self._fixed_leg
                and program is not None):
            if self._pd is None:
                self._pd = sim.predecoder()
            self._pd.prewarm_fixed()
        # Compile the hot path against this simulator: the closures bind
        # every structure that is fixed for the simulator's lifetime and
        # shadow the plain methods on the instance.
        if COMPILE_HOT_PATH:
            drain, on_demand, on_fill, on_pf_hit, on_evict = self._compile()
            self._drain = drain
            self.on_demand = on_demand
            self.on_fill = on_fill
            self.on_prefetch_hit = on_pf_hit
            self.on_evict = on_evict

    # ------------------------------------------------------------------
    # metadata updates (SN4L usefulness + Dis recording)

    def _branch_offset(self, branch_pc: int) -> int:
        if self.variable_length:
            return block_offset(branch_pc)
        return block_offset(branch_pc) // 4

    def _record_discontinuity(self, record) -> None:
        """A miss occurred; if the previous demanded instruction was a
        taken branch, remember its in-block offset (Section V-B)."""
        prev = self._prev_record
        if prev is None or not prev.has_branch or not prev.taken:
            return
        if prev.branch_kind is BranchKind.RETURN:
            # Return targets come from the RAS, never from pre-decode or
            # the BTB; recording them would only evict useful entries.
            return
        self.distable.record(block_base(prev.branch_pc),
                             self._branch_offset(prev.branch_pc))

    def on_prefetch_hit(self, line_addr, cycle) -> None:
        self.seqtable.set(line_addr)

    def on_evict(self, line, cycle) -> None:
        if line.is_prefetch:
            self.seqtable.reset(line.addr)
        self._pending_predecode.pop(line.addr, None)

    # ------------------------------------------------------------------
    # triggers

    def on_demand(self, index, record, outcome, cycle) -> None:
        line = record.line
        if outcome is not HIT:
            self.seqtable.set(line)
            if self.enable_dis:
                self._record_discontinuity(record)
        self._prev_record = record

        # SN4L triggers on *every* access via the local prefetch status;
        # the RLU only gates pre-decode (Dis/BTB) and candidate lookups.
        # (Inlined RecentlyLookedUp contains+touch — hot per-access path.)
        rlu = self.rlu
        entries = rlu._entries
        if line in entries:
            entries.move_to_end(line)
            rlu.hits += 1
            fresh = False
        else:
            rlu.misses += 1
            if len(entries) >= rlu.n_entries:
                entries.popitem(last=False)
            entries[line] = True
            fresh = True
        if self.enable_seq:
            self.seq_queue.push(line, 0)
        if fresh and (self.enable_dis or self.enable_btb):
            self.dis_queue.push(line, 0)
        self._drain()

    def on_fill(self, line_addr, was_prefetch, cycle) -> None:
        l1i = self.sim.l1i
        key = line_addr // l1i.block_size
        resident = l1i._sets[key % l1i.n_sets].get(key)
        if resident is not None:
            resident.local_status = self.seqtable.next4_status(line_addr)
        depth = self._pending_predecode.pop(line_addr, None)
        if depth is not None:
            self._predecode_block(line_addr, depth)
            self._drain()

    def on_branch_retire(self, record, cycle) -> None:
        if not self.variable_length:
            return
        # Build the branch footprint of the branch's block in the DV-LLC:
        # retired branches accrete their byte offsets (Section V-D).
        line = block_base(record.branch_pc)
        llc = self.sim.llc
        existing = llc.get_footprint(line) or ()
        offset = block_offset(record.branch_pc)
        if offset not in existing:
            llc.store_footprint(line, tuple(existing) + (offset,))

    # ------------------------------------------------------------------
    # the proactive drain loop

    def _push_candidate(self, line: int, depth: int, src: int) -> None:
        if len(self._rlu_queue) >= self.rlu_queue_entries:
            self._rlu_queue.popleft()
        self._rlu_queue.append((line, depth, src))

    def _drain(self) -> None:
        # Replaced on the instance by the compiled closure at attach();
        # kept so the name resolves on an unattached prefetcher.
        self._compile()[0]()

    def _compile(self):
        """Compile the per-access hot path against the attached simulator.

        Returns ``(drain, on_demand, on_fill)`` closures; :meth:`attach`
        installs them over the plain methods, which remain the readable
        reference implementation (``COMPILE_HOT_PATH`` off runs on them).
        Everything fixed for the simulator's lifetime — structure queues,
        RLU filter, cache geometry, DisTable tagging, the pre-decode
        steady state and the prefetch-issue path — is bound once and
        inlined; every counter update replicates the structure methods
        (RecentlyLookedUp / PrefetchQueue / DisTable / BtbPrefetchBuffer /
        lookup_cache / issue_prefetch) exactly.  Attribution-heavy paths
        (event log or component counters attached) fall back to the
        regular methods so telemetry streams stay identical.

        The one addition is the *hit-path short circuit*: for a demand
        hit on a line already in the RLU with no queued work, the full
        application reduces to probing the line's SN4L candidates, and
        when every candidate is filter-resident it degenerates to pure
        LRU touches — performed directly, in the drain's exact order,
        without the queue machinery.  The candidate tuple is memoised
        per line; it is a pure function of the line's resident
        ``local_status`` snapshot, which only a fill of that same line
        rewrites, so a fill invalidates just its own line's entry.
        Everything else (queues empty, the line and each candidate
        filter-resident) is re-checked live; any check failing falls
        back to the full application.  Short-circuited and
        fully-applied updates are state- and counter-identical.
        """
        pf = self
        sim = self.sim
        l1i = sim.l1i
        l1i_sets = l1i._sets
        l1i_block = l1i.block_size
        l1i_nsets = l1i.n_sets
        mshr = sim.mshr
        mshr_entries = mshr._entries
        mshr_issue_pf = mshr.issue_prefetch_unchecked
        llc_access = sim.llc.access
        latency_request = sim.latency.request
        # latency.request fused into the issue leg: bind the contention
        # tracker and config scalars once (all fixed for the model's
        # lifetime; the counters it flushes survive measurement resets
        # because those assign fresh values on the same objects).
        lat_model = sim.latency
        contention = lat_model.contention
        ct_times = contention._times
        ct_popleft = ct_times.popleft
        lat_cfg = lat_model.config
        ct_window = lat_cfg.window
        ct_sat = lat_cfg.saturation_rate
        ct_gain = lat_cfg.contention_gain
        ct_expo = lat_cfg.contention_exponent
        lat_llc_rt = lat_cfg.llc_round_trip
        lat_mem_rt = lat_cfg.memory_round_trip
        lat_overhead = lat_cfg.l1_fill_overhead
        issue_slow = sim.issue_prefetch
        btb_peek = sim.btb.peek
        seqtable_set = self.seqtable.set
        seqtable_reset = self.seqtable.reset
        next4 = self.seqtable.next4_status
        rlu = self.rlu
        rlu_entries = rlu._entries
        rlu_mv = rlu_entries.move_to_end
        rlu_cap = rlu.n_entries
        seq_queue = self.seq_queue
        seq_items = seq_queue._items
        seq_cap = seq_queue.n_entries
        dis_queue = self.dis_queue
        dis_items = dis_queue._items
        dis_cap = dis_queue.n_entries
        rlu_queue = self._rlu_queue
        rq_cap = self.rlu_queue_entries
        pending = self._pending_predecode
        pending_pop = pending.pop
        # Closure-local prepared-entry cache: line -> (buffer line key,
        # shared entry dict).  The buffer's entry for a block is always
        # built from the same immutable branch set and consumers only
        # read it, so one shared dict per block replaces the per-fill
        # rebuild; re-inserting the same object after an eviction is
        # indistinguishable from a fresh build.
        prepared_entries: Dict[int, Tuple[int, dict]] = {}
        bpb = sim.btb_prefetch_buffer
        if bpb is not None:
            bpb_sets = bpb._sets
            bpb_nsets = bpb.n_sets
            bpb_assoc = bpb.assoc
            bpb_bs = bpb.block_size
            bpb_cap = bpb.BRANCHES_PER_ENTRY
        enable_seq = self.enable_seq
        enable_dis = self.enable_dis
        enable_btb = self.enable_btb
        do_dis = enable_dis or enable_btb
        variable_length = self.variable_length
        fixed_leg = self._fixed_leg
        chain_width = self.chain_width
        max_depth = self.max_depth
        predecode_delay = self.predecode_delay
        drain_budget = self.drain_budget
        block_size = CACHE_BLOCK_SIZE
        dt = self.distable
        dt_record = dt.record
        dt_rows = dt._rows
        dt_owner = dt._true_owner
        dt_n = dt.n_entries
        dt_bs = dt.block_size
        dt_full = dt.fully_tagged
        dt_mask = (1 << dt.tag_bits) - 1 if dt.tag_bits else 0
        _RETURN = BranchKind.RETURN
        perfect_l1i = sim.config.perfect_l1i
        # SeqTable / LLC / MSHR internals for the inlined structure
        # probes (each gated on the plain common-case configuration;
        # reference/telemetry variants keep the method calls).
        st = self.seqtable
        st_fast = st.n_entries is not None and not st.track_conflicts
        st_bits = st._bits
        st_n = st.n_entries
        st_bs = st.block_size
        llc = sim.llc
        llc_fast = type(llc) is LastLevelCache
        llc_sets = llc._sets
        llc_nsets = llc.n_sets
        llc_assoc = llc.assoc
        llc_bs = llc.block_size
        mshr_cap = mshr.capacity
        # Frame-free construction: __new__ plus explicit slot/attribute
        # stores skips the pure-Python __init__ call on the hot paths.
        cl_new = CacheLine.__new__
        if_new = InFlight.__new__
        memo: Dict[int, tuple] = {}
        self._idem_memo = memo
        memo_get = memo.get
        memo_pop = memo.pop
        # local_status (4 bits) -> candidate byte-offset tuple; the memo
        # stores these shared tuples so the hit path never allocates.
        cand_offs = tuple(
            tuple(i * block_size for i in (1, 2, 3, 4) if s >> (i - 1) & 1)
            for s in range(16))

        def predecode(line: int, depth: int) -> None:
            # _predecode_block, compiled.  DisTable lookup first:
            if enable_dis:
                dt.lookups += 1
                block = line // dt_bs
                if dt_n is None:
                    row = block
                    tag = 0
                else:
                    row = block % dt_n
                    rest = block // dt_n
                    tag = rest if dt_full else rest & dt_mask
                offset = None
                dt_entry = dt_rows.get(row)
                if dt_entry is not None and dt_entry[0] == tag:
                    dt.hits += 1
                    if dt_owner.get(row) != block:
                        dt.false_hits += 1
                    offset = dt_entry[1]
            else:
                offset = None
            if offset is None and not enable_btb:
                return
            if not fixed_leg:
                pf._predecode_block_decoded(line, depth, offset)
                return
            # Fixed-ISA steady state: memoised block info + prepared
            # BTB-buffer entry.
            pd = pf._pd
            if pd is None:
                pd = pf._pd = sim.predecoder()
            info = pd._fixed_info.get(line)
            if info is None:
                info = pd.fixed_block_info(line)
            else:
                pd.blocks_decoded += 1
            branches, offset_map = info
            pf.predecodes += 1
            if sim.event_log is not None:
                pf.telemetry.emit(sim.cycle, "predecode", line,
                                  f"depth={depth}")
            if enable_btb and branches:
                prep = prepared_entries.get(line)
                if prep is None:
                    prep = (line // bpb_bs,
                            {i.pc: BufferedBranch(i.pc, i.target, i.kind)
                             for i in branches[:bpb_cap]})
                    prepared_entries[line] = prep
                # fill_prepared, inlined with the shared entry dict.
                line_key, entry = prep
                cset = bpb_sets[line_key % bpb_nsets]
                if line_key in cset:
                    cset.move_to_end(line_key)
                else:
                    if len(cset) >= bpb_assoc:
                        cset.popitem(last=False)
                    cset[line_key] = entry
                bpb.inserts += 1
            if offset is None:
                return
            instr = offset_map.get(offset)
            if instr is None:
                return
            target = instr.target
            if target is None:
                e = btb_peek(instr.pc)
                target = e.target if e is not None else None
            if target is None or target == NO_ADDR:
                return  # paper: no BTB entry, no prefetch
            pf.dis_prefetch_candidates += 1
            if len(rlu_queue) >= rq_cap:
                rlu_queue.popleft()
            rlu_queue.append((target - target % block_size, depth + 1,
                              _SRC_DIS))

        def drain() -> None:
            budget = drain_budget
            stats = sim.stats
            l1pb = sim.l1_prefetch_buffer
            ev_log = sim.event_log
            issue_fast = ev_log is None and sim.component_counters is None
            # Counter deltas batched in locals, flushed once on exit.
            rlu_hits = rlu_misses = cache_lookups = issued = 0
            requests = lat_sum = lat_count = 0
            st_lookups = dt_lookups_l = dt_hits_l = dt_false_l = 0
            predecodes_l = bpb_inserts_l = dis_cands_l = 0
            llc_ihit_l = llc_imiss_l = mshr_drop_l = 0
            while budget > 0:
                progressed = False

                if enable_seq and seq_items:
                    line, depth = seq_items.popleft()
                    budget -= 1
                    progressed = True
                    # SN4L at the demand frontier, SN1L deeper in chain.
                    width = 4 if depth == 0 else chain_width
                    key = line // l1i_block
                    resident = l1i_sets[key % l1i_nsets].get(key)
                    if resident is not None:
                        status = resident.local_status
                    elif st_fast:
                        # seqtable.next4_status, inlined (limited,
                        # untracked table).
                        st_lookups += 4
                        blk = line // st_bs
                        status = (st_bits[(blk + 1) % st_n]
                                  | st_bits[(blk + 2) % st_n] << 1
                                  | st_bits[(blk + 3) % st_n] << 2
                                  | st_bits[(blk + 4) % st_n] << 3)
                    else:
                        status = next4(line)
                    depth += 1
                    for i in range(1, width + 1):
                        if status >> (i - 1) & 1:
                            if len(rlu_queue) >= rq_cap:
                                rlu_queue.popleft()
                            rlu_queue.append((line + i * block_size, depth,
                                              _SRC_SEQ))

                if do_dis and dis_items:
                    line, depth = dis_items.popleft()
                    budget -= 1
                    progressed = True
                    key = line // l1i_block
                    if key not in l1i_sets[key % l1i_nsets]:
                        pending[line] = depth
                        if len(pending) > 64:
                            del pending[next(iter(pending))]
                    elif not fixed_leg:
                        predecode(line, depth)
                    else:
                        # predecode(), inlined for the fixed-length ISA
                        # (counter deltas batched into drain locals).
                        offset = None
                        if enable_dis:
                            dt_lookups_l += 1
                            block = line // dt_bs
                            if dt_n is None:
                                row = block
                                tag = 0
                            else:
                                row = block % dt_n
                                rest = block // dt_n
                                tag = rest if dt_full else rest & dt_mask
                            dt_entry = dt_rows.get(row)
                            if dt_entry is not None and dt_entry[0] == tag:
                                dt_hits_l += 1
                                if dt_owner.get(row) != block:
                                    dt_false_l += 1
                                offset = dt_entry[1]
                        if offset is not None or enable_btb:
                            pd = pf._pd
                            if pd is None:
                                pd = pf._pd = sim.predecoder()
                            info = pd._fixed_info.get(line)
                            if info is None:
                                info = pd.fixed_block_info(line)
                            else:
                                pd.blocks_decoded += 1
                            branches, offset_map = info
                            predecodes_l += 1
                            if ev_log is not None:
                                pf.telemetry.emit(sim.cycle, "predecode",
                                                  line, f"depth={depth}")
                            if enable_btb and branches:
                                prep = prepared_entries.get(line)
                                if prep is None:
                                    prep = (line // bpb_bs,
                                            {i.pc: BufferedBranch(
                                                i.pc, i.target, i.kind)
                                             for i in branches[:bpb_cap]})
                                    prepared_entries[line] = prep
                                line_key, entry = prep
                                cset = bpb_sets[line_key % bpb_nsets]
                                if line_key in cset:
                                    cset.move_to_end(line_key)
                                else:
                                    if len(cset) >= bpb_assoc:
                                        cset.popitem(last=False)
                                    cset[line_key] = entry
                                bpb_inserts_l += 1
                            if offset is not None:
                                instr = offset_map.get(offset)
                                if instr is not None:
                                    target = instr.target
                                    if target is None:
                                        e = btb_peek(instr.pc)
                                        target = (e.target if e is not None
                                                  else None)
                                    if target is not None and target != NO_ADDR:
                                        dis_cands_l += 1
                                        if len(rlu_queue) >= rq_cap:
                                            rlu_queue.popleft()
                                        rlu_queue.append(
                                            (target - target % block_size,
                                             depth + 1, _SRC_DIS))

                while rlu_queue and budget > 0:
                    cand, depth, src = rlu_queue.popleft()
                    budget -= 1
                    progressed = True
                    if cand in rlu_entries:
                        rlu_mv(cand)
                        rlu_hits += 1
                        continue
                    rlu_misses += 1
                    if len(rlu_entries) >= rlu_cap:
                        rlu_entries.popitem(last=False)
                    rlu_entries[cand] = True
                    cache_lookups += 1
                    key = cand // l1i_block
                    if key in l1i_sets[key % l1i_nsets] or (
                            l1pb is not None and l1pb.contains(cand)):
                        pass
                    elif cand not in mshr_entries:
                        # issue_prefetch(probe_cache=False), inlined; the
                        # L1i probe and MSHR check just happened above.
                        if not issue_fast:
                            issue_slow(cand, probe_cache=False,
                                       delay=(predecode_delay
                                              if src == _SRC_DIS else 0),
                                       source=("dis" if src == _SRC_DIS
                                               else "sn4l"))
                        else:
                            at = sim.prefetch_clock
                            if src == _SRC_DIS:
                                at += predecode_delay
                            if llc_fast:
                                # llc.access, inlined (plain LLC only —
                                # the DV-LLC keeps the method call).
                                lkey = cand // llc_bs
                                lset = llc_sets[lkey % llc_nsets]
                                if lkey in lset:
                                    lset.move_to_end(lkey)
                                    llc_ihit_l += 1
                                    llc_hit = True
                                else:
                                    llc_imiss_l += 1
                                    if len(lset) >= llc_assoc:
                                        lset.popitem(last=False)
                                    nl = cl_new(CacheLine)
                                    nl.addr = lkey * llc_bs
                                    nl.is_prefetch = False
                                    nl.local_status = 0
                                    nl.is_instruction = True
                                    nl.fill_latency = 0
                                    lset[lkey] = nl
                                    llc_hit = False
                            else:
                                llc_hit = llc_access(cand,
                                                     is_instruction=True)
                            # latency.request, fused (its second expire
                            # pass in load() is a no-op at equal cycle).
                            ct_times.append(at)
                            requests += 1
                            horizon = at - ct_window
                            while ct_times and ct_times[0] <= horizon:
                                ct_popleft()
                            load = (len(ct_times) / ct_window) / ct_sat
                            if load > 1.0:
                                load = 1.0
                            lat = int(round(
                                (lat_llc_rt if llc_hit else lat_mem_rt)
                                * (1.0 + ct_gain * load ** ct_expo))) \
                                + lat_overhead
                            lat_sum += lat
                            lat_count += 1
                            # mshr.issue_prefetch_unchecked, inlined.
                            if len(mshr_entries) >= mshr_cap:
                                mshr_drop_l += 1
                            else:
                                rdy = at + lat
                                inf = if_new(InFlight)
                                inf.line = cand
                                inf.issue_cycle = at
                                inf.ready_cycle = rdy
                                inf.is_prefetch = True
                                mshr_entries[cand] = inf
                                if rdy < mshr._next_ready:
                                    mshr._next_ready = rdy
                                issued += 1
                    if depth < max_depth:
                        if src == _SRC_DIS and enable_seq:
                            if len(seq_items) >= seq_cap:
                                seq_items.popleft()
                                seq_queue.dropped += 1
                            seq_items.append((cand, depth))
                        if do_dis:
                            if len(dis_items) >= dis_cap:
                                dis_items.popleft()
                                dis_queue.dropped += 1
                            dis_items.append((cand, depth))

                if not progressed:
                    break
            if rlu_hits:
                rlu.hits += rlu_hits
            if rlu_misses:
                rlu.misses += rlu_misses
            if cache_lookups:
                stats.cache_lookups += cache_lookups
            if issued:
                stats.prefetches_issued += issued
            if requests:
                contention.total_requests += requests
                lat_model.llc_latency_sum += lat_sum
                lat_model.llc_latency_count += lat_count
            if st_lookups:
                st.lookups += st_lookups
            if dt_lookups_l:
                dt.lookups += dt_lookups_l
                dt.hits += dt_hits_l
                dt.false_hits += dt_false_l
            if predecodes_l:
                pf.predecodes += predecodes_l
            if bpb_inserts_l:
                bpb.inserts += bpb_inserts_l
            if dis_cands_l:
                pf.dis_prefetch_candidates += dis_cands_l
            if llc_ihit_l or llc_imiss_l:
                llc.instruction_hits += llc_ihit_l
                llc.instruction_misses += llc_imiss_l
            if mshr_drop_l:
                mshr.prefetches_dropped_full += mshr_drop_l

        def on_demand(index, record, outcome, cycle) -> None:
            line = record.line
            if outcome is HIT:
                # Hit-path short circuit: with the line already in the
                # RLU and no queued work, the full application reduces
                # to probing the line's SN4L candidates — if every one
                # is filter-resident, it is pure LRU touches, performed
                # here in the drain's exact order without the queue
                # machinery.  The memo caches the candidate tuple (a
                # function of the line's frozen local_status snapshot,
                # invalidated by that line's next fill); queue emptiness
                # and residency are verified live.  Perfect-L1i and
                # prefetch-buffer hits don't prove L1i residency, so
                # those configurations take the full path.
                if (line in rlu_entries and not rlu_queue
                        and not seq_items and not dis_items
                        and not perfect_l1i
                        and sim.l1_prefetch_buffer is None):
                    cands = memo_get(line)
                    if cands is None:
                        key = line // l1i_block
                        resident = l1i_sets[key % l1i_nsets].get(key)
                        if resident is not None:
                            if enable_seq:
                                cands = cand_offs[
                                    resident.local_status & 15]
                            else:
                                cands = ()
                            memo[line] = cands
                    if cands is not None:
                        for c in cands:
                            if line + c not in rlu_entries:
                                break
                        else:
                            rlu_mv(line)
                            for c in cands:
                                rlu_mv(line + c)
                            rlu.hits += 1 + len(cands)
                            pf._prev_record = record
                            return
            else:
                memo_pop(line, None)
                if st_fast:
                    # seqtable.set, inlined (no counters on the write).
                    st_bits[(line // st_bs) % st_n] = 1
                else:
                    seqtable_set(line)
                if enable_dis:
                    # _record_discontinuity, inlined.
                    prev = pf._prev_record
                    if (prev is not None and prev.has_branch and prev.taken
                            and prev.branch_kind is not _RETURN):
                        bp = prev.branch_pc
                        off = bp % block_size
                        dt_record(bp - off,
                                  off if variable_length else off // 4)
            pf._prev_record = record
            # SN4L triggers on *every* access via the local prefetch
            # status; the RLU only gates pre-decode and candidate lookups.
            if line in rlu_entries:
                rlu_mv(line)
                rlu.hits += 1
                fresh = False
            else:
                rlu.misses += 1
                if len(rlu_entries) >= rlu_cap:
                    rlu_entries.popitem(last=False)
                rlu_entries[line] = True
                fresh = True
            if enable_seq:
                if len(seq_items) >= seq_cap:
                    seq_items.popleft()
                    seq_queue.dropped += 1
                seq_items.append((line, 0))
            if fresh and do_dis:
                if len(dis_items) >= dis_cap:
                    dis_items.popleft()
                    dis_queue.dropped += 1
                dis_items.append((line, 0))
            drain()

        def on_fill(line_addr, was_prefetch, cycle) -> None:
            memo_pop(line_addr, None)
            key = line_addr // l1i_block
            resident = l1i_sets[key % l1i_nsets].get(key)
            if resident is not None:
                if st_fast:
                    # seqtable.next4_status, inlined.
                    st.lookups += 4
                    blk = line_addr // st_bs
                    resident.local_status = (
                        st_bits[(blk + 1) % st_n]
                        | st_bits[(blk + 2) % st_n] << 1
                        | st_bits[(blk + 3) % st_n] << 2
                        | st_bits[(blk + 4) % st_n] << 3)
                else:
                    resident.local_status = next4(line_addr)
            depth = pending_pop(line_addr, None)
            if depth is not None:
                predecode(line_addr, depth)
                drain()

        def on_prefetch_hit(line_addr, cycle) -> None:
            if st_fast:
                st_bits[(line_addr // st_bs) % st_n] = 1
            else:
                seqtable_set(line_addr)

        def on_evict(line, cycle) -> None:
            if line.is_prefetch:
                if st_fast:
                    st_bits[(line.addr // st_bs) % st_n] = 0
                else:
                    seqtable_reset(line.addr)
            pending_pop(line.addr, None)

        return drain, on_demand, on_fill, on_prefetch_hit, on_evict

    def _local_status(self, line: int) -> int:
        resident = self.sim.l1i.lookup(line, touch=False)
        if resident is not None:
            return resident.local_status
        return self.seqtable.next4_status(line)

    # ------------------------------------------------------------------
    # pre-decode: serves Dis and the BTB prefetch buffer together

    def _predecode_block(self, line: int, depth: int) -> None:
        offset = self.distable.lookup(line) if self.enable_dis else None
        if offset is None and not self.enable_btb:
            return
        if not self._fixed_leg:
            self._predecode_block_decoded(line, depth, offset)
            return

        # Fixed-ISA fast leg: the pre-decoder's cached (branches,
        # offset map) pair replaces the PredecodeResult/list churn of
        # decode_block, and the BTB prefetch buffer receives a prepared
        # per-block entry instead of rebuilding BufferedBranch objects
        # every pass.  Pass accounting (blocks_decoded, predecodes,
        # DisTable lookup, buffer inserts, telemetry) is unchanged.
        sim = self.sim
        pd = self._pd
        if pd is None:
            pd = self._pd = sim.predecoder()
        branches, offset_map = pd.fixed_block_info(line)
        self.predecodes += 1
        if sim.event_log is not None:
            self.telemetry.emit(sim.cycle, "predecode", line,
                                f"depth={depth}")

        if self.enable_btb and branches:
            prepared = self._prepared_btb.get(line)
            if prepared is None:
                buffer = sim.btb_prefetch_buffer
                prepared = (
                    line // buffer.block_size,
                    tuple(BufferedBranch(i.pc, i.target, i.kind) for i in
                          branches[:buffer.BRANCHES_PER_ENTRY]))
                self._prepared_btb[line] = prepared
            sim.btb_prefetch_buffer.fill_prepared(prepared[0], prepared[1])

        if offset is None:
            return
        instr = offset_map.get(offset)
        if instr is None:
            return
        target = instr.target
        if target is None:
            entry = sim.btb.peek(instr.pc)
            target = entry.target if entry is not None else None
        if target is None or target == NO_ADDR:
            return  # paper: no BTB entry, no prefetch
        self.dis_prefetch_candidates += 1
        self._push_candidate(block_base(target), depth + 1, _SRC_DIS)

    def _predecode_block_decoded(self, line: int, depth: int,
                                 offset: Optional[int]) -> None:
        """Per-pass ``decode_block`` leg, for every pairing the fixed
        leg cannot serve.  A variable-length prefetcher decodes at the
        branch footprint its DV-LLC holds; a fixed-length one on a
        variable-length program reads no footprint and decodes only at
        the DisTable offset."""
        footprint = None
        if self.variable_length:
            footprint = self.sim.llc.get_footprint(line)
            if footprint is None and offset is None:
                return  # nothing decodable without boundaries
        result = self.sim.predecoder().decode_block(
            line, footprint_offsets=footprint, dis_offset=offset)
        self.predecodes += 1
        if self.telemetry is not None:
            self.telemetry.emit(self.sim.cycle, "predecode", line,
                                f"depth={depth}")

        if self.enable_btb and (result.branches or result.offset_branch):
            branches = list(result.branches)
            if result.offset_branch and result.offset_branch not in branches:
                branches.append(result.offset_branch)
            self.sim.btb_prefetch_buffer.fill(line, branches)

        if offset is None or result.offset_branch is None:
            return
        instr = result.offset_branch
        target = instr.target
        if target is None:
            entry = self.sim.btb.peek(instr.pc)
            target = entry.target if entry is not None else None
        if target is None or target == NO_ADDR:
            return  # paper: no BTB entry, no prefetch
        self.dis_prefetch_candidates += 1
        self._push_candidate(block_base(target), depth + 1, _SRC_DIS)

    # ------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Per-core storage, mirroring the paper's 7.6 KB accounting."""
        total = 0
        if self.enable_seq:
            total += self.seqtable.storage_bytes()
        if self.enable_dis:
            total += self.distable.storage_bytes()
        if self.enable_btb and self.sim is not None \
                and self.sim.btb_prefetch_buffer is not None:
            total += self.sim.btb_prefetch_buffer.storage_bytes()
        l1_lines = (self.sim.l1i.size_bytes // self.sim.l1i.block_size
                    if self.sim is not None else 512)
        total += l1_lines * 5 // 8  # local status + prefetch flag
        queue_bits = (self.seq_queue.storage_bits() +
                      self.dis_queue.storage_bits() +
                      self.rlu_queue_entries * (40 + 3 + 1) +
                      self.rlu.storage_bits())
        total += queue_bits // 8
        return total


def sn4l_dis_btb(**kwargs) -> ProactivePrefetcher:
    """The paper's full proposal."""
    return ProactivePrefetcher(enable_seq=True, enable_dis=True,
                               enable_btb=True, **kwargs)


def sn4l_dis(**kwargs) -> ProactivePrefetcher:
    """SN4L+Dis without BTB prefilling (Fig. 17 breakdown point)."""
    return ProactivePrefetcher(enable_seq=True, enable_dis=True,
                               enable_btb=False, **kwargs)


def dis_only(**kwargs) -> ProactivePrefetcher:
    """Standalone Dis prefetcher (Fig. 13)."""
    return ProactivePrefetcher(enable_seq=False, enable_dis=True,
                               enable_btb=False, **kwargs)
