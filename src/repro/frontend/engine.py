"""Trace-driven, cycle-approximate frontend simulator.

The simulator advances a single timestamp through the fetch trace.  For
each :class:`~repro.workloads.trace.FetchRecord` it:

1. applies any fills whose data has arrived (MSHR drain);
2. looks up the L1i (and the L1i prefetch buffer, for schemes that use
   one); a full miss stalls for the whole fill latency, a hit on an
   in-flight prefetch stalls only for the *remaining* latency — the
   covered part is what the paper's CMAL metric measures;
3. charges instruction delivery cycles (``ceil(n_instr / width)``);
4. models the terminator branch: direction prediction, BTB lookup for
   taken branches (a miss costs the redirect penalty unless the BTB
   prefetch buffer rescues it), return-address-stack push/pop;
5. hands the access to the attached prefetcher, which may issue prefetch
   requests through :meth:`FrontendSimulator.issue_prefetch`.

Stall cycles that accumulate while a BTB-directed prefetcher has declared
itself blocked on a BTB miss are additionally attributed to *empty-FTQ*
stalls (Table I).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from .._gcpause import gc_paused
from ..btb import BtbPrefetchBuffer, ConventionalBtb, ReturnAddressStack
from ..cfg import Program
from ..isa import CACHE_BLOCK_SIZE, BranchKind, Predecoder, block_base
from ..memory import (
    CacheLine,
    DynamicallyVirtualizedLlc,
    LastLevelCache,
    LatencyModel,
    MshrFile,
    SetAssociativeCache,
)
from ..workloads import NO_ADDR, Trace
from ..workloads.soa import engine_view
from .branch_predictor import DirectionPredictor
from .config import FrontendConfig
from .eventlog import ScopedEmitter
from .tage import TagePredictor
from .l1pb import L1PrefetchBuffer
from .stats import FrontendStats

#: Demand access outcomes passed to prefetchers.
HIT = "hit"
MISS = "miss"
LATE = "late"                      # in-flight prefetch caught the demand


class FrontendSimulator:
    """One core's frontend running one fetch trace."""

    def __init__(self, trace: Trace, config: Optional[FrontendConfig] = None,
                 prefetcher=None, program: Optional[Program] = None,
                 llc=None, latency: Optional[LatencyModel] = None):
        self.trace = trace
        self.config = config or FrontendConfig()
        self.program = program
        cfg = self.config

        self.l1i = SetAssociativeCache(cfg.l1i_size, cfg.l1i_assoc,
                                       cfg.block_size, name="l1i")
        if llc is not None:
            # Shared LLC slice (multi-core simulation).
            self.llc = llc
        else:
            llc_cls = (DynamicallyVirtualizedLlc if cfg.dv_llc
                       else LastLevelCache)
            self.llc = llc_cls(cfg.llc_size, cfg.llc_assoc, cfg.block_size)
        self.latency = latency if latency is not None \
            else LatencyModel(cfg.latency)
        self.mshr = MshrFile(cfg.mshrs)
        self.btb = ConventionalBtb(cfg.btb_entries, cfg.btb_assoc)
        self.ras = ReturnAddressStack(cfg.ras_depth)
        if cfg.predictor_kind == "tage":
            self.predictor = TagePredictor()
        else:
            self.predictor = DirectionPredictor(cfg.predictor_entries)
        self.stats = FrontendStats()

        self.cycle = 0
        self._demand_index = 0
        #: Timestamp prefetch requests are issued at.  During a demand
        #: access this is the access *start* cycle: the prefetcher's probe
        #: overlaps the demand fetch, exactly as in hardware, which is
        #: what gives even a next-line prefetcher partial timeliness.
        self.prefetch_clock = 0
        #: Set by BTB-directed prefetchers while their runahead is stalled
        #: on a BTB miss; stalls during this window count as empty-FTQ.
        self.runahead_blocked_until = 0

        #: Optional structures installed by prefetchers.
        self.btb_prefetch_buffer: Optional[BtbPrefetchBuffer] = None
        self.l1_prefetch_buffer: Optional[L1PrefetchBuffer] = None

        self._predecoder: Optional[Predecoder] = None
        #: Optional debugging aid: attach an ``EventLog`` to record a
        #: structured stream of simulator events (see frontend.eventlog).
        self.event_log = None
        #: Optional per-component prefetch attribution
        #: (:meth:`enable_component_telemetry`); ``None`` costs nothing.
        self.component_counters = None
        self._pf_sources = {}
        self.datapath = None
        if cfg.model_data:
            from .datapath import DataPathModel
            self.datapath = DataPathModel(self)
        self._call_depth = 0
        #: Engine loop the last ``run()`` selected: ``"vectorized"`` or
        #: ``"generic"`` (surfaced in ``stats.extra``).
        self.engine_path = "generic"
        self._vector_view = None
        self.prefetcher = prefetcher
        if prefetcher is not None:
            prefetcher.attach(self)

    # ------------------------------------------------------------------
    # services used by prefetchers

    @property
    def demand_index(self) -> int:
        """Index of the record currently being fetched."""
        return self._demand_index

    def emitter(self, source: str) -> ScopedEmitter:
        """A telemetry emitter stamping events with ``source``.

        Bound to this simulator, not to a specific log: it follows a
        later ``sim.event_log = ...`` attachment and is a single ``None``
        check when no log is attached.
        """
        return ScopedEmitter(self, source)

    def enable_component_telemetry(self):
        """Attribute prefetch outcomes to their issuing component.

        Returns the live :class:`~repro.obs.telemetry.ComponentCounters`;
        sources come from ``issue_prefetch(..., source=...)`` (defaulting
        to the attached prefetcher's name).  The vectorized loop keeps
        running; attribution happens in the shared fill and demand
        helpers it delegates to.
        """
        if self.component_counters is None:
            from ..obs.telemetry import ComponentCounters
            self.component_counters = ComponentCounters()
        return self.component_counters

    def predecoder(self) -> Predecoder:
        if self._predecoder is None:
            if self.program is None:
                raise RuntimeError(
                    "this simulation was built without a Program; pass "
                    "program= to FrontendSimulator to enable pre-decoding"
                )
            self._predecoder = self.program.predecoder()
        return self._predecoder

    def lookup_cache(self, addr: int, touch: bool = False) -> bool:
        """Prefetcher-side L1i probe (counted as a cache lookup).

        Probes the L1i set and the L1i prefetch buffer's entries
        directly, as ``l1i.lookup`` and ``l1_prefetch_buffer.contains``
        would.
        """
        self.stats.cache_lookups += 1
        l1i = self.l1i
        key = addr // l1i.block_size
        cset = l1i._sets[key % l1i.n_sets]
        if key in cset:
            if touch:
                cset.move_to_end(key)
            return True
        l1pb = self.l1_prefetch_buffer
        return (l1pb is not None
                and addr - addr % l1pb.block_size in l1pb._entries)

    def in_flight(self, addr: int) -> bool:
        return block_base(addr) in self.mshr

    def issue_prefetch(self, addr: int, probe_cache: bool = True,
                       delay: int = 0, source: str = "") -> bool:
        """Issue a prefetch for the block containing ``addr``.

        Returns True when a request was actually sent to the memory
        hierarchy.  ``probe_cache=False`` skips the L1i lookup (the caller
        already probed, e.g. through the RLU filter path).  ``delay`` adds
        issue latency for longer prefetch paths, e.g. the Dis prefetcher's
        DisTable-lookup + pre-decode pipeline.  ``source`` names the
        issuing component for telemetry attribution (defaults to the
        attached prefetcher's name when component telemetry is on).
        """
        # The L1i, L1i-prefetch-buffer and MSHR probes read the
        # structures' dicts directly (``lookup_cache``, ``contains`` and
        # ``in mshr`` without their call chains).
        line = addr - addr % CACHE_BLOCK_SIZE
        l1i = self.l1i
        key = line // l1i.block_size
        if probe_cache:
            self.stats.cache_lookups += 1
        if key in l1i._sets[key % l1i.n_sets]:
            return False
        l1pb = self.l1_prefetch_buffer
        if (probe_cache and l1pb is not None
                and line - line % l1pb.block_size in l1pb._entries):
            return False
        mshr = self.mshr
        if line in mshr._entries:
            return False
        llc_hit = self.llc.access(line, is_instruction=True)
        at = self.prefetch_clock + delay
        lat = self.latency.request(at, llc_hit=llc_hit)
        if not mshr.issue_prefetch_unchecked(line, at, at + lat):
            return False
        self.stats.prefetches_issued += 1
        if self.component_counters is not None:
            if not source and self.prefetcher is not None:
                source = self.prefetcher.name
            self.component_counters.on_issue(source)
            self._pf_sources[line] = source
        if self.event_log is not None:
            self.event_log.emit(at, "prefetch", line, f"lat={lat}",
                                source=source)
        return True

    def _pf_source(self, line: int) -> str:
        """Pop the issuing component of a prefetched ``line``."""
        return self._pf_sources.pop(line, "")

    # ------------------------------------------------------------------
    # fills

    def _apply_fill(self, line: int, is_prefetch: bool,
                    fill_latency: int) -> None:
        if is_prefetch and self.l1_prefetch_buffer is not None:
            victim = self.l1_prefetch_buffer.fill(line, fill_latency)
            if victim is not None:
                self.stats.prefetches_useless += 1
                if self.component_counters is not None:
                    self.component_counters.on_useless(
                        self._pf_source(victim))
            if self.prefetcher is not None:
                self.prefetch_clock = self.cycle
                self.prefetcher.on_fill(line, True, self.cycle)
            return
        victim = self.l1i.insert(line, is_prefetch=is_prefetch,
                                 is_instruction=True)
        resident = self.l1i.lookup(line, touch=False)
        if resident is not None:
            resident.fill_latency = fill_latency
        if self.event_log is not None:
            self.event_log.emit(self.cycle, "fill", line,
                                "prefetch" if is_prefetch else "demand")
        if victim is not None:
            if victim.is_prefetch:
                self.stats.prefetches_useless += 1
                if self.component_counters is not None:
                    self.component_counters.on_useless(
                        self._pf_source(victim.addr))
            if self.event_log is not None:
                self.event_log.emit(self.cycle, "evict", victim.addr)
            if self.prefetcher is not None:
                self.prefetcher.on_evict(victim, self.cycle)
        if self.prefetcher is not None:
            # Fill-triggered prefetches (e.g. proactive Dis chains) start
            # when the block actually arrives, not at demand-access start.
            self.prefetch_clock = self.cycle
            self.prefetcher.on_fill(line, is_prefetch, self.cycle)

    def _drain_fills(self) -> None:
        for entry in self.mshr.pop_ready(self.cycle):
            self._apply_fill(entry.line, entry.is_prefetch,
                             entry.full_latency)

    # ------------------------------------------------------------------
    # stall attribution

    def _stall(self, cycles: int, bucket: str) -> None:
        if cycles <= 0:
            return
        setattr(self.stats, bucket, getattr(self.stats, bucket) + cycles)
        if self.cycle < self.runahead_blocked_until:
            overlap = min(cycles, self.runahead_blocked_until - self.cycle)
            self.stats.empty_ftq_stall_cycles += overlap
        self.cycle += cycles

    # ------------------------------------------------------------------
    # demand path

    def _demand_access(self, record) -> str:
        self.stats.demand_accesses += 1
        self.stats.cache_lookups += 1
        return self._demand_access_core(record)

    def _demand_access_core(self, record) -> str:
        """Demand access minus the two leading counter bumps.

        The vectorized span loop performs those bumps itself so its
        inlined trivial-hit leg and this delegated slow leg stay
        counter-exact with the generic path.
        """
        stats = self.stats
        line = record.line

        if self.config.perfect_l1i:
            stats.demand_hits += 1
            if self.event_log is not None:
                self.event_log.emit(self.cycle, "demand_hit", line,
                                    "perfect")
            return HIT

        resident = self.l1i.lookup(line)
        if resident is not None:
            stats.demand_hits += 1
            if self.event_log is not None:
                self.event_log.emit(self.cycle, "demand_hit", line)
            if resident.is_prefetch:
                stats.prefetches_useful += 1
                lat = resident.fill_latency
                stats.covered_latency += lat
                stats.prefetched_latency += lat
                resident.is_prefetch = False
                if self.component_counters is not None:
                    self.component_counters.on_useful(
                        self._pf_source(line), lat, lat)
                if self.prefetcher is not None:
                    self.prefetcher.on_prefetch_hit(line, self.cycle)
            return HIT

        if self.l1_prefetch_buffer is not None:
            buffered = self.l1_prefetch_buffer.take(line)
            if buffered is not None:
                stats.demand_hits += 1
                stats.prefetches_useful += 1
                stats.covered_latency += buffered
                stats.prefetched_latency += buffered
                if self.component_counters is not None:
                    self.component_counters.on_useful(
                        self._pf_source(line), buffered, buffered)
                if self.event_log is not None:
                    self.event_log.emit(self.cycle, "demand_hit", line,
                                        "l1pb")
                self.l1i.insert(line, is_prefetch=False, is_instruction=True)
                return HIT

        inflight = self.mshr.get(line)
        if inflight is not None and not inflight.is_prefetch:
            # A wrong-path fetch for this very line is already in flight:
            # the demand waits out the remainder (an accidental prefetch,
            # but not credited as one).
            remaining = inflight.remaining(self.cycle)
            stats.demand_misses += 1
            if record.seq:
                stats.seq_misses += 1
            else:
                stats.disc_misses += 1
            if self.event_log is not None:
                self.event_log.emit(self.cycle, "demand_miss", line,
                                    "inflight")
            self.mshr.remove(line)
            self._stall(remaining, "icache_stall_cycles")
            self._apply_fill(line, is_prefetch=False,
                             fill_latency=inflight.full_latency)
            return MISS
        if inflight is not None and inflight.is_prefetch:
            remaining = inflight.remaining(self.cycle)
            stats.demand_late_prefetch += 1
            # A late prefetch is an uncovered miss for coverage metrics
            # (the paper's Fig. 3 point), though its stall is shorter.
            if record.seq:
                stats.seq_misses += 1
            else:
                stats.disc_misses += 1
            stats.prefetches_useful += 1
            stats.covered_latency += inflight.full_latency - remaining
            stats.prefetched_latency += inflight.full_latency
            if self.component_counters is not None:
                self.component_counters.on_useful(
                    self._pf_source(line),
                    inflight.full_latency - remaining,
                    inflight.full_latency, late=True)
            if self.event_log is not None:
                self.event_log.emit(self.cycle, "demand_late", line,
                                    f"remaining={remaining}")
            self.mshr.remove(line)
            self._stall(remaining, "icache_stall_cycles")
            self._apply_fill(line, is_prefetch=False,
                             fill_latency=inflight.full_latency)
            if self.prefetcher is not None:
                self.prefetcher.on_prefetch_hit(line, self.cycle)
            return LATE

        # Full demand miss.
        stats.demand_misses += 1
        if record.seq:
            stats.seq_misses += 1
        else:
            stats.disc_misses += 1
        if self.event_log is not None:
            self.event_log.emit(self.cycle, "demand_miss", line,
                                "seq" if record.seq else "disc")
        llc_hit = self.llc.access(line, is_instruction=True)
        lat = self.latency.request(self.cycle, llc_hit=llc_hit)
        self._stall(lat, "icache_stall_cycles")
        self._apply_fill(line, is_prefetch=False, fill_latency=lat)
        return MISS

    # ------------------------------------------------------------------
    # branches

    def _handle_branch(self, record) -> None:
        stats = self.stats
        kind = record.branch_kind
        stats.branches += 1
        cfg = self.config

        if kind is BranchKind.COND:
            correct = self.predictor.update(record.branch_pc, record.taken)
            if not correct:
                stats.mispredicts += 1
                if self.event_log is not None:
                    self.event_log.emit(self.cycle, "mispredict",
                                        record.branch_pc, "cond")
                self._stall(cfg.mispredict_penalty, "mispredict_stall_cycles")
                self._wrong_path_touch(record)
            if record.taken:
                self._btb_check(record)
            return

        if kind in (BranchKind.JUMP, BranchKind.CALL):
            if not record.taken:       # depth-guard-skipped call
                return
            self._btb_check(record)
            if kind is BranchKind.CALL:
                self.ras.push(record.branch_pc + record.branch_size)
            return

        if kind is BranchKind.INDIRECT:
            if not record.taken:
                return
            entry = None if cfg.perfect_btb else self.btb.lookup(record.branch_pc)
            if cfg.perfect_btb:
                self.ras.push(record.branch_pc + record.branch_size)
                return
            if entry is None:
                self._btb_miss(record)
            elif entry.target != record.branch_target:
                stats.mispredicts += 1
                if self.event_log is not None:
                    self.event_log.emit(self.cycle, "mispredict",
                                        record.branch_pc, "indirect")
                self._stall(cfg.mispredict_penalty, "mispredict_stall_cycles")
                entry.target = record.branch_target
            self.ras.push(record.branch_pc + record.branch_size)
            return

        if kind is BranchKind.RETURN:
            predicted = self.ras.pop()
            if predicted != record.branch_target and record.branch_target != NO_ADDR:
                stats.mispredicts += 1
                if self.event_log is not None:
                    self.event_log.emit(self.cycle, "mispredict",
                                        record.branch_pc, "return")
                if not cfg.perfect_btb:
                    self._stall(cfg.mispredict_penalty,
                                "mispredict_stall_cycles")

    def _btb_check(self, record) -> None:
        if self.config.perfect_btb:
            return
        entry = self.btb.lookup(record.branch_pc)
        if entry is None:
            self._btb_miss(record)
        elif entry.target != record.branch_target:
            entry.target = record.branch_target

    def _btb_miss(self, record) -> None:
        stats = self.stats
        if self.btb_prefetch_buffer is not None:
            buffered = self.btb_prefetch_buffer.lookup(record.branch_pc)
            if buffered is not None:
                target = (buffered.target if buffered.target is not None
                          else record.branch_target)
                self.btb.insert(record.branch_pc, target, buffered.kind)
                stats.btb_buffer_fills += 1
                if self.event_log is not None:
                    self.event_log.emit(self.cycle, "btb_rescue",
                                        record.branch_pc)
                return
        stats.btb_misses += 1
        if self.event_log is not None:
            self.event_log.emit(self.cycle, "btb_miss", record.branch_pc)
        self._stall(self.config.btb_miss_penalty, "btb_stall_cycles")
        self.btb.insert(record.branch_pc, record.branch_target,
                        record.branch_kind)

    def _wrong_path_touch(self, record) -> None:
        """Wrong-path fetch after a misprediction.

        The squash penalty is charged separately.  The touch accounts for
        the wrong path's L1i lookup traffic, and — when
        ``wrong_path_depth`` > 0 — actually fetches the first wrong-path
        blocks: they burn shared bandwidth and pollute the L1i, though
        occasionally they act as accidental prefetches, both of which the
        paper's wrong-path modelling captures.
        """
        if record.taken:
            alt = record.branch_pc + record.branch_size
        else:
            alt = record.branch_target
        if alt == NO_ADDR:
            return
        self.stats.cache_lookups += 1
        self.l1i.lookup(alt, touch=False)
        base = block_base(alt)
        for i in range(self.config.wrong_path_depth):
            line = base + i * CACHE_BLOCK_SIZE
            if self.l1i.contains(line) or line in self.mshr \
                    or self.mshr.full:
                continue
            llc_hit = self.llc.access(line, is_instruction=True)
            lat = self.latency.request(self.cycle, llc_hit=llc_hit)
            self.mshr.issue(line, self.cycle, self.cycle + lat,
                            is_prefetch=False)
            self.stats.wrong_path_fetches += 1

    # ------------------------------------------------------------------

    def _reset_measurement(self) -> None:
        """Zero statistics after warmup, keeping microarchitectural state.

        Mirrors the SimFlex methodology the paper uses: caches, BTB and
        predictor stay warm; only the measurement counters restart.
        """
        self.stats = FrontendStats()
        if self.event_log is not None:
            # Counts restart with the statistics so the two reconcile;
            # buffered/streamed warmup events are kept for debugging.
            self.event_log.mark_measurement_start()
        if self.component_counters is not None:
            # Prefetch provenance (``_pf_sources``) survives — in-flight
            # and resident prefetches are microarchitectural state.
            self.component_counters.reset()
        self.latency.llc_latency_sum = 0.0
        self.latency.llc_latency_count = 0
        self.latency.contention.total_requests = 0
        if self.datapath is not None:
            self.datapath.reset_measurement()
        self.btb.hits = self.btb.misses = 0
        if self.btb_prefetch_buffer is not None:
            self.btb_prefetch_buffer.hits = 0
            self.btb_prefetch_buffer.misses = 0

    def process_record(self, idx: int, record) -> None:
        """Advance the frontend by one fetch record (one FTQ entry)."""
        stats = self.stats
        width = self.config.fetch_width
        prefetcher = self.prefetcher

        self._demand_index = idx
        self._drain_fills()
        start = self.cycle
        self.prefetch_clock = start
        outcome = self._demand_access(record)
        stats.instructions += record.n_instr
        stats.delivery_cycles += -(-record.n_instr // width)
        self.cycle += -(-record.n_instr // width)
        if self.datapath is not None:
            stall = self.datapath.access_for_record(record,
                                                    self._call_depth)
            if stall:
                stats.backend_cycles += stall
                self.cycle += stall
        if record.has_branch:
            if record.taken:
                if record.branch_kind in (BranchKind.CALL,
                                          BranchKind.INDIRECT):
                    self._call_depth = min(64, self._call_depth + 1)
                elif record.branch_kind is BranchKind.RETURN:
                    self._call_depth = max(0, self._call_depth - 1)
            self._handle_branch(record)
        if prefetcher is not None:
            self.prefetch_clock = start
            prefetcher.on_demand(idx, record, outcome, start)
            if record.has_branch:
                self.prefetch_clock = self.cycle
                prefetcher.on_branch_retire(record, self.cycle)

    def finalize(self) -> FrontendStats:
        """Charge the backend cycles and return the statistics."""
        cpi = (self.config.backend_cpi_with_data
               if self.datapath is not None
               else self.config.backend_cpi_extra)
        self.stats.backend_cycles += int(self.stats.instructions * cpi)
        self.stats.extra["engine_path"] = self.engine_path
        return self.stats

    def run(self, warmup: int = 0, fast: bool = True) -> FrontendStats:
        """Simulate the whole trace and return the filled statistics.

        The first ``warmup`` records warm caches, BTB and predictor but
        are excluded from the returned statistics.

        With ``fast`` (the default) the vectorized region-stepping loop
        runs, bit-identical to the generic per-record loop, which
        ``fast=False`` forces (the throughput microbenchmark uses that
        to measure the gap).  A datapath model hooks every record, so it
        always runs on the generic loop.
        """
        records = getattr(self.trace, "records", None)
        if records is None:
            records = list(self.trace)
        n = len(records)
        if fast and self.datapath is None:
            self.engine_path = "vectorized"
            geometry = (self.l1i.block_size, self.l1i.n_sets,
                        self.config.fetch_width)
            # A Trace memoises its view; a bare record list gets its own.
            self._vector_view = (self.trace.engine_view(*geometry)
                                 if isinstance(self.trace, Trace)
                                 else engine_view(records, *geometry))
            span = self._run_span_vector
        else:
            self.engine_path = "generic"
            span = self._run_span
        # The simulation allocates in refcount-clean patterns (no cycles
        # survive a record), so the cyclic collector only adds pauses.
        with gc_paused():
            if 0 < warmup < n:
                span(records, 0, warmup)
                self._reset_measurement()
                span(records, warmup, n)
            else:
                span(records, 0, n)
        return self.finalize()

    def close(self) -> None:
        """Detach the prefetcher, so that this simulator and everything
        it built are freed by reference counting once the caller drops
        them.  The prefetcher's own state stays readable; run no closed
        simulator again.

        The prefetcher holds the simulator and hooks bound to it, a
        cycle that only the cyclic collector could otherwise reclaim.
        """
        if self.prefetcher is not None:
            self.prefetcher.detach()

    def _run_span(self, records, start: int, stop: int) -> None:
        """Generic per-record stepping: the readable reference loop."""
        process = self.process_record
        for idx in range(start, stop):
            process(idx, records[idx])

    def _run_span_vector(self, records, start: int, stop: int) -> None:
        """Region-stepping batched loop: every configuration without a
        datapath model.

        Consumes the struct-of-arrays
        :class:`~repro.workloads.soa.EngineView` built by :meth:`run`
        and steps the trace region-at-a-time between control-flow
        events (``branch_positions``): records inside a region take a
        compact inlined demand/delivery body with precomputed cache
        keys, set indices and delivery cycles; only the
        region-terminating branch record pays the branch-handling
        machinery.  Everything slow or observable — misses, stalls,
        fills, branch events, prefetcher hooks, telemetry — delegates
        to the same helpers the generic loop uses, with ``self.cycle``
        and ``self.prefetch_clock`` synced around each delegation, so
        counters and event streams are bit-identical to
        :meth:`_run_span`.
        """
        view = self._vector_view
        lines = view.lines
        keys = view.keys
        set_idx = view.set_idx
        n_instr_v = view.n_instr
        delivery_v = view.delivery
        kinds = view.kinds
        taken_v = view.taken
        bpos = view.branch_positions

        stats = self.stats
        cfg = self.config
        perfect = cfg.perfect_l1i
        l1i = self.l1i
        sets = l1i._sets
        mshr = self.mshr
        mshr_entries = mshr._entries
        log = self.event_log
        handle_branch = self._handle_branch
        demand_core = self._demand_access_core
        prefetcher = self.prefetcher
        on_demand = prefetcher.on_demand if prefetcher is not None else None
        on_retire = (prefetcher.on_branch_retire
                     if prefetcher is not None else None)
        if prefetcher is not None and getattr(
                prefetcher, "branch_retire_noop", False):
            # The prefetcher declared its retire hook a no-op (e.g.
            # fixed-length proactive modes): skip the per-branch call.
            on_retire = None
        on_fill_hook = prefetcher.on_fill if prefetcher is not None else None
        on_evict_hook = prefetcher.on_evict if prefetcher is not None else None
        on_pf_hit = (prefetcher.on_prefetch_hit
                     if prefetcher is not None else None)
        hit_outcome = HIT
        call_k = 3       # BranchKind.CALL
        return_k = 4     # BranchKind.RETURN
        indirect_k = 5   # BranchKind.INDIRECT
        cond_k = 1       # BranchKind.COND
        # Inline-able fast legs.  Fills: the l1i (or L1i prefetch
        # buffer) insert + hooks of _apply_fill can be replayed locally
        # when nothing observes them (no event log / component counters)
        # and the l1i is the plain cache whose set_capacity is constant.
        fill_fast = (log is None and self.component_counters is None
                     and type(l1i) is SetAssociativeCache)
        l1i_nsets = l1i.n_sets
        l1i_assoc = l1i.assoc
        l1i_bs = l1i.block_size
        # Full demand misses (line absent from L1i, L1i prefetch buffer
        # and MSHR) inline the llc access + latency request + stall +
        # fill sequence when the LLC is the plain variant and fills are
        # inline-able; wrong-path in-flight demands still delegate.
        llc = self.llc
        miss_fast = fill_fast and type(llc) is LastLevelCache
        # The L1i prefetch buffer's legs (Shotgun, nl_buf..n8l_buf):
        # prefetch fills go to the FIFO, and a demand that misses the
        # L1i takes its block from the FIFO before the MSHR probe.
        l1pb = self.l1_prefetch_buffer
        buf_fast = miss_fast and l1pb is not None
        if l1pb is not None:
            pb_entries = l1pb._entries
            pb_cap = l1pb.n_entries
        pb_h = pb_m = 0
        # Frame-free CacheLine construction for the inline fill/llc legs.
        cl_new = CacheLine.__new__
        llc_sets = llc._sets
        llc_nsets = llc.n_sets
        llc_assoc = llc.assoc
        llc_bs = llc.block_size
        lat_model = self.latency
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
        miss_outcome = MISS
        late_outcome = LATE
        # Branches: the COND leg of _handle_branch (by far the hottest
        # kind) inlines when there is no event log; other kinds and the
        # logged case delegate.
        predictor_update = self.predictor.update
        wrong_path = self._wrong_path_touch
        stall = self._stall
        mispred_pen = cfg.mispredict_penalty
        cond_fast = log is None
        # Predictor internals for the inlined COND leg.  The hybrid's
        # 2-bit tables mutate in place and the global history stores
        # back eagerly (prefetcher hooks may call predictor.predict
        # mid-span); only the additive prediction/BTB counters batch
        # in locals.  TAGE configurations keep the method call.
        pred = self.predictor
        pred_fast = cond_fast and type(pred) is DirectionPredictor
        if pred_fast:
            bim_c = pred.bimodal._counters
            gsh_c = pred.gshare._counters
            cho_c = pred.chooser._counters
            pred_mask = pred.bimodal._mask
            hist_mask = pred._hist_mask
        btb = self.btb
        btb_fast = type(btb) is ConventionalBtb
        if btb_fast:
            btb_sets = btb._sets
            btb_nsets = btb.n_sets
        else:
            # Split (Shotgun) or AirBTB organisations: _btb_check with
            # the structure's own lookup.
            btb_lookup = btb.lookup
        perfect_btb = cfg.perfect_btb
        btb_miss_slow = self._btb_miss
        ras = self.ras
        ras_stack = ras._stack
        ras_depth = ras.depth
        no_addr = NO_ADDR
        jump_k = 2       # BranchKind.JUMP
        p_preds = p_mis = btb_h = btb_m = 0
        INF = float("inf")
        # Hot statistics accumulate in locals and flush once at span end:
        # nothing reads them mid-span, and every delegated helper only
        # adds to them, so the final totals are identical.
        d_acc = d_lkp = d_hit = d_ins = d_del = d_br = 0

        cycle = self.cycle
        rec_start = self.prefetch_clock
        bi = bisect_left(bpos, start)
        nb = len(bpos)
        idx = start
        while idx < stop:
            if bi < nb and bpos[bi] < stop:
                region_end = bpos[bi]
                has_branch = True
            else:
                region_end = stop
                has_branch = False

            while True:
                at_branch = idx >= region_end
                if at_branch and not has_branch:
                    break
                # -- one record: drain, demand, delivery ---------------
                self._demand_index = idx
                if mshr_entries and cycle >= mshr._next_ready:
                    self.cycle = cycle
                    if fill_fast:
                        # _drain_fills + _apply_fill inlined: same pop
                        # order, insert semantics, victim accounting and
                        # hook sequence (fill_latency -> evict -> fill).
                        ready = [e for e in mshr_entries.values()
                                 if e.ready_cycle <= cycle]
                        for e in ready:
                            del mshr_entries[e.line]
                        mshr._next_ready = min(
                            (e.ready_cycle for e in mshr_entries.values()),
                            default=INF)
                        for e in ready:
                            fline = e.line
                            if l1pb is not None and e.is_prefetch:
                                # _apply_fill's buffer leg: a prefetch
                                # fills the FIFO (L1PrefetchBuffer.fill);
                                # the overflow victim was useless.
                                if fline in pb_entries:
                                    pb_entries.move_to_end(fline)
                                elif len(pb_entries) >= pb_cap:
                                    pb_entries.popitem(last=False)
                                    stats.prefetches_useless += 1
                                pb_entries[fline] = (e.ready_cycle
                                                     - e.issue_cycle)
                                if on_fill_hook is not None:
                                    self.prefetch_clock = cycle
                                    on_fill_hook(fline, True, cycle)
                                continue
                            fkey = fline // l1i_bs
                            fcset = sets[fkey % l1i_nsets]
                            ent = fcset.get(fkey)
                            victim = None
                            if ent is not None:
                                fcset.move_to_end(fkey)
                                ent.is_prefetch = e.is_prefetch
                                ent.is_instruction = True
                            else:
                                if len(fcset) >= l1i_assoc:
                                    _k, victim = fcset.popitem(last=False)
                                ent = cl_new(CacheLine)
                                ent.addr = fline
                                ent.is_prefetch = e.is_prefetch
                                ent.local_status = 0
                                ent.is_instruction = True
                                fcset[fkey] = ent
                            ent.fill_latency = e.ready_cycle - e.issue_cycle
                            if victim is not None:
                                if victim.is_prefetch:
                                    stats.prefetches_useless += 1
                                if on_evict_hook is not None:
                                    on_evict_hook(victim, cycle)
                            if on_fill_hook is not None:
                                self.prefetch_clock = cycle
                                on_fill_hook(fline, e.is_prefetch, cycle)
                    else:
                        self._drain_fills()
                    cycle = self.cycle
                rec_start = cycle
                record = records[idx]
                d_acc += 1
                d_lkp += 1
                if perfect:
                    d_hit += 1
                    if log is not None:
                        log.emit(cycle, "demand_hit", lines[idx], "perfect")
                    outcome = hit_outcome
                else:
                    key = keys[idx]
                    cset = sets[set_idx[idx]]
                    entry = cset.get(key)
                    if entry is not None and not entry.is_prefetch:
                        # Trivial hit: LRU touch + counters, no hooks.
                        cset.move_to_end(key)
                        d_hit += 1
                        if log is not None:
                            log.emit(cycle, "demand_hit", lines[idx])
                        outcome = hit_outcome
                    elif entry is not None and fill_fast:
                        # Demand hit on a resident prefetch: credit the
                        # prefetch and clear its flag (demand_core's
                        # resident leg, inlined).
                        cset.move_to_end(key)
                        d_hit += 1
                        stats.prefetches_useful += 1
                        plat = entry.fill_latency
                        stats.covered_latency += plat
                        stats.prefetched_latency += plat
                        entry.is_prefetch = False
                        if on_pf_hit is not None:
                            # The hook may issue prefetches, which read
                            # the live clocks (e.g. tagged next-line).
                            self.cycle = cycle
                            self.prefetch_clock = cycle
                            on_pf_hit(lines[idx], cycle)
                        outcome = hit_outcome
                    elif (buf_fast and entry is None
                          and lines[idx] in pb_entries):
                        # Demand hit in the L1i prefetch buffer
                        # (demand_core's buffer leg): take the block,
                        # credit the prefetch and insert it into the
                        # L1i, dropping the L1i victim.
                        plat = pb_entries.pop(lines[idx])
                        pb_h += 1
                        d_hit += 1
                        stats.prefetches_useful += 1
                        stats.covered_latency += plat
                        stats.prefetched_latency += plat
                        if len(cset) >= l1i_assoc:
                            cset.popitem(last=False)
                        ent = cl_new(CacheLine)
                        ent.addr = lines[idx]
                        ent.is_prefetch = False
                        ent.local_status = 0
                        ent.is_instruction = True
                        ent.fill_latency = 0
                        cset[key] = ent
                        outcome = hit_outcome
                    elif miss_fast and entry is None:
                        line = lines[idx]
                        inflight = mshr_entries.get(line)
                        if l1pb is not None and (inflight is None
                                                 or inflight.is_prefetch):
                            # The buffer's take() missed (the delegated
                            # wrong-path leg below takes for itself).
                            pb_m += 1
                        if inflight is None:
                            # Full demand miss: _demand_access_core's
                            # last leg (llc access, latency request,
                            # stall, fill) inlined in its exact order.
                            stats.demand_misses += 1
                            if record.seq:
                                stats.seq_misses += 1
                            else:
                                stats.disc_misses += 1
                            # llc.access, inlined (plain LLC only).
                            lkey = line // llc_bs
                            lset = llc_sets[lkey % llc_nsets]
                            if lkey in lset:
                                lset.move_to_end(lkey)
                                llc.instruction_hits += 1
                                base = lat_llc_rt
                            else:
                                llc.instruction_misses += 1
                                if len(lset) >= llc_assoc:
                                    lset.popitem(last=False)
                                nl = cl_new(CacheLine)
                                nl.addr = lkey * llc_bs
                                nl.is_prefetch = False
                                nl.local_status = 0
                                nl.is_instruction = True
                                nl.fill_latency = 0
                                lset[lkey] = nl
                                base = lat_mem_rt
                            # latency.request at the pre-stall cycle.
                            ct_times.append(cycle)
                            contention.total_requests += 1
                            horizon = cycle - ct_window
                            while ct_times and ct_times[0] <= horizon:
                                ct_popleft()
                            load = (len(ct_times) / ct_window) / ct_sat
                            if load > 1.0:
                                load = 1.0
                            lat = int(round(
                                base * (1.0 + ct_gain * load ** ct_expo))) \
                                + lat_overhead
                            lat_model.llc_latency_sum += lat
                            lat_model.llc_latency_count += 1
                            # _stall(lat, "icache_stall_cycles").
                            stats.icache_stall_cycles += lat
                            rbu = self.runahead_blocked_until
                            if cycle < rbu:
                                gap = rbu - cycle
                                stats.empty_ftq_stall_cycles += (
                                    lat if lat < gap else gap)
                            cycle += lat
                            fill_lat = lat
                            outcome = miss_outcome
                        elif inflight.is_prefetch:
                            # Late prefetch catches the demand: covered
                            # fraction credited, remainder stalled
                            # (demand_core's in-flight-prefetch leg).
                            remaining = inflight.ready_cycle - cycle
                            if remaining < 0:
                                remaining = 0
                            stats.demand_late_prefetch += 1
                            if record.seq:
                                stats.seq_misses += 1
                            else:
                                stats.disc_misses += 1
                            stats.prefetches_useful += 1
                            fill_lat = (inflight.ready_cycle
                                        - inflight.issue_cycle)
                            stats.covered_latency += fill_lat - remaining
                            stats.prefetched_latency += fill_lat
                            # mshr.remove: _next_ready may go stale low,
                            # which pop_ready tolerates.
                            del mshr_entries[line]
                            if remaining > 0:
                                stats.icache_stall_cycles += remaining
                                rbu = self.runahead_blocked_until
                                if cycle < rbu:
                                    gap = rbu - cycle
                                    stats.empty_ftq_stall_cycles += (
                                        remaining if remaining < gap
                                        else gap)
                                cycle += remaining
                            outcome = late_outcome
                        else:
                            # Wrong-path demand fetch in flight: rare,
                            # delegate.
                            self.cycle = cycle
                            self.prefetch_clock = rec_start
                            outcome = demand_core(record)
                            cycle = self.cycle
                            fill_lat = None
                        if fill_lat is not None:
                            # _apply_fill(line, False, fill_lat): the
                            # line is known absent, so a fresh insert.
                            victim = None
                            if len(cset) >= l1i_assoc:
                                _k, victim = cset.popitem(last=False)
                            ent = cl_new(CacheLine)
                            ent.addr = line
                            ent.is_prefetch = False
                            ent.local_status = 0
                            ent.is_instruction = True
                            cset[key] = ent
                            ent.fill_latency = fill_lat
                            if victim is not None:
                                if victim.is_prefetch:
                                    stats.prefetches_useless += 1
                                if on_evict_hook is not None:
                                    self.cycle = cycle
                                    on_evict_hook(victim, cycle)
                            if on_fill_hook is not None:
                                self.cycle = cycle
                                self.prefetch_clock = cycle
                                on_fill_hook(line, False, cycle)
                            if outcome is late_outcome \
                                    and on_pf_hit is not None:
                                self.cycle = cycle
                                on_pf_hit(line, cycle)
                    else:
                        self.cycle = cycle
                        self.prefetch_clock = rec_start
                        outcome = demand_core(record)
                        cycle = self.cycle
                d_ins += n_instr_v[idx]
                delivery = delivery_v[idx]
                d_del += delivery
                cycle += delivery

                if at_branch:
                    # -- the region-terminating control-flow event -----
                    kind = kinds[idx]
                    if taken_v[idx]:
                        if kind == call_k or kind == indirect_k:
                            if self._call_depth < 64:
                                self._call_depth += 1
                        elif kind == return_k:
                            if self._call_depth > 0:
                                self._call_depth -= 1
                    self.cycle = cycle
                    if cond_fast and kind == cond_k:
                        # _handle_branch's COND leg, inlined (no event
                        # log): update predictor, charge misprediction,
                        # BTB-check taken branches.
                        d_br += 1
                        bpc = record.branch_pc
                        taken = record.taken
                        if pred_fast:
                            # DirectionPredictor.update, inlined: same
                            # reads-before-writes on three distinct
                            # tables, same counter saturation.
                            k_bim = bpc >> 2
                            hist = pred._history
                            i_bim = k_bim & pred_mask
                            i_gs = (k_bim ^ hist) & pred_mask
                            c_bim = bim_c[i_bim]
                            c_gs = gsh_c[i_gs]
                            p_bim = c_bim >= 2
                            p_gs = c_gs >= 2
                            predicted = p_gs if cho_c[i_bim] >= 2 else p_bim
                            correct = predicted == taken
                            p_preds += 1
                            if not correct:
                                p_mis += 1
                            if p_bim != p_gs:
                                cc = cho_c[i_bim]
                                if p_gs == taken:
                                    if cc < 3:
                                        cho_c[i_bim] = cc + 1
                                elif cc > 0:
                                    cho_c[i_bim] = cc - 1
                            if taken:
                                if c_bim < 3:
                                    bim_c[i_bim] = c_bim + 1
                                if c_gs < 3:
                                    gsh_c[i_gs] = c_gs + 1
                            else:
                                if c_bim > 0:
                                    bim_c[i_bim] = c_bim - 1
                                if c_gs > 0:
                                    gsh_c[i_gs] = c_gs - 1
                            pred._history = ((hist << 1)
                                             | (1 if taken else 0)) \
                                & hist_mask
                        else:
                            correct = predictor_update(bpc, taken)
                        if not correct:
                            stats.mispredicts += 1
                            stall(mispred_pen, "mispredict_stall_cycles")
                            wrong_path(record)
                        if taken and not perfect_btb:
                            if btb_fast:
                                # _btb_check + btb.lookup, inlined.
                                bset = btb_sets[(bpc >> 2) % btb_nsets]
                                e = bset.get(bpc)
                                if e is None:
                                    btb_m += 1
                                    btb_miss_slow(record)
                                else:
                                    bset.move_to_end(bpc)
                                    btb_h += 1
                                    if e.target != record.branch_target:
                                        e.target = record.branch_target
                            else:
                                e = btb_lookup(bpc)
                                if e is None:
                                    btb_miss_slow(record)
                                elif e.target != record.branch_target:
                                    e.target = record.branch_target
                    elif cond_fast and (kind == jump_k or kind == call_k):
                        # _handle_branch's JUMP/CALL leg, inlined:
                        # BTB-check when taken; calls push the RAS.
                        d_br += 1
                        if record.taken:
                            bpc = record.branch_pc
                            if not perfect_btb:
                                if btb_fast:
                                    bset = btb_sets[(bpc >> 2) % btb_nsets]
                                    e = bset.get(bpc)
                                    if e is None:
                                        btb_m += 1
                                        btb_miss_slow(record)
                                    else:
                                        bset.move_to_end(bpc)
                                        btb_h += 1
                                        if e.target != record.branch_target:
                                            e.target = record.branch_target
                                else:
                                    e = btb_lookup(bpc)
                                    if e is None:
                                        btb_miss_slow(record)
                                    elif e.target != record.branch_target:
                                        e.target = record.branch_target
                            if kind == call_k:
                                # ras.push, inlined.
                                if len(ras_stack) >= ras_depth:
                                    ras_stack.pop(0)
                                    ras.overflows += 1
                                ras_stack.append(bpc + record.branch_size)
                    elif cond_fast and kind == return_k:
                        # _handle_branch's RETURN leg, inlined: pop the
                        # RAS and compare against the actual target.
                        d_br += 1
                        if ras_stack:
                            predicted = ras_stack.pop()
                        else:
                            ras.underflows += 1
                            predicted = None
                        tgt = record.branch_target
                        if predicted != tgt and tgt != no_addr:
                            stats.mispredicts += 1
                            if not perfect_btb:
                                stall(mispred_pen,
                                      "mispredict_stall_cycles")
                    else:
                        handle_branch(record)
                    cycle = self.cycle
                    if on_demand is not None:
                        self.prefetch_clock = rec_start
                        on_demand(idx, record, outcome, rec_start)
                        cycle = self.cycle
                        if on_retire is not None:
                            self.prefetch_clock = cycle
                            on_retire(record, cycle)
                            cycle = self.cycle
                    idx += 1
                    bi += 1
                    break
                if on_demand is not None:
                    self.cycle = cycle
                    self.prefetch_clock = rec_start
                    on_demand(idx, record, outcome, rec_start)
                    cycle = self.cycle
                idx += 1

        stats.demand_accesses += d_acc
        stats.cache_lookups += d_lkp
        stats.demand_hits += d_hit
        stats.instructions += d_ins
        stats.delivery_cycles += d_del
        stats.branches += d_br
        if p_preds:
            pred.predictions += p_preds
            pred.mispredictions += p_mis
        if btb_h:
            btb.hits += btb_h
        if btb_m:
            btb.misses += btb_m
        if pb_h or pb_m:
            l1pb.hits += pb_h
            l1pb.misses += pb_m
        self.cycle = cycle
        if prefetcher is None:
            self.prefetch_clock = rec_start


def simulate(trace: Trace, config: Optional[FrontendConfig] = None,
             prefetcher=None, program: Optional[Program] = None,
             warmup: int = 0) -> FrontendStats:
    """Convenience one-shot simulation."""
    return FrontendSimulator(trace, config=config, prefetcher=prefetcher,
                             program=program).run(warmup=warmup)
