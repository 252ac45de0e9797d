"""Shared machinery of BTB-directed (fetch-directed) prefetchers.

Boomerang and Shotgun drive prefetching from a *runahead* of the branch
prediction unit: basic blocks are discovered ahead of the fetch stream via
the BTB and pushed into the FTQ, and their cache blocks are prefetched.
Two things gate the runahead, and both are modelled here:

* **BTB misses** — the runahead cannot proceed past a branch it does not
  know; it must fetch the enclosing block, pre-decode it, fill the BTB and
  only then continue.  While the runahead is blocked the FTQ drains, so
  demand stalls during this window are attributed to *empty FTQ*
  (Table I) via ``sim.runahead_blocked_until``.
* **Branch mispredictions** — the runahead follows the predicted path; on
  a (deterministic pseudo-random) misprediction it is squashed and only
  resumes once the demand stream catches up with the divergence point.

The runahead follows the recorded future path of the trace, which models
a branch predictor that is correct except for the sampled mispredictions —
the standard trace-driven approximation for fetch-directed prefetching.
"""

from __future__ import annotations

from typing import Optional

from ..isa import block_base
from .base import Prefetcher

#: Knuth multiplicative hash for deterministic "random" mispredictions.
_HASH_MULT = 2654435761


def pseudo_random(pc: int, salt: int) -> float:
    """Deterministic value in [0, 1) derived from a branch instance."""
    h = (pc * _HASH_MULT + salt * 40503) & 0xFFFFFFFF
    return ((h >> 8) & 0xFFFF) / 65536.0


class RunaheadPrefetcher(Prefetcher):
    """Base class: window management, blocking, and resync."""

    def __init__(self, window: int = 32, mispredict_rate: float = 0.04,
                 predecode_latency: int = 3, advance_per_access: int = 3):
        super().__init__()
        if window <= 0:
            raise ValueError("FTQ window must be positive")
        if advance_per_access <= 0:
            raise ValueError("runahead must be able to advance")
        self.window = window
        self.mispredict_rate = mispredict_rate
        self.predecode_latency = predecode_latency
        #: BPU bandwidth: basic blocks discovered per demand access.  The
        #: branch prediction unit produces about one basic block per
        #: cycle while fetch consumes one per ~2.5 cycles, so the lead
        #: over the demand stream builds a few blocks at a time — and is
        #: lost wholesale on every squash or BTB-miss stall.
        self.advance_per_access = advance_per_access
        self._ra_idx = 0
        self._blocked_until = 0
        self._resync_idx: Optional[int] = None
        self.runahead_btb_misses = 0
        self.runahead_resyncs = 0

    def attach(self, sim) -> None:
        super().attach(sim)
        self.on_demand = self._bind_driver(*self._bind_hooks())

    # -- scheme hooks -------------------------------------------------------

    def process_runahead(self, index: int, record) -> bool:
        """Handle one runahead record; return False to stop advancing
        (blocked or resynced)."""
        raise NotImplementedError

    def _bind_hooks(self):
        """``(step, observe)``, bound once at attach: the per-record
        runahead step (:meth:`process_runahead` unless a scheme binds its
        own) and an optional observer each demand block is fed to before
        the runahead advances."""
        return self.process_runahead, None

    # -- shared helpers -------------------------------------------------------

    def block_on_fill(self, addr: int, cycle: int) -> None:
        """Reactive prefill: stall the runahead until the block holding
        ``addr`` is available and pre-decoded."""
        self.runahead_btb_misses += 1
        line = block_base(addr)
        sim = self.sim
        if sim.l1i.contains(line) or (
                sim.l1_prefetch_buffer is not None
                and sim.l1_prefetch_buffer.contains(line)):
            ready = cycle
        else:
            inflight = sim.mshr.get(line)
            if inflight is None:
                sim.issue_prefetch(line)
                inflight = sim.mshr.get(line)
            ready = inflight.ready_cycle if inflight is not None else cycle
        self._blocked_until = max(self._blocked_until,
                                  ready + self.predecode_latency)
        sim.runahead_blocked_until = max(sim.runahead_blocked_until,
                                         self._blocked_until)

    def sample_mispredict(self, record, index: int) -> bool:
        """Would the core's direction predictor send the runahead down the
        wrong path at this branch?

        The runahead shares the demand predictor's state (that is the
        decoupled-frontend design); its accuracy on this branch *is* the
        probability the runahead survives it.  ``mispredict_rate`` adds a
        floor for divergence sources the model folds together (predictor
        state drift between runahead and demand time, wrong-path damage).
        """
        if self.sim.predictor.predict(record.branch_pc) != record.taken:
            return True
        return pseudo_random(record.branch_pc, index) < self.mispredict_rate

    def resync(self, index: int) -> None:
        """Runahead squashed: resume when demand reaches this point."""
        self.runahead_resyncs += 1
        self._resync_idx = index

    # -- driver ----------------------------------------------------------------

    def _bind_driver(self, step, observe):
        """The ``on_demand`` hook, bound to the simulator's trace and the
        scheme's hooks.  The runahead position is kept in a local and
        stored once per call: no step reads ``_ra_idx``."""
        pf = self
        sim = self.sim
        trace = sim.trace
        records = getattr(trace, "records", trace)
        n_records = len(trace)
        window = self.window
        advance = self.advance_per_access

        def on_demand(index, record, outcome, cycle) -> None:
            if observe is not None:
                observe(record.line)
            ra = pf._ra_idx
            if ra <= index:
                ra = pf._ra_idx = index + 1
            if pf._resync_idx is not None:
                if index < pf._resync_idx:
                    return
                pf._resync_idx = None
            blocked = pf._blocked_until
            if cycle < blocked:
                if sim.runahead_blocked_until < blocked:
                    sim.runahead_blocked_until = blocked
                return
            horizon = ra + advance
            if horizon > index + window:
                horizon = index + window
            if horizon > n_records:
                horizon = n_records
            while ra < horizon:
                record = records[ra]
                if record.ctx_switch and ra > index:
                    # An asynchronous request switch: no branch predictor
                    # can see past it.  Hold here until demand catches up.
                    break
                ra += 1
                if not step(ra - 1, record):
                    break
            pf._ra_idx = ra

        return on_demand
