"""Prefetcher interface.

A prefetcher observes the demand stream through callbacks and issues
requests through the simulator's :meth:`issue_prefetch` /
:meth:`lookup_cache` services.  Schemes that own extra frontend
structures (BTB prefetch buffer, L1i prefetch buffer) install them on the
simulator in :meth:`attach`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..frontend.engine import FrontendSimulator
    from ..memory.cache import CacheLine
    from ..workloads.trace import FetchRecord

#: Hooks a scheme may bind to its simulator at attach, as instance
#: attributes over the methods of the same name.
_BOUND_HOOKS = ("on_demand", "on_fill", "on_evict", "on_prefetch_hit",
                "on_branch_retire")


class Prefetcher:
    """Base class: a no-op prefetcher."""

    name = "none"

    def __init__(self) -> None:
        self.sim: "FrontendSimulator" = None  # set by attach()
        #: Scoped telemetry emitter (set by attach); events carry this
        #: prefetcher's name as their source.  No-op while no event log
        #: is attached to the simulator.
        self.telemetry = None

    def attach(self, sim: "FrontendSimulator") -> None:
        """Bind to a simulator.  Override to install buffers; call super."""
        self.sim = sim
        self.telemetry = sim.emitter(self.name)

    def detach(self) -> None:
        """Unbind from the simulator (:meth:`FrontendSimulator.close`):
        drop it, the telemetry emitter and every hook bound to it at
        attach, which shadow the methods below on the instance.  The
        scheme's tables and counters stay as they are."""
        self.sim = None
        self.telemetry = None
        for hook in _BOUND_HOOKS:
            self.__dict__.pop(hook, None)

    # -- event hooks -----------------------------------------------------

    def on_demand(self, index: int, record: "FetchRecord", outcome: str,
                  cycle: int) -> None:
        """Called for every demand access, after it completed.

        ``outcome`` is ``"hit"``, ``"miss"`` or ``"late"`` (demand caught
        an in-flight prefetch).  ``index`` is the trace position, which
        BTB-directed schemes use to track their runahead distance.
        """

    def on_fill(self, line_addr: int, was_prefetch: bool, cycle: int) -> None:
        """A block arrived in the L1i."""

    def on_evict(self, line: "CacheLine", cycle: int) -> None:
        """A block left the L1i (metadata still readable on ``line``)."""

    def on_prefetch_hit(self, line_addr: int, cycle: int) -> None:
        """The core demanded a block that a prefetch brought (or is
        bringing) in — the 'useful prefetch' training event."""

    def on_branch_retire(self, record: "FetchRecord", cycle: int) -> None:
        """The terminator branch of ``record`` retired."""

    # -- bookkeeping -------------------------------------------------------

    def storage_bytes(self) -> int:
        """Extra per-core storage this scheme adds (Table II)."""
        return 0
