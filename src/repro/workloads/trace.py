"""Dynamic fetch-trace records.

The frontend simulator is trace-driven at *cache-line visit* granularity:
one record per contiguous run of instructions a basic-block visit executes
inside one cache line.  This is the natural granularity for instruction
prefetching — every L1i access, miss classification (sequential vs
discontinuity) and BTB event is expressible on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..isa import CACHE_BLOCK_SIZE, BranchKind
from .soa import EngineView, engine_view

NO_ADDR = -1


class FetchRecord:
    """One visit to (part of) a cache line by the fetch stream.

    ``branch_kind`` is ``BranchKind.NOT_BRANCH`` unless this span ends with
    the basic block's terminator.  ``taken`` tells whether that terminator
    actually transferred control in this dynamic instance; ``branch_target``
    is the dynamic target pc when taken (calls: callee entry, returns: the
    return site, conditionals: the encoded target).
    """

    __slots__ = ("line", "first_pc", "n_instr", "seq",
                 "branch_pc", "branch_kind", "branch_target", "branch_size",
                 "taken", "ctx_switch")

    def __init__(self, line: int, first_pc: int, n_instr: int, seq: bool,
                 branch_pc: int = NO_ADDR,
                 branch_kind: BranchKind = BranchKind.NOT_BRANCH,
                 branch_target: int = NO_ADDR, branch_size: int = 0,
                 taken: bool = False, ctx_switch: bool = False):
        self.line = line
        self.first_pc = first_pc
        self.n_instr = n_instr
        self.seq = seq
        self.branch_pc = branch_pc
        self.branch_kind = branch_kind
        self.branch_target = branch_target
        self.branch_size = branch_size
        self.taken = taken
        #: First record after a request context switch: an asynchronous
        #: control transfer no branch-prediction-directed runahead can
        #: anticipate.
        self.ctx_switch = ctx_switch

    @property
    def has_branch(self) -> bool:
        return self.branch_kind is not BranchKind.NOT_BRANCH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        b = (f" {self.branch_kind.name}@{self.branch_pc:#x}"
             f"->{self.branch_target:#x} taken={self.taken}"
             if self.has_branch else "")
        return (f"FetchRecord(line={self.line:#x}, pc={self.first_pc:#x}, "
                f"n={self.n_instr}, seq={self.seq}{b})")


class Trace:
    """A finished fetch trace plus cheap aggregate statistics.

    Its records are not mutated once the trace is built, so the engine's
    struct-of-arrays view of them is derived once per cache geometry and
    fetch width (:meth:`engine_view`) and shared by every simulation of
    the trace.
    """

    def __init__(self, records: List[FetchRecord], name: str = ""):
        self.records = records
        self.name = name
        self._views: Dict[Tuple[int, int, int], EngineView] = {}

    def engine_view(self, block_size: int, n_sets: int,
                    width: int) -> EngineView:
        """The memoised :func:`~repro.workloads.soa.engine_view` of the
        records for one geometry and fetch width."""
        key = (block_size, n_sets, width)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = engine_view(self.records, *key)
        return view

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    @property
    def n_instructions(self) -> int:
        return sum(r.n_instr for r in self.records)

    @property
    def n_branches(self) -> int:
        return sum(1 for r in self.records if r.has_branch)

    def unique_lines(self) -> int:
        return len({r.line for r in self.records})

    def footprint_bytes(self) -> int:
        return self.unique_lines() * CACHE_BLOCK_SIZE


def mark_sequential(records: Iterable[FetchRecord]) -> None:
    """Recompute each record's ``seq`` flag from the line sequence."""
    prev: Optional[int] = None
    for r in records:
        r.seq = prev is not None and r.line == prev + CACHE_BLOCK_SIZE
        prev = r.line
