"""Struct-of-arrays (SoA) views of fetch traces for the vectorized engine.

The generic engine loop walks a list of :class:`FetchRecord` objects and
pays an attribute lookup for every field it touches, every record, every
run.  The vectorized engine core instead consumes an
:class:`EngineView`: parallel lists of the per-record fields, plus
derived per-run lists (cache-set indices, delivery cycles, branch
positions) computed once for the whole trace.
"""

from __future__ import annotations

from typing import List, Sequence


class EngineView:
    """Per-run arrays the vectorized engine span loop indexes.

    All fields are plain python lists of plain python ints/bools — list
    indexing beats attribute access on ``__slots__`` records inside a
    hot python loop.
    """

    __slots__ = ("lines", "keys", "set_idx", "n_instr", "delivery",
                 "kinds", "taken", "branch_positions")

    def __init__(self, lines: List[int], keys: List[int],
                 set_idx: List[int], n_instr: List[int],
                 delivery: List[int], kinds: List[int], taken: List[bool],
                 branch_positions: List[int]):
        self.lines = lines
        self.keys = keys
        self.set_idx = set_idx
        self.n_instr = n_instr
        self.delivery = delivery
        self.kinds = kinds
        self.taken = taken
        #: Sorted indices of branch-terminated records; the engine steps
        #: region-at-a-time between consecutive entries.
        self.branch_positions = branch_positions


def engine_view(records: Sequence, block_size: int, n_sets: int,
                width: int) -> EngineView:
    """Snapshot ``records`` and derive the per-run arrays for one cache
    geometry and fetch width.

    The snapshot is taken eagerly: later mutation of the source records
    (e.g. ``mark_sequential``) does not leak into a view already built.
    A :class:`~repro.workloads.trace.Trace`, whose records are not
    mutated once built, memoises its views; the engine builds one per
    ``run()`` only for a bare record list.
    """
    lines = [r.line for r in records]
    n_instr = [r.n_instr for r in records]
    kinds = [int(r.branch_kind) for r in records]
    keys = [line // block_size for line in lines]
    return EngineView(lines, keys,
                      [k % n_sets for k in keys],
                      n_instr,
                      [-(-n // width) for n in n_instr],
                      kinds,
                      [r.taken for r in records],
                      [i for i, k in enumerate(kinds) if k])
