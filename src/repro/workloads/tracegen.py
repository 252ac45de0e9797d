"""Trace generation: walk a synthetic program like a server request loop.

The walker repeatedly picks a request-handler function (Zipf-popular),
executes it to completion with a call stack, and emits one
:class:`~repro.workloads.trace.FetchRecord` per cache-line span the fetch
stream touches.  Branch outcomes are sampled from the per-edge
probabilities fixed at CFG-generation time, which is what makes block
successor patterns *stable* — the property SN4L's predictor (Fig. 6) and
Dis's single-dominant-branch observation (Fig. 7) rely on.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .._gcpause import gc_paused
from ..cfg import BasicBlock, ControlFlowGraph, Program, generate_cfg, layout_program
from ..isa import BranchKind
from .profiles import WorkloadProfile, get_profile
from .trace import NO_ADDR, FetchRecord, Trace

if TYPE_CHECKING:
    import numpy as np


class TraceGenerator:
    """Builds the program for a profile and walks it into traces."""

    def __init__(self, profile: WorkloadProfile, scale: float = 1.0,
                 variable_length: bool = False):
        import numpy as np
        self.profile = profile.scaled(scale) if scale != 1.0 else profile
        self.cfg: ControlFlowGraph = generate_cfg(self.profile.cfg,
                                                  seed=self.profile.seed)
        self.program: Program = layout_program(self.cfg,
                                               variable_length=variable_length,
                                               seed=self.profile.seed)
        walk = self.profile.walk
        n_handlers = min(walk.n_handlers, len(self.cfg.functions))
        ranks = np.arange(1, n_handlers + 1, dtype=float)
        weights = ranks ** (-walk.zipf_s)
        self._handler_weights = weights / weights.sum()
        self._handlers = list(range(n_handlers))
        # Fallthrough-block cache: bid -> next BasicBlock (or None).
        self._fallthrough: Dict[int, Optional[BasicBlock]] = {}

    def _fall(self, blk: BasicBlock) -> Optional[BasicBlock]:
        nxt = self._fallthrough.get(blk.bid, _MISSING)
        if nxt is _MISSING:
            nxt = self.cfg.fallthrough_of(blk)
            self._fallthrough[blk.bid] = nxt
        return nxt

    def _pick_handler(self, rng: np.random.Generator,
                      phase: int = 0) -> BasicBlock:
        handlers = self._handlers
        if phase:
            # Rotate the popularity ranking (as ``np.roll`` by ``phase``):
            # yesterday's hot handlers cool down, colder ones heat up.
            shift = phase % len(handlers)
            handlers = handlers[-shift:] + handlers[:-shift]
        fid = int(rng.choice(handlers, p=self._handler_weights))
        return self.cfg.function(fid).entry

    def _resolve(self, blk: BasicBlock, stack: List[BasicBlock],
                 rng: np.random.Generator, budget_spent: bool = False
                 ) -> Tuple[bool, int, Optional[BasicBlock]]:
        """Dynamic outcome of a block's terminator.

        Returns ``(taken, dynamic_target_pc, next_block)``; ``next_block``
        is ``None`` when the request ended (handler returned with an empty
        stack) — the caller then starts a new request.
        """
        term = blk.terminator
        max_depth = self.profile.walk.max_call_depth
        if term is None:
            nxt = self._fall(blk)
            assert nxt is not None, "CFG validation guarantees a fallthrough"
            return False, NO_ADDR, nxt

        kind = term.kind
        if kind is BranchKind.COND:
            taken = bool(rng.random() < term.taken_prob)
            target = self.cfg.block(term.taken_succ)
            if taken:
                return True, target.addr, target
            nxt = self._fall(blk)
            assert nxt is not None
            # Static target is reported even when not taken so the
            # frontend can model wrong-path fetch after a misprediction.
            return False, target.addr, nxt

        if kind is BranchKind.JUMP:
            target = self.cfg.block(term.taken_succ)
            return True, target.addr, target

        if kind in (BranchKind.CALL, BranchKind.INDIRECT):
            if kind is BranchKind.CALL:
                callee_fid = term.callee
            else:
                # Imported on this branch: under 1% of records end in
                # an indirect call, too few to pay for a per-program
                # table of these distributions.
                import numpy as np
                fids = [c for c, _ in term.indirect_callees]
                probs = np.array([p for _, p in term.indirect_callees])
                probs = probs / probs.sum()
                callee_fid = int(rng.choice(fids, p=probs))
            ret_to = self._fall(blk)
            assert ret_to is not None, "calls always have a return site"
            if len(stack) >= max_depth or budget_spent:
                # Depth/budget guard: skip the call, fall through.
                return False, NO_ADDR, ret_to
            stack.append(ret_to)
            entry = self.cfg.function(callee_fid).entry
            return True, entry.addr, entry

        assert kind is BranchKind.RETURN
        if stack:
            ret_to = stack.pop()
            return True, ret_to.addr, ret_to
        return True, NO_ADDR, None  # request finished

    def start_walk(self, sample: int = 0) -> "Walk":
        """A walk of this program from its start, for :meth:`generate`
        to extend: sample ``sample`` is one seeded dynamic stream."""
        import numpy as np
        params = self.profile.walk
        rng = np.random.default_rng(self.profile.seed * 7919 + 13 * sample + 1)
        contexts = [_RequestContext(self._pick_handler(rng))
                    for _ in range(max(1, params.n_contexts))]
        switch_p = 1.0 / max(1, params.switch_mean_records)
        return Walk(sample, rng, contexts, int(rng.geometric(switch_p)))

    @gc_paused()
    def generate(self, n_records: int, sample: int = 0,
                 walk: Optional["Walk"] = None) -> Trace:
        """Walk the program until ``n_records`` fetch records are emitted.

        ``n_contexts`` concurrent requests are interleaved, switching
        after a geometric number of records — the connection-multiplexed
        instruction stream a server core actually fetches.  The first
        record after a switch carries ``ctx_switch=True``.

        Every draw depends only on the records already emitted, so a
        trace is the first ``n_records`` records of every longer trace
        of the same sample.  ``walk``, from :meth:`start_walk` with the
        same ``sample``, is extended in place only as far as
        ``n_records`` needs, so its records serve every shorter length;
        without one the walk starts afresh.
        """
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        if walk is None:
            walk = self.start_walk(sample)
        elif walk.sample != sample:
            raise ValueError(f"walk of sample {walk.sample} cannot extend "
                             f"sample {sample}")
        params = self.profile.walk
        rng = walk.rng
        records = walk.records
        prev_line = walk.prev_line
        line_size = 64
        budget = params.request_max_records

        contexts = walk.contexts
        n_ctx = len(contexts)
        active = walk.active
        switch_p = 1.0 / max(1, params.switch_mean_records)
        switch_left = walk.switch_left
        pending_switch = walk.pending_switch

        while len(records) < n_records:
            ctx = contexts[active]
            blk = ctx.cur
            taken, target_pc, nxt = self._resolve(
                blk, ctx.stack, rng,
                budget_spent=ctx.request_records >= budget)
            if nxt is None:
                # Request done; the handler's return "targets" the next one.
                phase = (len(records) // params.phase_shift_records
                         if params.phase_shift_records else 0)
                ctx.cur = self._pick_handler(rng, phase=phase)
                target_pc = ctx.cur.addr
                ctx.request_records = 0
            else:
                ctx.cur = nxt
            term = blk.terminator
            branch = blk.branch
            spans = self.program.spans_of(blk.bid)
            for i, span in enumerate(spans):
                rec = FetchRecord(
                    line=span.line_base,
                    first_pc=span.first_pc,
                    n_instr=span.n_instr,
                    seq=(prev_line is not None
                         and span.line_base == prev_line + line_size),
                    ctx_switch=pending_switch and i == 0,
                )
                pending_switch = pending_switch and i != 0
                if i == len(spans) - 1 and term is not None and branch is not None:
                    rec.branch_pc = branch.pc
                    rec.branch_kind = term.kind
                    rec.branch_size = branch.size
                    rec.taken = taken
                    rec.branch_target = target_pc
                records.append(rec)
                prev_line = span.line_base
            ctx.request_records += len(spans)
            switch_left -= len(spans)
            if switch_left <= 0 and n_ctx > 1:
                nxt_active = int(rng.integers(0, n_ctx - 1))
                if nxt_active >= active:
                    nxt_active += 1
                active = nxt_active
                switch_left = int(rng.geometric(switch_p))
                pending_switch = True
        walk.prev_line = prev_line
        walk.active = active
        walk.switch_left = switch_left
        walk.pending_switch = pending_switch
        return Trace(records[:n_records], name=self.profile.name)


class Walk:
    """Where a walk of one program stands: its records so far, the RNG
    and the in-flight requests.  The walk ends on a block boundary, so
    ``records`` may run a few records past the length last asked for.
    """

    __slots__ = ("sample", "rng", "records", "contexts", "active",
                 "switch_left", "pending_switch", "prev_line")

    def __init__(self, sample: int, rng: np.random.Generator,
                 contexts: List["_RequestContext"], switch_left: int):
        self.sample = sample
        self.rng = rng
        self.records: List[FetchRecord] = []
        self.contexts = contexts
        self.active = 0
        self.switch_left = switch_left
        self.pending_switch = False
        self.prev_line: Optional[int] = None


class _RequestContext:
    """One in-flight request: its current block and call stack."""

    __slots__ = ("cur", "stack", "request_records")

    def __init__(self, entry: BasicBlock):
        self.cur = entry
        self.stack: List[BasicBlock] = []
        self.request_records = 0


_MISSING = object()

# ----------------------------------------------------------------------
# Workload cache: experiments across figures share programs and traces.

_GENERATORS: Dict[Tuple[str, float, bool], TraceGenerator] = {}
#: Held while a program builds.  One lock for every program: a build
#: holds the GIL, so two builds at once would finish no sooner.
_BUILD_LOCK = threading.Lock()

#: Per-length traces kept, least recently used first out.  A figure asks
#: for one length per program and may loop its schemes over every
#: workload, so 16 holds each workload on both ISAs and every trace
#: keeps its engine views for the whole figure.  A server asks for a new
#: length on each miss; the bound stops it keeping one more slice and
#: its views per length (the records stay in their stream).
_TRACES_MAX = 16
_TRACES: "OrderedDict[Tuple[str, float, bool, int, int], Trace]" = (
    OrderedDict())
_TRACES_LOCK = threading.Lock()


class _Stream:
    """The longest prefix of one trace stream this process holds and,
    when the process walked that prefix itself, the walk that resumes
    it.  The lock keeps two threads from extending one walk at once."""

    __slots__ = ("lock", "records", "walk")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.records: List[FetchRecord] = []
        self.walk: Optional[Walk] = None


#: ``(name, scale, variable_length, sample)`` -> its stream.
_STREAMS: Dict[Tuple[str, float, bool, int], _Stream] = {}


def _after_fork_in_child() -> None:
    """A forked child (a pool worker) has only the forking thread: a
    walk or build another thread was running, and the lock it held,
    would stay half way for good.  Finished generators and per-length
    traces are safe to inherit.  A half-done numpy import cannot be
    undone here: the pools of :mod:`repro.experiments.parallel` wait
    it out before they fork."""
    global _BUILD_LOCK, _TRACES_LOCK
    _STREAMS.clear()
    _BUILD_LOCK = threading.Lock()
    _TRACES_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def get_generator(name: str, scale: float = 1.0,
                  variable_length: bool = False) -> TraceGenerator:
    """Memoised :class:`TraceGenerator` for a named workload, built once
    per process however many threads ask for it at once."""
    key = (name, scale, variable_length)
    gen = _GENERATORS.get(key)
    if gen is not None:
        return gen
    # A build makes no cyclic garbage.  The pause ends last, so the
    # collection it held back starts after this call, not inside it.
    with gc_paused(), _BUILD_LOCK:
        gen = _GENERATORS.get(key)
        if gen is None:
            gen = _GENERATORS[key] = TraceGenerator(
                get_profile(name), scale=scale,
                variable_length=variable_length)
            # Imported lazily: repro.obs imports repro.experiments,
            # which imports this module.
            from ..obs.metrics import inc
            inc("repro_program_builds_total", labels={"workload": name})
    return gen


def _trace_store_and_key(name: str, scale: float, variable_length: bool,
                         sample: int):
    """Persistent-store handle + fingerprint for one trace stream (or
    None): the entry serves every length of the stream."""
    # Imported lazily: workloads must not depend on experiments at
    # module-import time.
    from ..experiments import store as result_store
    store = result_store.get_store()
    if store is None:
        return None, None
    fp = result_store.fingerprint({
        "kind": "trace",
        "profile": get_profile(name),
        "scale": scale,
        "variable_length": variable_length,
        "sample": sample,
    })
    return store, fp


def get_trace(name: str, n_records: int = 200_000, scale: float = 1.0,
              variable_length: bool = False, sample: int = 0) -> Trace:
    """Memoised trace for a named workload: the first ``n_records``
    records of its stream ``(name, scale, variable_length, sample)``.

    One :class:`Trace` is memoised per recently used length, so every
    simulation of that length shares its engine views.  The process
    keeps the longest prefix of each stream it has held; a shorter
    length is a slice of it, and a longer one resumes the walk that
    produced it.  A stream the process does not hold yet is first read
    from the persistent store (``REPRO_CACHE_DIR``), which keeps one
    entry per stream; round-tripping through
    :mod:`repro.workloads.serialize` is lossless, so stored and freshly
    walked records are interchangeable.
    """
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    key = (name, scale, variable_length, n_records, sample)
    trace = _memoised(key)
    if trace is not None:
        return trace
    stream_key = (name, scale, variable_length, sample)
    stream = _STREAMS.setdefault(stream_key, _Stream())
    with stream.lock:
        trace = _memoised(key)
        if trace is None:
            trace = _prefix(stream, stream_key, n_records)
            with _TRACES_LOCK:
                _TRACES[key] = trace
                while len(_TRACES) > _TRACES_MAX:
                    _TRACES.popitem(last=False)
    return trace


def _memoised(key: Tuple[str, float, bool, int, int]) -> Optional[Trace]:
    with _TRACES_LOCK:
        trace = _TRACES.get(key)
        if trace is not None:
            _TRACES.move_to_end(key)
        return trace


def _prefix(stream: _Stream, stream_key: Tuple[str, float, bool, int],
            n_records: int) -> Trace:
    """The first ``n_records`` records of ``stream``, loading or walking
    it further when it is shorter (the caller holds its lock)."""
    name, scale, variable_length, sample = stream_key
    if len(stream.records) >= n_records:
        return Trace(stream.records[:n_records], name=name)
    store, fp = _trace_store_and_key(name, scale, variable_length, sample)
    if store is not None and not stream.records:
        loaded = store.load_trace(fp, n_records=n_records)
        if loaded is not None:
            stream.records = loaded.records
            return Trace(loaded.records[:n_records], name=name)
    gen = get_generator(name, scale, variable_length)
    # A loaded prefix has no walk to resume, so it is walked again from
    # the start.  The walk is detached while it runs: one cut short by
    # an exception leaves its records a valid prefix but cannot resume.
    walk = stream.walk or gen.start_walk(sample)
    stream.walk = None
    trace = gen.generate(n_records, sample=sample, walk=walk)
    stream.records, stream.walk = walk.records, walk
    if store is not None:
        try:
            store.save_trace(fp, Trace(walk.records, name=name))
        except OSError:
            pass    # read-only cache dir: persistence is best-effort
    return trace


def clear_cache() -> None:
    """Drop memoised generators, traces and streams (tests use this)."""
    _GENERATORS.clear()
    _TRACES.clear()
    _STREAMS.clear()
