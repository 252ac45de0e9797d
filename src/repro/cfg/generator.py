"""Synthetic control-flow-graph generator.

Server workloads have the properties the paper measures because of their
control-flow structure: deep software stacks (many functions, deep call
chains), massive instruction footprints, mostly-biased conditional branches,
and rarely executed error/exception paths interleaved with hot code
(Algorithm 1 in the paper).  This generator produces programs with exactly
those features, parameterised so that each evaluated workload can be given
its own footprint and branchiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..isa import BranchKind
from .graph import BasicBlock, ControlFlowGraph, Function, Terminator


@dataclass
class CfgParams:
    """Shape parameters of a synthetic program.

    The defaults produce a mid-sized server-like binary (~250 KB of text
    with the fixed-length ISA).  Workload profiles scale these.
    """

    n_functions: int = 600
    #: Mean number of structural segments (straight run / diamond / loop /
    #: call site / error check) per function.
    avg_segments: float = 6.0
    avg_block_instr: float = 8.0
    min_block_instr: int = 2
    max_block_instr: int = 24

    # Segment mix (remaining probability mass is straight-line code).
    p_diamond: float = 0.22
    p_loop: float = 0.08
    p_call: float = 0.28
    p_error_check: float = 0.14

    #: Fraction of call sites that are indirect calls.
    p_indirect: float = 0.05
    #: Probability that a rarely-executed error path is entered.
    error_taken_prob: float = 0.01
    #: Typical taken probability of a biased conditional branch.
    biased_taken_prob: float = 0.08
    #: Fraction of diamond conditionals that are roughly 50/50.
    p_balanced: float = 0.15
    #: Mean iteration count of loops (geometric).
    loop_mean_iters: float = 8.0
    #: Fraction of functions that are hot shared utilities (memcpy-like).
    utility_fraction: float = 0.05
    #: Probability that a call site targets a utility function.
    p_call_utility: float = 0.30

    def __post_init__(self) -> None:
        if self.n_functions < 2:
            raise ValueError("need at least two functions")
        mix = self.p_diamond + self.p_loop + self.p_call + self.p_error_check
        if mix > 1.0:
            raise ValueError(f"segment mix sums to {mix} > 1")
        if not 1 <= self.min_block_instr <= self.max_block_instr:
            raise ValueError("invalid block instruction bounds")


def zipf_cdf(span: int) -> np.ndarray:
    """CDF of the 1/rank weights over ``range(span)``.

    Built exactly as ``Generator.choice(span, p=weights)`` builds it
    from the normalised weights, so :func:`draw_from_cdf` reproduces
    that call's draws bit for bit.
    """
    weights = 1.0 / np.arange(1, span + 1, dtype=float)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_cdf(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One draw of ``rng.choice(len(cdf), p=...)`` from its CDF: the
    same single ``rng.random()`` and right-sided search."""
    return int(cdf.searchsorted(rng.random(), side="right"))


class CfgGenerator:
    """Generates a :class:`ControlFlowGraph` from :class:`CfgParams`.

    Deterministic given (params, seed).  Functions form an acyclic call
    graph (callees always have a larger function id, except the shared
    utility functions which are callable from anywhere), so every walk of
    the program terminates.
    """

    def __init__(self, params: CfgParams, seed: int = 0):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self._next_bid = 0
        # The Zipf CDF of the current callee span.  Every call site of
        # one function shares a span, so one entry is enough; keeping a
        # CDF per span would hold O(n_functions**2) floats.
        self._cdf_span = 0
        self._cdf = np.empty(0)

    def generate(self) -> ControlFlowGraph:
        p = self.params
        n_util = max(1, int(p.n_functions * p.utility_fraction))
        # Utilities occupy the tail ids so every function may call them.
        self._utility_fids = list(range(p.n_functions - n_util, p.n_functions))
        self._utility_set = frozenset(self._utility_fids)
        functions = [self._gen_function(fid) for fid in range(p.n_functions)]
        return ControlFlowGraph(functions)

    # ------------------------------------------------------------------
    # helpers

    def _new_bid(self) -> int:
        bid = self._next_bid
        self._next_bid += 1
        return bid

    def _block_len(self) -> int:
        p = self.params
        n = int(self.rng.poisson(p.avg_block_instr - p.min_block_instr))
        return int(min(max(n + p.min_block_instr, p.min_block_instr),
                       p.max_block_instr))

    def _pick_callee(self, fid: int) -> Optional[int]:
        """Zipf-weighted forward callee, or a shared utility."""
        p = self.params
        is_util = fid in self._utility_set
        if not is_util and self.rng.random() < p.p_call_utility:
            return int(self.rng.choice(self._utility_fids))
        lo = fid + 1
        hi = self.params.n_functions - (0 if is_util else len(self._utility_fids))
        if lo >= hi:
            return None
        # Prefer nearby callees (locality in the call graph).
        span = hi - lo
        if span != self._cdf_span:
            self._cdf_span = span
            self._cdf = zipf_cdf(span)
        return lo + draw_from_cdf(self.rng, self._cdf)

    def _cond_taken_prob(self) -> float:
        p = self.params
        if self.rng.random() < p.p_balanced:
            return float(self.rng.uniform(0.35, 0.65))
        base = p.biased_taken_prob * float(self.rng.uniform(0.5, 1.5))
        prob = min(max(base, 0.005), 0.45)
        # Half the biased branches are biased-taken rather than not-taken.
        if self.rng.random() < 0.5:
            prob = 1.0 - prob
        return prob

    # ------------------------------------------------------------------
    # function body construction

    def _gen_function(self, fid: int) -> Function:
        p = self.params
        is_util = fid in self._utility_set
        n_segments = max(1, int(self.rng.geometric(1.0 / p.avg_segments)))
        if is_util:
            n_segments = max(1, n_segments // 2)

        blocks: List[BasicBlock] = []
        for _ in range(n_segments):
            r = self.rng.random()
            can_call = self._pick_callee(fid) is not None
            if r < p.p_diamond:
                self._emit_diamond(fid, blocks)
            elif r < p.p_diamond + p.p_loop:
                self._emit_loop(fid, blocks)
            elif r < p.p_diamond + p.p_loop + p.p_call and can_call and not is_util:
                self._emit_call(fid, blocks)
            elif r < p.p_diamond + p.p_loop + p.p_call + p.p_error_check:
                self._emit_error_check(fid, blocks)
            else:
                self._emit_straight(fid, blocks)

        # Function epilogue: a return block.
        blocks.append(BasicBlock(
            bid=self._new_bid(), func=fid, n_instr=self._block_len(),
            terminator=Terminator(BranchKind.RETURN),
        ))
        return Function(fid=fid, blocks=blocks)

    def _emit_straight(self, fid: int, blocks: List[BasicBlock]) -> None:
        blocks.append(BasicBlock(
            bid=self._new_bid(), func=fid, n_instr=self._block_len()))

    def _emit_call(self, fid: int, blocks: List[BasicBlock]) -> None:
        p = self.params
        callee = self._pick_callee(fid)
        if callee is None:
            # No callable target (tail of the call-graph DAG): plain code.
            self._emit_straight(fid, blocks)
            return
        if self.rng.random() < p.p_indirect:
            # Indirect call dispatching over a small set of callees.
            callees = {callee}
            for _ in range(int(self.rng.integers(1, 4))):
                extra = self._pick_callee(fid)
                if extra is not None:
                    callees.add(extra)
            probs = self.rng.dirichlet(np.ones(len(callees)) * 2.0)
            term = Terminator(
                BranchKind.INDIRECT,
                indirect_callees=tuple(zip(sorted(callees), map(float, probs))),
            )
        else:
            term = Terminator(BranchKind.CALL, callee=callee)
        blocks.append(BasicBlock(
            bid=self._new_bid(), func=fid, n_instr=self._block_len(),
            terminator=term))

    def _emit_diamond(self, fid: int, blocks: List[BasicBlock]) -> None:
        cond_bid = self._new_bid()
        then_bid = self._new_bid()
        else_bid = self._new_bid()
        join_bid = self._new_bid()
        prob = self._cond_taken_prob()
        blocks.append(BasicBlock(
            bid=cond_bid, func=fid, n_instr=self._block_len(),
            terminator=Terminator(BranchKind.COND, taken_succ=else_bid,
                                  taken_prob=prob)))
        blocks.append(BasicBlock(
            bid=then_bid, func=fid, n_instr=self._block_len(),
            terminator=Terminator(BranchKind.JUMP, taken_succ=join_bid)))
        blocks.append(BasicBlock(
            bid=else_bid, func=fid, n_instr=self._block_len(),
            is_cold=prob < 0.05))
        blocks.append(BasicBlock(
            bid=join_bid, func=fid, n_instr=self._block_len()))

    def _emit_loop(self, fid: int, blocks: List[BasicBlock]) -> None:
        p = self.params
        head_bid = self._new_bid()
        # Back-edge taken probability from the mean iteration count.
        iters = max(2.0, float(self.rng.normal(p.loop_mean_iters,
                                               p.loop_mean_iters / 3)))
        back_prob = 1.0 - 1.0 / iters
        blocks.append(BasicBlock(
            bid=head_bid, func=fid, n_instr=self._block_len(),
            terminator=Terminator(BranchKind.COND, taken_succ=head_bid,
                                  taken_prob=back_prob)))

    def _emit_error_check(self, fid: int, blocks: List[BasicBlock]) -> None:
        """A biased check whose taken path is a cold inline error block,
        mirroring Algorithm 1's try/catch layout."""
        p = self.params
        check_bid = self._new_bid()
        cold_bid = self._new_bid()
        join_bid = self._new_bid()
        blocks.append(BasicBlock(
            bid=check_bid, func=fid, n_instr=self._block_len(),
            terminator=Terminator(BranchKind.COND, taken_succ=cold_bid,
                                  taken_prob=p.error_taken_prob)))
        # Hot path jumps over the inline cold handler.
        blocks.append(BasicBlock(
            bid=self._new_bid(), func=fid, n_instr=self._block_len(),
            terminator=Terminator(BranchKind.JUMP, taken_succ=join_bid)))
        blocks.append(BasicBlock(
            bid=cold_bid, func=fid,
            n_instr=max(self._block_len(), 2 * self.params.min_block_instr),
            is_cold=True))
        blocks.append(BasicBlock(
            bid=join_bid, func=fid, n_instr=self._block_len()))


def generate_cfg(params: Optional[CfgParams] = None, seed: int = 0) -> ControlFlowGraph:
    """Convenience wrapper: generate a program from ``params`` and ``seed``."""
    return CfgGenerator(params or CfgParams(), seed=seed).generate()
