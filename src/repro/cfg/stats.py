"""Static program statistics.

Summarises a generated program the way a binary-analysis tool would:
text size, function size distribution, basic-block geometry, branch mix,
and cache-line branch density (the quantity behind the paper's Fig. 8).
Used to validate that synthetic programs look like server binaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from ..isa import BranchKind
from .graph import ControlFlowGraph
from .layout import Program


@dataclass
class ProgramStats:
    """Aggregate static statistics of one laid-out program."""

    text_bytes: int
    n_functions: int
    n_blocks: int
    n_instructions: int
    n_branches: int
    branch_mix: Dict[str, int] = field(default_factory=dict)
    function_bytes: List[int] = field(default_factory=list)
    block_instrs: List[int] = field(default_factory=list)
    branches_per_line: List[int] = field(default_factory=list)
    cold_block_fraction: float = 0.0

    @property
    def branch_density(self) -> float:
        """Branches per instruction."""
        if not self.n_instructions:
            return 0.0
        return self.n_branches / self.n_instructions

    @property
    def mean_function_bytes(self) -> float:
        return _mean(self.function_bytes)

    @property
    def mean_block_instrs(self) -> float:
        return _mean(self.block_instrs)

    @property
    def mean_branches_per_line(self) -> float:
        return _mean(self.branches_per_line)

    def summary(self) -> str:
        mix = ", ".join(f"{k}: {v}" for k, v in sorted(self.branch_mix.items()))
        return "\n".join([
            f"text            {self.text_bytes / 1024:.1f} KB",
            f"functions       {self.n_functions} "
            f"(mean {self.mean_function_bytes:.0f} B)",
            f"basic blocks    {self.n_blocks} "
            f"(mean {self.mean_block_instrs:.1f} instr)",
            f"instructions    {self.n_instructions}",
            f"branches        {self.n_branches} "
            f"({self.branch_density:.1%} of instructions)",
            f"branch mix      {mix}",
            f"branches/line   {self.mean_branches_per_line:.2f}",
            f"cold blocks     {self.cold_block_fraction:.1%}",
        ])


def _mean(counts: List[int]) -> float:
    """Mean of integer counts (0.0 for none)."""
    return sum(counts) / len(counts) if counts else 0.0


def analyze_program(program: Program) -> ProgramStats:
    """Compute :class:`ProgramStats` for a laid-out program."""
    cfg: ControlFlowGraph = program.cfg
    branch_mix: Counter = Counter()
    function_bytes = []
    block_instrs = []
    n_instr = 0
    n_branches = 0
    n_cold = 0
    for func in cfg.functions:
        function_bytes.append(sum(b.size for b in func.blocks))
        for blk in func.blocks:
            block_instrs.append(blk.n_instr)
            n_instr += blk.n_instr
            if blk.is_cold:
                n_cold += 1
            branch = blk.branch
            if branch is not None:
                n_branches += 1
                branch_mix[branch.kind.name] += 1

    branches_per_line = [len(program.branch_byte_offsets(line))
                         for line in program.lines()]

    return ProgramStats(
        text_bytes=program.text_bytes,
        n_functions=len(cfg.functions),
        n_blocks=cfg.n_blocks,
        n_instructions=n_instr,
        n_branches=n_branches,
        branch_mix=dict(branch_mix),
        function_bytes=function_bytes,
        block_instrs=block_instrs,
        branches_per_line=branches_per_line,
        cold_block_fraction=n_cold / cfg.n_blocks if cfg.n_blocks else 0.0,
    )


def branch_kind_fractions(stats: ProgramStats) -> Dict[str, float]:
    """Branch mix as fractions; keys are BranchKind names."""
    total = sum(stats.branch_mix.values())
    if not total:
        return {}
    return {k: v / total for k, v in stats.branch_mix.items()}


def expected_server_shape(stats: ProgramStats) -> List[str]:
    """Validate server-binary-like shape; returns a list of violations."""
    problems = []
    if stats.text_bytes < 64 * 1024:
        problems.append("text smaller than 64 KB — not server-scale")
    if not 0.05 <= stats.branch_density <= 0.4:
        problems.append(
            f"branch density {stats.branch_density:.2f} outside [0.05, 0.4]")
    fractions = branch_kind_fractions(stats)
    if fractions.get(BranchKind.COND.name, 0) < 0.2:
        problems.append("conditional branches under 20% of branches")
    if fractions.get(BranchKind.RETURN.name, 0) < 0.05:
        problems.append("returns under 5% of branches")
    if stats.cold_block_fraction <= 0.0:
        problems.append("no cold (error-path) blocks generated")
    if stats.mean_branches_per_line > 8:
        problems.append("implausibly branch-dense cache lines")
    return problems
