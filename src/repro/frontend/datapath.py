"""Optional data-side model: L1d misses sharing the LLC with instructions.

The default configuration folds the whole backend into a constant
cycles-per-instruction term.  Enabling ``FrontendConfig(model_data=True)``
replaces part of that constant with a *modeled* data path: a synthetic
per-record data-access stream (hot Zipf heap + stack region) runs through
an L1d; misses go to the same LLC and contention domain as instruction
fills, so data blocks compete with instruction blocks for LLC capacity —
the interaction the DV-LLC experiment (paper Section VII-J) is about.

An out-of-order backend hides most data-miss latency behind independent
work; ``data_stall_fraction`` charges only the exposed remainder.
"""

from __future__ import annotations

from ..isa import CACHE_BLOCK_SIZE
from ..memory import SetAssociativeCache

#: Data addresses live far above any text segment.
DATA_BASE = 1 << 40


class DataPathModel:
    """Synthetic data-access stream + L1d, attached to a simulator."""

    def __init__(self, sim, heap_blocks: int = 64 * 1024,
                 zipf_s: float = 0.9,
                 accesses_per_instruction: float = 0.35,
                 stack_fraction: float = 0.35,
                 l1d_size: int = 32 * 1024, l1d_assoc: int = 8,
                 data_stall_fraction: float = 0.3,
                 seed: int = 11):
        import numpy as np
        if heap_blocks <= 0:
            raise ValueError("heap must be non-empty")
        if not 0.0 <= data_stall_fraction <= 1.0:
            raise ValueError("stall fraction is a fraction")
        self.sim = sim
        self.accesses_per_instruction = accesses_per_instruction
        self.stack_fraction = stack_fraction
        self.data_stall_fraction = data_stall_fraction
        self.l1d = SetAssociativeCache(l1d_size, l1d_assoc, name="l1d")
        rng = np.random.default_rng(seed)
        # Pre-sampled Zipf-popular heap blocks (cheap per-access draws).
        ranks = np.arange(1, heap_blocks + 1, dtype=float)
        weights = ranks ** -zipf_s
        weights /= weights.sum()
        self._heap = rng.choice(heap_blocks, p=weights, size=1 << 16)
        self._uniform = rng.random(size=1 << 16)
        self._cursor = 0
        self._stack_depth = 0
        self._carry = 0.0
        self.accesses = 0
        self.misses = 0
        self.stall_cycles = 0

    def _next_address(self, call_depth: int) -> int:
        i = self._cursor
        self._cursor = (i + 1) & 0xFFFF
        if self._uniform[i] < self.stack_fraction:
            # Stack accesses track the call depth: tiny hot footprint.
            block = (1 << 20) + call_depth * 4 + int(self._heap[i]) % 4
        else:
            block = int(self._heap[i])
        return DATA_BASE + block * CACHE_BLOCK_SIZE

    def access_for_record(self, record, call_depth: int = 0) -> int:
        """Issue this record's share of data accesses; returns the stall
        cycles to charge the backend."""
        self._carry += record.n_instr * self.accesses_per_instruction
        n = int(self._carry)
        self._carry -= n
        stall = 0
        sim = self.sim
        for _ in range(n):
            addr = self._next_address(call_depth)
            self.accesses += 1
            if self.l1d.lookup(addr) is not None:
                continue
            self.misses += 1
            llc_hit = sim.llc.access(addr, is_instruction=False)
            latency = sim.latency.request(sim.cycle, llc_hit=llc_hit)
            stall += int(latency * self.data_stall_fraction)
            self.l1d.insert(addr)
        self.stall_cycles += stall
        return stall

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_measurement(self) -> None:
        self.accesses = 0
        self.misses = 0
        self.stall_cycles = 0
