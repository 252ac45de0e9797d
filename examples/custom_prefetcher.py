#!/usr/bin/env python3
"""Tutorial: writing your own prefetcher against the library's API.

Implements a toy *stride-within-region* instruction prefetcher in ~40
lines, runs it against the built-in schemes, and prints a comparison —
a template for experimenting with new frontend prefetching ideas on the
same substrate the paper's reproduction uses.

Usage:
    python examples/custom_prefetcher.py
"""

from repro.core import sn4l_dis_btb
from repro.frontend import FrontendSimulator
from repro.isa import CACHE_BLOCK_SIZE
from repro.prefetchers import NextXLinePrefetcher, Prefetcher
from repro.workloads import get_generator, get_trace

WORKLOAD = "web_apache"
RECORDS = 60_000
WARMUP = 20_000


class StrideRegionPrefetcher(Prefetcher):
    """A toy scheme: learn the per-region fetch *stride* and run it ahead.

    Regions are 1 KB windows of code.  For each region we remember the
    last block fetched and the last stride between fetches in it; on the
    next access we prefetch ``degree`` strides ahead.  (Real instruction
    streams are mostly stride +1 — which is why next-line prefetching is
    the industry default and why this toy roughly tracks NL.)
    """

    name = "stride_region"
    REGION_BITS = 10  # 1 KB regions

    def __init__(self, degree: int = 2, table_entries: int = 512):
        super().__init__()
        self.degree = degree
        self.table_entries = table_entries
        self._last_block = {}
        self._stride = {}

    def on_demand(self, index, record, outcome, cycle):
        block = record.line // CACHE_BLOCK_SIZE
        region = record.line >> self.REGION_BITS
        key = region % self.table_entries
        last = self._last_block.get(key)
        if last is not None and last != block:
            self._stride[key] = block - last
        self._last_block[key] = block
        stride = self._stride.get(key, 1)
        if stride == 0:
            return
        for i in range(1, self.degree + 1):
            self.sim.issue_prefetch(
                (block + i * stride) * CACHE_BLOCK_SIZE)

    def storage_bytes(self):
        return self.table_entries * (34 + 8) // 8  # block + stride


def main() -> None:
    gen = get_generator(WORKLOAD)
    trace = get_trace(WORKLOAD, n_records=RECORDS)

    def run(pf):
        sim = FrontendSimulator(trace, prefetcher=pf, program=gen.program)
        return sim.run(warmup=WARMUP)

    base = run(None)
    contenders = [
        ("stride_region (yours)", StrideRegionPrefetcher()),
        ("nl", NextXLinePrefetcher(1)),
        ("n4l", NextXLinePrefetcher(4)),
        ("sn4l_dis_btb (paper)", sn4l_dis_btb()),
    ]
    print(f"{WORKLOAD}: baseline IPC {base.ipc:.3f}\n")
    print(f"{'scheme':24s} {'speedup':>8s} {'coverage':>9s} "
          f"{'accuracy':>9s} {'storage':>9s}")
    for name, pf in contenders:
        st = run(pf)
        print(f"{name:24s} {st.speedup_over(base):8.3f} "
              f"{st.coverage_over(base):9.1%} "
              f"{st.prefetch_accuracy:9.1%} "
              f"{pf.storage_bytes() / 1024:8.1f}K")

    print("\nTo plug a scheme into the experiment harness, move the class "
          "into an importable module and add an entry to "
          "repro.experiments.runner.SCHEMES: its import path, its keyword "
          "arguments and its FrontendConfig overrides, e.g.\n"
          '    "stride_region": ("mypkg.stride.StrideRegionPrefetcher",\n'
          '                      {"degree": 2}, {}),\n'
          "Every figure driver, the CLI, the process pool and the sampling "
          "machinery can then run it by name.")


if __name__ == "__main__":
    main()
