"""Storage-budget accounting behind the paper's Table II."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

KB = 1024


@dataclass(frozen=True)
class StorageItem:
    name: str
    bits_per_entry: int
    entries: int

    @property
    def bytes(self) -> int:
        return self.bits_per_entry * self.entries // 8


def _total(items: List[StorageItem]) -> int:
    return sum(i.bytes for i in items)


def sn4l_dis_btb_budget(l1i_lines: int = 512) -> Tuple[List[StorageItem], int]:
    """Paper Section VI-D3: the 7.6 KB of SN4L+Dis+BTB."""
    items = [
        StorageItem("SeqTable (16 K x 1 bit)", 1, 16 * 1024),
        StorageItem("DisTable (4 K x (4-bit tag + 4-bit offset))", 8, 4096),
        StorageItem("BTB prefetch buffer (32 x ~2 Kb/8)", 8 * 32, 32),
        StorageItem("L1i local status + prefetch flag", 5, l1i_lines),
        StorageItem("SeqQueue/DisQueue/RLUQueue (3 x 16 x ~43 bits)",
                    43, 48),
        StorageItem("RLU (8 x 40-bit tags)", 40, 8),
    ]
    return items, _total(items)


def shotgun_budget() -> Tuple[List[StorageItem], int]:
    """Shotgun's ~6 KB of additions over a conventional BTB."""
    items = [
        StorageItem("U-BTB footprint + size fields (1.5 K x ~19 bits)",
                    19, 1536),
        StorageItem("L1i prefetch buffer (64 x (tag + 64 B))",
                    (40 + 64 * 8), 64),
        StorageItem("BTB prefetch buffer (32 x ~2 Kb/8)", 8 * 32, 32),
    ]
    return items, _total(items)


def confluence_budget() -> Tuple[List[StorageItem], int]:
    """Confluence/SHIFT: >200 KB of metadata virtualized in the LLC."""
    items = [
        StorageItem("SHIFT history buffer (32 K x ~26 bits, in LLC)",
                    26, 32 * 1024),
        StorageItem("SHIFT index (8 K x ~30 bits, in LLC)", 30, 8 * 1024),
        StorageItem("LLC tag extensions (SHIFT-style virtualization)",
                    4, 32 * 1024),
    ]
    return items, _total(items)


#: Declared per-core metadata budget (bytes) for every registered
#: scheme, the binding target of the BUD004 lint rule: the rule folds
#: each ``SCHEMES`` entry's table geometry out of the source and
#: fails when the recomputed figure exceeds (or the scheme is missing
#: from) this table.  The caps equal today's folds exactly, so *any*
#: geometry drift — a bumped default left over from a sweep, a new zoo
#: scheme without a declared budget — trips the gate.  Schemes whose
#: storage is architectural state only (perfect-Lxi oracles, plain
#: next-line) declare 0.
SCHEME_METADATA_BUDGETS: Dict[str, int] = {
    "baseline": 0,
    "nl": 0,
    "n2l": 0,
    "n4l": 0,
    "n8l": 0,
    # 64-entry L1i prefetch buffer: (40-bit tag + 64 B line) / entry.
    "nl_buf": 4416,
    "n2l_buf": 4416,
    "n4l_buf": 4416,
    "n8l_buf": 4416,
    # SeqTable (16 K x 1 bit) + L1i local status/prefetch flag.
    "sn4l": 2368,
    # DisTable + L1i status + queues/RLU (no SeqTable, no BTB buffer).
    "dis": 4714,
    "sn4l_dis": 6762,
    # The paper's proposal: the full Table II fold (seed tree 7562 B,
    # inside the 7786 B / 7.6 KB claim).
    "sn4l_dis_btb": 7562,
    "discontinuity": 8704,   # 2 K untagged entries x 34-bit targets
    "nlmiss": 0,
    "adaptive_nxl": 8,       # one depth/accuracy register
    "nltagged": 0,
    "tifs": 34304,           # 8 K-entry history + index
    "pif": 205824,           # 48 K-entry history + index
    "rdip": 84992,           # 2 K signatures x (20 + 12 x 26) bits
    "fdip": 256,             # 32-deep FTQ x 8 B
    "confluence": 137216,    # 32 K-entry SHIFT history + index
    "boomerang": 256,        # 32-deep FTQ x 8 B
    # Split-BTB additions over a conventional 2 K x 50-bit BTB, plus
    # both prefetch buffers.
    "shotgun": 13600,
    "perfect_l1i": 0,
    "perfect_l1i_btb": 0,
}


def comparison_table() -> Dict[str, Dict[str, object]]:
    """Rows of Table II: storage, structural requirements, scalability."""
    _, ours = sn4l_dis_btb_budget()
    _, shotgun = shotgun_budget()
    _, confluence = confluence_budget()
    return {
        "sn4l_dis_btb": {
            "storage_bytes": ours,
            "btb_modification": False,
            "instruction_prefetch_buffer": False,
            "scalability_bytes": 6 * KB,   # doubling SeqTable + DisTable
            "search_complexity": "low",
            "modular": True,
            "handles_large_workloads": True,
        },
        "shotgun": {
            "storage_bytes": shotgun,
            "btb_modification": True,
            "instruction_prefetch_buffer": True,
            "scalability_bytes": 20 * KB,  # doubling the U-BTB
            "search_complexity": "high",
            "modular": False,
            "handles_large_workloads": False,
        },
        "confluence": {
            "storage_bytes": confluence,
            "btb_modification": True,
            "instruction_prefetch_buffer": False,
            "scalability_bytes": None,
            "search_complexity": "high",
            "modular": False,
            "handles_large_workloads": True,
        },
    }
