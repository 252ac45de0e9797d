"""Analysis utilities: metric aggregation, predictability studies, storage."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .breakdown import (
        CATEGORIES,
        cycle_stack,
        frontend_bound_fraction,
        render_cycle_stack,
        render_stack_comparison,
        stall_reduction,
    )
    from .metrics import (
        arithmetic_mean,
        average_over_workloads,
        fscr,
        geometric_mean,
        miss_coverage,
        normalize,
        per_kilo_instruction,
        speedup,
    )
    from .predictability import (
        discontinuity_branch_predictability,
        next4_pattern_predictability,
        uncovered_branches_by_footprint_size,
        uncovered_footprints_by_slots,
    )
    from .storage import (
        StorageItem,
        comparison_table,
        confluence_budget,
        shotgun_budget,
        sn4l_dis_btb_budget,
    )

__all__ = [
    "arithmetic_mean",
    "geometric_mean",
    "speedup",
    "miss_coverage",
    "fscr",
    "normalize",
    "per_kilo_instruction",
    "average_over_workloads",
    "next4_pattern_predictability",
    "discontinuity_branch_predictability",
    "uncovered_branches_by_footprint_size",
    "uncovered_footprints_by_slots",
    "StorageItem",
    "sn4l_dis_btb_budget",
    "shotgun_budget",
    "confluence_budget",
    "comparison_table",
    "cycle_stack",
    "frontend_bound_fraction",
    "render_cycle_stack",
    "render_stack_comparison",
    "stall_reduction",
    "CATEGORIES",
]

__getattr__ = lazy_exports(__name__, {
    ".breakdown": ("CATEGORIES", "cycle_stack", "frontend_bound_fraction",
                   "render_cycle_stack", "render_stack_comparison",
                   "stall_reduction"),
    ".metrics": ("arithmetic_mean", "average_over_workloads", "fscr",
                 "geometric_mean", "miss_coverage", "normalize",
                 "per_kilo_instruction", "speedup"),
    ".predictability": ("discontinuity_branch_predictability",
                        "next4_pattern_predictability",
                        "uncovered_branches_by_footprint_size",
                        "uncovered_footprints_by_slots"),
    ".storage": ("StorageItem", "comparison_table", "confluence_budget",
                 "shotgun_budget", "sn4l_dis_btb_budget"),
})
