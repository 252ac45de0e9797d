"""Synthetic control-flow graphs: data model, generator, and code layout."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .generator import CfgGenerator, CfgParams, generate_cfg
    from .graph import BasicBlock, ControlFlowGraph, Function, Terminator
    from .layout import (
        DEFAULT_TEXT_BASE,
        FUNCTION_ALIGNMENT,
        LineSpan,
        Program,
        layout_program,
    )

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "Function",
    "Terminator",
    "CfgParams",
    "CfgGenerator",
    "generate_cfg",
    "Program",
    "LineSpan",
    "layout_program",
    "DEFAULT_TEXT_BASE",
    "FUNCTION_ALIGNMENT",
]

__getattr__ = lazy_exports(__name__, {
    ".generator": ("CfgGenerator", "CfgParams", "generate_cfg"),
    ".graph": ("BasicBlock", "ControlFlowGraph", "Function", "Terminator"),
    ".layout": ("DEFAULT_TEXT_BASE", "FUNCTION_ALIGNMENT", "LineSpan",
                "Program", "layout_program"),
})
