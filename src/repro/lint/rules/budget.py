"""Hardware storage-budget rules (BUD001-BUD003).

The paper's central claim is economic: SN4L+Dis+BTB delivers
Shotgun-class miss coverage out of **7.6 KB** of per-core state (Table
II / Section VI-D3) — versus ~6 KB of *additions* for Shotgun on top of
its huge U-BTB and >200 KB for Confluence.  That number is a structural
property of the table geometries, so it can drift silently: bump
``seqtable_entries`` in a sweep and forget to revert it, and every
"storage" column in the repo is quietly wrong while all tests pass.

This rule statically folds the geometry constants out of the source —
``ProactivePrefetcher.__init__`` defaults, ``FrontendConfig`` cache
geometry, ``BtbPrefetchBuffer.ENTRY_BITS`` — recomputes the Table II
accounting, and fails the build when:

* **BUD001** a single structure exceeds its declared per-structure byte
  budget;
* **BUD002** the SN4L+Dis+BTB total exceeds the paper's storage claim;
* **BUD003** a geometry constant cannot be statically resolved (so the
  budget cannot be proven at lint time);
* **BUD004** every ``SCHEMES`` entry — not just the proposal — gets its
  per-core metadata bytes recomputed by constant-folding its keyword
  arguments over the prefetcher constructor's defaults, and the figure is
  bound to the declared cap in
  ``repro.analysis.storage.SCHEME_METADATA_BUDGETS``: an undeclared
  scheme, a figure over its cap, or an unfoldable geometry all fail.
  This is what lets the scheme zoo grow without per-scheme manual
  storage audits.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..astutil import (
    UNFOLDABLE,
    class_constant,
    dotted_name,
    find_class,
    find_method,
    fold_constant,
    keyword_defaults,
    module_constant,
)
from ..framework import (
    Facts,
    FileContext,
    Finding,
    Project,
    Rule,
    fact_extractor,
    register,
)

#: Paper Table II: the proposal's total storage claim ("7.6 KB").
PAPER_TOTAL_BYTES = 7786

#: Per-structure byte budgets, matching the Table II line items.
STRUCTURE_BUDGETS: Dict[str, int] = {
    "seqtable": 2048,             # 16 K x 1 bit
    "distable": 4096,             # 4 K x (4-bit tag + 4-bit offset)
    "btb_prefetch_buffer": 1024,  # 32 entries x ~2 Kb / 8
    "l1i_status": 320,            # 512 lines x (4-bit status + pf flag)
    "queues_rlu": 298,            # 3 x 16 queue slots + 8 RLU tags
}

#: Bits per queue slot (block address + depth, Table II's accounting)
#: and per RLU entry (block-address tag).
QUEUE_SLOT_BITS = 43
RLU_TAG_BITS = 40
#: L1i per-line metadata: 4-bit local prefetch status + prefetch flag.
L1I_STATUS_BITS = 5
#: Full-tag width assumed when DisTable tagging is set to None.
FULL_TAG_BITS = 40
#: Byte count standing in for an unlimited (None-sized) reference table.
UNLIMITED_BYTES = 2 ** 62


@dataclass(frozen=True)
class Constant:
    """One folded geometry constant and where it came from."""

    name: str
    value: object            # int/float/None, or UNFOLDABLE
    rel: str
    line: int
    col: int

    @property
    def resolved(self) -> bool:
        return self.value is not UNFOLDABLE


@dataclass(frozen=True)
class BudgetItem:
    """One Table II line recomputed from the source constants."""

    structure: str
    bytes: int
    limit: int
    rel: str
    line: int
    col: int

    @property
    def over(self) -> bool:
        return self.bytes > self.limit


@dataclass
class BudgetReport:
    """Everything the budget rules (and the tests) need."""

    items: List[BudgetItem]
    unresolved: List[Constant]
    anchor: Optional[Tuple[str, int, int]] = None  # ProactivePrefetcher

    @property
    def total_bytes(self) -> int:
        return sum(item.bytes for item in self.items)

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024


#: Classes whose constructor defaults / bit constants BUD004 folds the
#: per-scheme metadata geometry from.  Every ``SCHEMES`` constructor
#: must bottom out in one of these (or be a composite preset over one).
_GEOMETRY_CLASSES = frozenset({
    "NextXLinePrefetcher", "NextLineOnMissPrefetcher",
    "NextLineTaggedPrefetcher", "AdaptiveNxlPrefetcher",
    "Sn4lPrefetcher", "ProactivePrefetcher",
    "ConventionalDiscontinuityPrefetcher", "TifsPrefetcher",
    "PifPrefetcher", "RdipPrefetcher", "FdipPrefetcher",
    "BoomerangPrefetcher", "ConfluencePrefetcher", "ShotgunPrefetcher",
    "RunaheadPrefetcher", "ShotgunBtb",
})

#: Bit-width class constants worth folding out of geometry classes.
_GEOMETRY_CONSTS = ("U_ENTRY_BITS", "C_ENTRY_BITS", "RIB_ENTRY_BITS",
                    "ENTRY_BITS")

#: Picklable stand-in for :data:`UNFOLDABLE` inside extracted facts
#: (facts cross process boundaries; the sentinel's identity would not).
_UNFOLDED = "<unfoldable>"


def _encode(value: object) -> object:
    return _UNFOLDED if value is UNFOLDABLE else value


def _class_geometry(node: ast.ClassDef) -> Facts:
    """Constructor params/defaults + bit constants for one class."""
    init = find_method(node, "__init__")
    params: List[str] = []
    defaults: Dict[str, object] = {}
    if init is not None:
        args = init.args
        params = [a.arg for a in (args.posonlyargs + args.args)][1:]
        for name, dnode in keyword_defaults(init).items():
            defaults[name] = _encode(fold_constant(dnode))
    consts: Dict[str, object] = {}
    for cname in _GEOMETRY_CONSTS:
        cnode = class_constant(node, cname)
        if cnode is not None:
            consts[cname] = _encode(fold_constant(cnode))
    bases: List[str] = []
    for base in node.bases:
        dn = dotted_name(base)
        if dn is not None:
            bases.append(dn.split(".")[-1])
    return {"params": params, "defaults": defaults, "consts": consts,
            "bases": bases, "line": node.lineno, "col": node.col_offset + 1}


def _budget_table(node: ast.Dict) -> Facts:
    """Parsed ``SCHEME_METADATA_BUDGETS`` dict literal."""
    entries: Dict[str, Optional[int]] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and
                isinstance(key.value, str)):
            continue
        folded = fold_constant(value)
        entries[key.value] = folded if isinstance(folded, int) and \
            not isinstance(folded, bool) else None
    return {"entries": entries, "line": node.lineno,
            "col": node.col_offset + 1}


@fact_extractor("budget")
def budget_facts(ctx: FileContext) -> Optional[Facts]:
    """Budget-relevant declarations in this file: the Table II anchor
    classes, every geometry class's folded constructor defaults, and
    the declared per-scheme cap table."""
    if ctx.tree is None:
        return None
    wanted = {"ProactivePrefetcher", "FrontendConfig", "BtbPrefetchBuffer"}
    facts: Facts = {}
    found: List[str] = []
    geometry: Dict[str, Facts] = {}
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            if node.name in wanted:
                found.append(node.name)
            if node.name in _GEOMETRY_CLASSES:
                geometry[node.name] = _class_geometry(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id == "SCHEME_METADATA_BUDGETS" and \
                        isinstance(node.value, ast.Dict):
                    facts["scheme_budgets"] = _budget_table(node.value)
    if found:
        facts["classes"] = found
    if geometry:
        facts["geometry"] = geometry
    return facts or None


def _constant(name: str, node: Optional[ast.AST], rel: str,
              fallback: Tuple[int, int] = (1, 1)) -> Constant:
    if node is None:
        return Constant(name, UNFOLDABLE, rel, *fallback)
    return Constant(name, fold_constant(node), rel,
                    node.lineno, node.col_offset + 1)


def _gather_constants(project: Project) -> Tuple[Dict[str, Constant],
                                                 Optional[Tuple[str, int,
                                                                int]]]:
    """Fold every geometry constant out of the linted sources."""
    constants: Dict[str, Constant] = {}
    anchor: Optional[Tuple[str, int, int]] = None
    for rel in sorted(project.facts_for("budget")):
        classes = project.facts_for("budget")[rel].get("classes", [])
        tree = project.context(rel).tree
        if tree is None:
            continue
        if "ProactivePrefetcher" in classes and \
                "proactive_anchor" not in constants:
            cls = find_class(tree, "ProactivePrefetcher")
            anchor = (rel, cls.lineno, cls.col_offset + 1)
            init = find_method(cls, "__init__")
            defaults = keyword_defaults(init) if init is not None else {}
            for name in ("seqtable_entries", "distable_entries",
                         "distable_tag_bits", "rlu_entries",
                         "queue_entries", "btb_buffer_entries"):
                constants[name] = _constant(name, defaults.get(name), rel,
                                            (cls.lineno,
                                             cls.col_offset + 1))
            constants["offset_bits"] = _constant(
                "offset_bits", module_constant(tree, "FIXED_OFFSET_BITS"),
                rel, (cls.lineno, cls.col_offset + 1))
        if "FrontendConfig" in classes and "l1i_size" not in constants:
            cls = find_class(tree, "FrontendConfig")
            for name in ("l1i_size", "block_size"):
                node = class_constant(cls, name)
                if node is None:  # dataclass fields are AnnAssign values
                    for stmt in cls.body:
                        if isinstance(stmt, ast.AnnAssign) and \
                                isinstance(stmt.target, ast.Name) and \
                                stmt.target.id == name:
                            node = stmt.value
                            break
                constants[name] = _constant(name, node, rel,
                                            (cls.lineno,
                                             cls.col_offset + 1))
        if "BtbPrefetchBuffer" in classes and \
                "btb_entry_bits" not in constants:
            cls = find_class(tree, "BtbPrefetchBuffer")
            constants["btb_entry_bits"] = _constant(
                "btb_entry_bits", class_constant(cls, "ENTRY_BITS"), rel,
                (cls.lineno, cls.col_offset + 1))
    return constants, anchor


def compute_budget(project: Project) -> Optional[BudgetReport]:
    """Recompute the Table II accounting from the linted sources.

    Returns None when the linted set does not define
    ``ProactivePrefetcher`` (nothing to budget).
    """
    constants, anchor = _gather_constants(project)
    if anchor is None:
        return None

    report = BudgetReport(items=[], unresolved=[], anchor=anchor)

    def resolved(*names: str) -> Optional[List[object]]:
        """Values of the named constants; None (recording each
        unresolved constant for BUD003) when any cannot be folded."""
        values: List[object] = []
        ok = True
        for name in names:
            const = constants.get(name)
            if const is None:
                rel, line, col = anchor
                report.unresolved.append(
                    Constant(name, UNFOLDABLE, rel, line, col))
                ok = False
            elif not const.resolved:
                report.unresolved.append(const)
                ok = False
            else:
                values.append(const.value)
        return values if ok else None

    def item(structure: str, nbytes: float, loc_of: str) -> None:
        """``math.inf`` bytes marks an unlimited reference table, which
        can never fit a hardware budget."""
        const = constants.get(loc_of)
        rel, line, col = (const.rel, const.line, const.col) \
            if const is not None and const.resolved else anchor
        report.items.append(BudgetItem(
            structure, UNLIMITED_BYTES if nbytes == math.inf
            else int(nbytes), STRUCTURE_BUDGETS[structure],
            rel, line, col))

    got = resolved("seqtable_entries")
    if got is not None:
        (n,) = got
        item("seqtable", math.inf if n is None else n * 1 // 8,
             "seqtable_entries")

    got = resolved("distable_entries", "distable_tag_bits", "offset_bits")
    if got is not None:
        n, tag, off = got
        tag_bits = FULL_TAG_BITS if tag is None else tag
        item("distable",
             math.inf if n is None else n * (tag_bits + off) // 8,
             "distable_entries")

    got = resolved("btb_buffer_entries", "btb_entry_bits")
    if got is not None:
        n, bits = got
        item("btb_prefetch_buffer", n * bits // 8, "btb_buffer_entries")

    got = resolved("l1i_size", "block_size")
    if got is not None:
        size, block = got
        item("l1i_status", size // block * L1I_STATUS_BITS // 8,
             "l1i_size")

    got = resolved("queue_entries", "rlu_entries")
    if got is not None:
        queues, rlu = got
        item("queues_rlu",
             (3 * queues * QUEUE_SLOT_BITS + rlu * RLU_TAG_BITS) // 8,
             "queue_entries")

    return report


@register
class StructureBudgetRule(Rule):
    id = "BUD001"
    name = "structure-over-budget"
    summary = ("a prefetcher structure's statically computed bytes "
               "exceed its declared per-structure budget (Table II "
               "line item)")
    scope = "project"
    facts = ("budget",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        report = compute_budget(project)
        if report is None:
            return
        for it in report.items:
            if it.over:
                shown = "unlimited" if it.bytes >= UNLIMITED_BYTES \
                    else f"{it.bytes} B"
                yield Finding(
                    self.id, it.rel, it.line, it.col,
                    f"{it.structure} computes to {shown}, over its "
                    f"declared budget of {it.limit} B; shrink the "
                    f"geometry or revise docs + STRUCTURE_BUDGETS "
                    f"together")


@register
class TotalBudgetRule(Rule):
    id = "BUD002"
    name = "total-over-paper-claim"
    summary = ("the statically computed SN4L+Dis+BTB storage total "
               "exceeds the paper's 7.6 KB claim (Table II)")
    scope = "project"
    facts = ("budget",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        report = compute_budget(project)
        if report is None or not report.items:
            return
        if report.total_bytes > PAPER_TOTAL_BYTES:
            rel, line, col = report.anchor
            shown = "unlimited" if report.total_bytes >= UNLIMITED_BYTES \
                else f"{report.total_bytes} B ({report.total_kb:.2f} KB)"
            yield Finding(
                self.id, rel, line, col,
                f"SN4L+Dis+BTB storage computes to {shown}, over the "
                f"paper's claim of {PAPER_TOTAL_BYTES} B (7.6 KB); the "
                f"storage argument of the paper no longer holds")


@register
class UnresolvedConstantRule(Rule):
    id = "BUD003"
    name = "unresolved-geometry-constant"
    summary = ("a table-geometry constant could not be statically "
               "folded, so the storage budget cannot be proven at lint "
               "time")
    scope = "project"
    facts = ("budget",)
    level = "warning"

    def check_project(self, project: Project) -> Iterable[Finding]:
        report = compute_budget(project)
        if report is None:
            return
        seen = set()
        for const in report.unresolved:
            if const.name in seen:
                continue
            seen.add(const.name)
            yield Finding(
                self.id, const.rel, const.line, const.col,
                f"geometry constant {const.name!r} is not a foldable "
                f"numeric literal; the budget rule cannot verify the "
                f"storage claim")


# ---------------------------------------------------------------------------
# BUD004: every registered scheme's metadata storage, bound to the
# declared cap table.
# ---------------------------------------------------------------------------

#: Conventional BTB baseline Shotgun's additions are counted against
#: (2 K entries x ~50 bits), mirroring ShotgunPrefetcher.storage_bytes.
CONVENTIONAL_BTB_BYTES = 2048 * 50 // 8
#: L1i prefetch-buffer tag width (L1PrefetchBuffer's accounting).
L1PB_TAG_BITS = 40

#: Composite constructor name -> the ProactivePrefetcher enable flags it
#: pins (repro.core.proactive's dis_only/sn4l_dis/sn4l_dis_btb).
_COMPOSITE_PRESETS: Dict[str, Dict[str, bool]] = {
    "dis_only": {"enable_seq": False, "enable_dis": True,
                 "enable_btb": False},
    "sn4l_dis": {"enable_seq": True, "enable_dis": True,
                 "enable_btb": False},
    "sn4l_dis_btb": {"enable_seq": True, "enable_dis": True,
                     "enable_btb": True},
}

_MISSING = object()


class _Unfoldable(Exception):
    """A scheme figure the static models cannot fold; ``reason`` says
    exactly which constant/argument/class blocked the fold."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _need(args: Dict[str, object], name: str) -> object:
    value = args.get(name, _MISSING)
    if value is _MISSING or value == _UNFOLDED:
        raise _Unfoldable(f"constructor argument {name!r} has no "
                          f"statically foldable value")
    return value


def _entries_or_unlimited(args: Dict[str, object], name: str) -> int:
    """A table size; ``None`` means an unlimited reference table."""
    value = _need(args, name)
    if value is None:
        return -1
    if not isinstance(value, int) or isinstance(value, bool):
        raise _Unfoldable(f"constructor argument {name!r} is not an "
                          f"integer table size")
    return value


class _Geometry:
    """Merged geometry facts + the Table II anchor constants."""

    def __init__(self, project: Project):
        facts = project.facts_for("budget")
        self.classes: Dict[str, Facts] = {}
        for rel in sorted(facts):
            for name, spec in (facts[rel].get("geometry") or {}).items():
                self.classes.setdefault(name, spec)
        self._consts, _ = _gather_constants(project)

    def spec(self, cls: str) -> Facts:
        spec = self.classes.get(cls)
        if spec is None:
            raise _Unfoldable(f"class {cls!r} is not defined in the "
                              f"linted set")
        return spec

    def const(self, name: str) -> int:
        const = self._consts.get(name)
        if const is None or not const.resolved or \
                not isinstance(const.value, (int, float)):
            raise _Unfoldable(f"geometry constant {name!r} did not fold")
        return int(const.value)

    def class_const(self, cls: str, name: str) -> int:
        value = self.spec(cls)["consts"].get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise _Unfoldable(f"{cls}.{name} is not a foldable integer")
        return value

    def bind(self, cls: str, kwargs: Sequence[Tuple[str, ast.AST]]
             ) -> Dict[str, object]:
        """Constructor keyword arguments merged over the class
        defaults, walking up single inheritance when the class has no
        __init__ of its own (FdipPrefetcher -> RunaheadPrefetcher)."""
        spec = self.spec(cls)
        seen = {cls}
        while not spec["params"] and not spec["defaults"]:
            base = next((b for b in spec["bases"]
                         if b in self.classes and b not in seen), None)
            if base is None:
                break
            seen.add(base)
            spec = self.classes[base]
        args: Dict[str, object] = dict(spec["defaults"])
        for name, node in kwargs:
            args[name] = self._fold(node, name)
        return args

    @staticmethod
    def _fold(node: ast.AST, name: str) -> object:
        value = fold_constant(node)
        if value is UNFOLDABLE:
            raise _Unfoldable(f"constructor argument {name!r} is not a "
                              f"foldable literal")
        return value


def _status_bytes(geom: _Geometry) -> int:
    """L1i local status + prefetch flag, shared by SN4L and Proactive."""
    return geom.const("l1i_size") // geom.const("block_size") * \
        L1I_STATUS_BITS // 8


def _l1pb_bytes(geom: _Geometry, entries: int) -> int:
    """L1 prefetch buffer: per-entry tag + a full cache block."""
    return entries * (L1PB_TAG_BITS // 8 + geom.const("block_size"))


def _shift_history_bytes(entries: int) -> int:
    """SHIFT-style history + 1-in-4 index (ShiftHistory's accounting)."""
    return entries * 26 // 8 + entries // 4 * 30 // 8


def _model_zero(geom: _Geometry, args: Dict[str, object]) -> int:
    return 0


def _model_register(geom: _Geometry, args: Dict[str, object]) -> int:
    return 8  # a few counters and the depth register


def _model_nextxline(geom: _Geometry, args: Dict[str, object]) -> int:
    if not _need(args, "use_buffer"):
        return 0
    return _l1pb_bytes(geom, _entries_or_unlimited(args, "buffer_entries"))


def _model_sn4l(geom: _Geometry, args: Dict[str, object]) -> int:
    if _need(args, "seqtable") is not None:
        raise _Unfoldable("a prebuilt seqtable's size cannot be folded")
    entries = _entries_or_unlimited(args, "seqtable_entries")
    if entries < 0:
        return UNLIMITED_BYTES
    return entries * 1 // 8 + _status_bytes(geom)


def _model_proactive(geom: _Geometry, args: Dict[str, object]) -> int:
    if _need(args, "seqtable") is not None or \
            _need(args, "distable") is not None:
        raise _Unfoldable("a prebuilt table's size cannot be folded")
    total = 0
    if _need(args, "enable_seq"):
        entries = _entries_or_unlimited(args, "seqtable_entries")
        if entries < 0:
            return UNLIMITED_BYTES
        total += entries * 1 // 8
    if _need(args, "enable_dis"):
        entries = _entries_or_unlimited(args, "distable_entries")
        if entries < 0:
            return UNLIMITED_BYTES
        tag = _need(args, "distable_tag_bits")
        tag_bits = FULL_TAG_BITS if tag is None else tag
        total += entries * (tag_bits + geom.const("offset_bits")) // 8
    if _need(args, "enable_btb"):
        total += _entries_or_unlimited(args, "btb_buffer_entries") * \
            geom.const("btb_entry_bits") // 8
    total += _status_bytes(geom)
    total += (3 * _entries_or_unlimited(args, "queue_entries") *
              QUEUE_SLOT_BITS +
              _entries_or_unlimited(args, "rlu_entries") *
              RLU_TAG_BITS) // 8
    return total


def _model_discontinuity(geom: _Geometry, args: Dict[str, object]) -> int:
    entries = _entries_or_unlimited(args, "n_entries")
    tag = _need(args, "tag_bits")
    tag_bits = FULL_TAG_BITS if tag is None else tag
    return entries * (tag_bits + 34) // 8  # 34-bit block-address target


def _model_shift_history(geom: _Geometry, args: Dict[str, object]) -> int:
    entries = _entries_or_unlimited(args, "history_entries")
    if entries < 0:
        return UNLIMITED_BYTES
    return _shift_history_bytes(entries)


def _model_rdip(geom: _Geometry, args: Dict[str, object]) -> int:
    signatures = _entries_or_unlimited(args, "n_signatures")
    lines = _entries_or_unlimited(args, "lines_per_entry")
    return signatures * (20 + lines * 26) // 8


def _model_ftq(geom: _Geometry, args: Dict[str, object]) -> int:
    return _entries_or_unlimited(args, "window") * 8  # ~8 B per FTQ slot


def _model_shotgun(geom: _Geometry, args: Dict[str, object]) -> int:
    bits = (_entries_or_unlimited(args, "u_entries") *
            geom.class_const("ShotgunBtb", "U_ENTRY_BITS") +
            _entries_or_unlimited(args, "c_entries") *
            geom.class_const("ShotgunBtb", "C_ENTRY_BITS") +
            _entries_or_unlimited(args, "rib_entries") *
            geom.class_const("ShotgunBtb", "RIB_ENTRY_BITS"))
    extra_btb = max(0, bits // 8 - CONVENTIONAL_BTB_BYTES)
    return extra_btb + \
        _l1pb_bytes(geom, _entries_or_unlimited(args, "l1_buffer_entries")) + \
        _entries_or_unlimited(args, "btb_buffer_entries") * \
        geom.const("btb_entry_bits") // 8


#: Constructor class -> static per-scheme metadata model, mirroring each
#: class's ``storage_bytes`` accounting (attached-simulator figures,
#: i.e. including the prefetch buffers the scheme asks the frontend
#: for).
_SCHEME_MODELS = {
    "NextXLinePrefetcher": _model_nextxline,
    "NextLineOnMissPrefetcher": _model_zero,
    "NextLineTaggedPrefetcher": _model_zero,
    "AdaptiveNxlPrefetcher": _model_register,
    "Sn4lPrefetcher": _model_sn4l,
    "ProactivePrefetcher": _model_proactive,
    "ConventionalDiscontinuityPrefetcher": _model_discontinuity,
    "TifsPrefetcher": _model_shift_history,
    "PifPrefetcher": _model_shift_history,
    "RdipPrefetcher": _model_rdip,
    "FdipPrefetcher": _model_ftq,
    "BoomerangPrefetcher": _model_ftq,
    "RunaheadPrefetcher": _model_ftq,
    "ConfluencePrefetcher": _model_shift_history,
    "ShotgunPrefetcher": _model_shotgun,
}


def _scheme_bytes(geom: _Geometry, value: ast.AST) -> int:
    """Byte figure for one canonical SCHEMES entry (raises
    :class:`_Unfoldable` with the blocking reason otherwise)."""
    from .registry import parse_entry

    try:
        path, kwargs, _overrides = parse_entry(value)
    except ValueError:
        raise _Unfoldable("entry is not the canonical literal shape "
                          "(REG003), so its storage cannot be folded") \
            from None
    if path is None:
        return 0  # config-override-only scheme: no prefetcher metadata
    tail = path.split(".")[-1]
    preset = _COMPOSITE_PRESETS.get(tail)
    cls = "ProactivePrefetcher" if preset is not None else tail
    model = _SCHEME_MODELS.get(cls)
    if model is None:
        raise _Unfoldable(
            f"no static storage model for constructor {tail!r}; add one "
            f"to _SCHEME_MODELS and a cap to SCHEME_METADATA_BUDGETS")
    args = geom.bind(cls, kwargs)
    if preset is not None:
        args.update(preset)
    return model(geom, args)


@dataclass(frozen=True)
class SchemeBudget:
    """One registered scheme's folded figure vs. its declared cap."""

    scheme: str
    bytes: Optional[int]     # None when the fold was blocked
    limit: Optional[int]     # None when the scheme has no declared cap
    problem: Optional[str]   # finding text, None when within budget
    rel: str
    line: int
    col: int


@dataclass
class SchemeBudgetReport:
    """Every registered scheme's figure, plus the declared cap table."""

    schemes: List[SchemeBudget]
    declared: Dict[str, Optional[int]]
    declared_loc: Tuple[str, int, int]

    def figure(self, scheme: str) -> Optional[int]:
        for row in self.schemes:
            if row.scheme == scheme:
                return row.bytes
        return None


def _shown_bytes(nbytes: int) -> str:
    return "unlimited" if nbytes >= UNLIMITED_BYTES else f"{nbytes} B"


def compute_scheme_budgets(project: Project
                           ) -> Optional[SchemeBudgetReport]:
    """Fold every SCHEMES entry's metadata bytes and bind each figure
    to the declared ``SCHEME_METADATA_BUDGETS`` cap.

    Returns None when the linted set lacks either a ``SCHEMES`` dict or
    the cap table — partial lint runs must not guess at caps they
    cannot see (the same gating ENV002 applies to the env contract).
    """
    facts = project.facts_for("budget")
    declared: Optional[Dict[str, Optional[int]]] = None
    declared_loc: Optional[Tuple[str, int, int]] = None
    for rel in sorted(facts):
        table = facts[rel].get("scheme_budgets")
        if table:
            declared = dict(table["entries"])
            declared_loc = (rel, table["line"], table["col"])
            break
    if declared is None or declared_loc is None:
        return None
    from .registry import _schemes_entries

    registry = project.facts_for("scheme_registry")
    schemes_files = sorted(r for r, f in registry.items()
                           if f.get("has_schemes"))
    if not schemes_files:
        return None
    geom = _Geometry(project)
    rows: List[SchemeBudget] = []
    for rel in schemes_files:
        tree = project.context(rel).tree
        if tree is None:
            continue
        for key, value in _schemes_entries(tree):
            if not (isinstance(key, ast.Constant) and
                    isinstance(key.value, str)):
                continue
            name = key.value
            line, col = key.lineno, key.col_offset + 1
            limit = declared.get(name, _MISSING)
            nbytes: Optional[int] = None
            problem: Optional[str] = None
            try:
                nbytes = _scheme_bytes(geom, value)
            except _Unfoldable as exc:
                problem = (f"cannot statically fold the metadata "
                           f"storage: {exc.reason}")
            if problem is None and nbytes is not None:
                if limit is _MISSING:
                    problem = (f"metadata computes to "
                               f"{_shown_bytes(nbytes)} but the scheme "
                               f"has no declared cap in "
                               f"SCHEME_METADATA_BUDGETS; declare one")
                elif limit is not None and nbytes > limit:
                    problem = (f"metadata computes to "
                               f"{_shown_bytes(nbytes)}, over the "
                               f"declared cap of {limit} B in "
                               f"SCHEME_METADATA_BUDGETS")
            rows.append(SchemeBudget(
                name, nbytes, None if limit is _MISSING else limit,
                problem, rel, line, col))
    return SchemeBudgetReport(rows, declared, declared_loc)


@register
class SchemeMetadataBudgetRule(Rule):
    id = "BUD004"
    name = "scheme-over-metadata-budget"
    summary = ("a registered scheme's constant-folded metadata storage "
               "is over (or missing from) its declared cap in "
               "SCHEME_METADATA_BUDGETS, or cannot be folded at all")
    scope = "project"
    facts = ("budget", "scheme_registry")

    def check_project(self, project: Project) -> Iterable[Finding]:
        report = compute_scheme_budgets(project)
        if report is None:
            return
        for row in report.schemes:
            if row.problem is not None:
                yield Finding(self.id, row.rel, row.line, row.col,
                              f"scheme {row.scheme!r}: {row.problem}")
        # The proposal's per-scheme fold must agree with the Table II
        # fold (BUD002's accounting) — two independent models of the
        # same hardware drifting apart means one of them is wrong.
        anchor = next((r for r in report.schemes
                       if r.scheme == "sn4l_dis_btb" and
                       r.bytes is not None), None)
        if anchor is None:
            return
        tableii = compute_budget(project)
        if tableii is not None and tableii.items and \
                not tableii.unresolved and \
                anchor.bytes != tableii.total_bytes:
            yield Finding(
                self.id, anchor.rel, anchor.line, anchor.col,
                f"scheme 'sn4l_dis_btb': per-scheme fold "
                f"({anchor.bytes} B) disagrees with the Table II fold "
                f"({tableii.total_bytes} B); the two storage "
                f"accountings drifted apart")
