"""Scheme-registry consistency rules (REG001-REG003).

``repro.experiments.runner.SCHEMES`` is the single map from a scheme
name (every ``--scheme`` choice, every bench cell, every figure driver)
to an entry ``(constructor import path or None, keyword arguments,
FrontendConfig overrides)``.  A broken entry — a renamed class, a
constructor argument that no longer exists, an override key
``FrontendConfig`` dropped — only surfaces today when that scheme is
first simulated.  These rules verify the whole registry statically:

* **REG001** the import path must resolve to a callable (by importing
  its module when it lies in the ``repro`` package, else statically in
  the linted set) and the keyword arguments must bind to it;
* **REG002** every override key must be a ``FrontendConfig`` field;
* **REG003** every entry must be a literal of the canonical shape — a
  3-tuple of ``None``-or-string and two dicts with string keys — so the
  other two rules, the BUD004 storage fold and human readers can
  analyse it without running it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import PurePath
from typing import Iterable, List, Optional, Set, Tuple, Union

from ..astutil import find_class, static_bind
from ..framework import (
    Facts,
    FileContext,
    Finding,
    Project,
    Rule,
    fact_extractor,
    register,
)


@fact_extractor("scheme_registry")
def registry_facts(ctx: FileContext) -> Optional[Facts]:
    """Flag files holding a ``SCHEMES`` dict or a ``FrontendConfig``."""
    if ctx.tree is None:
        return None
    facts: Facts = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id == "SCHEMES" and \
                        isinstance(node.value, ast.Dict):
                    facts["has_schemes"] = True
        elif isinstance(node, ast.ClassDef) and \
                node.name == "FrontendConfig":
            facts["has_config"] = True
    return facts or None


def _config_fields(project: Project) -> Set[str]:
    """FrontendConfig field names, from the linted set when it declares
    the class, else from the installed dataclass."""
    fields: Set[str] = set()
    for rel, facts in project.facts_for("scheme_registry").items():
        if not facts.get("has_config"):
            continue
        tree = project.context(rel).tree
        cls = find_class(tree, "FrontendConfig") if tree is not None else None
        if cls is None:
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                fields.add(node.target.id)
    if fields:
        return fields
    try:
        import dataclasses

        from ...frontend.config import FrontendConfig
        return {f.name for f in dataclasses.fields(FrontendConfig)}
    except Exception:  # pragma: no cover - installed tree always imports
        return set()


def parse_entry(value: ast.AST
                ) -> Tuple[Optional[str], List[Tuple[str, ast.AST]],
                           List[Tuple[str, ast.AST]]]:
    """The fields of one canonical SCHEMES entry: the constructor's
    import path (None for no prefetcher), then its keyword arguments
    and the config overrides as ``(name, value node)`` pairs.  Raises
    ValueError naming the first shape problem (REG003)."""
    try:
        ast.literal_eval(value)
        if not isinstance(value, ast.Tuple) or len(value.elts) != 3:
            raise ValueError
    except ValueError:
        raise ValueError("entry must be a literal 3-tuple (constructor "
                         "import path or None, keyword arguments, "
                         "overrides)") from None
    path, kwargs, overrides = value.elts
    if not (isinstance(path, ast.Constant) and
            (path.value is None or isinstance(path.value, str))):
        raise ValueError("first element must be None or a constructor's "
                         "import path")
    fields: List[List[Tuple[str, ast.AST]]] = []
    for label, node in (("keyword arguments", kwargs),
                        ("overrides", overrides)):
        if not isinstance(node, ast.Dict) or not all(
                isinstance(k, ast.Constant) and isinstance(k.value, str)
                for k in node.keys):
            raise ValueError(f"{label} must be a dict literal with string "
                             f"keys")
        fields.append([(k.value, v) for k, v in zip(node.keys, node.values)
                       if isinstance(k, ast.Constant)])
    return path.value, fields[0], fields[1]


def _linted_definition(project: Project, module: str, attr: str
                       ) -> Optional[Union[ast.ClassDef, ast.FunctionDef]]:
    """Top-level ``attr`` of the linted file ``module`` names (matched
    on the trailing path parts), or None."""
    want = module.split(".")
    for rel in project.files():
        parts = list(PurePath(rel).with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts.pop()
        if parts[-len(want):] != want:
            continue
        tree = project.context(rel).tree
        for node in tree.body if tree is not None else ():
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and \
                    node.name == attr:
                return node
    return None


def _check_constructor(path: str, kwargs: List[Tuple[str, ast.AST]],
                       project: Project) -> Optional[str]:
    """Error description for a constructor path and its keyword
    arguments, or None when the path resolves and the arguments bind."""
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        return f"constructor {path!r} is not a dotted import path"
    if module_name.split(".")[0] == "repro":
        try:
            obj = getattr(importlib.import_module(module_name), attr)
        except ImportError as exc:
            return f"constructor module {module_name!r} does not import: " \
                   f"{exc}"
        except AttributeError:
            return f"constructor {attr!r} is not defined in {module_name}"
        if not callable(obj):
            return f"constructor {path!r} is not callable"
        try:
            inspect.signature(obj).bind(**{name: None for name, _ in kwargs})
        except TypeError as exc:
            return f"constructor signature mismatch for {attr}: {exc}"
        except ValueError:  # pragma: no cover - C callables without sigs
            return None
        return None
    # Static fallback (fixtures, trees outside the installed package).
    defn = _linted_definition(project, module_name, attr)
    if defn is None:
        return f"constructor {path!r} does not resolve in the linted set"
    call = ast.Call(func=ast.Name(id=attr, ctx=ast.Load()), args=[],
                    keywords=[ast.keyword(arg=name, value=value)
                              for name, value in kwargs])
    return static_bind(defn, call)


@register
class SchemeFactoryRule(Rule):
    id = "REG001"
    name = "scheme-factory"
    summary = ("a SCHEMES entry whose constructor import path does not "
               "resolve to a callable or whose keyword arguments do not "
               "bind to it")
    scope = "project"
    facts = ("scheme_registry",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        yield from _check_registry(project, want=self.id)


@register
class SchemeOverrideRule(Rule):
    id = "REG002"
    name = "scheme-override-key"
    summary = ("a SCHEMES override key that is not a FrontendConfig "
               "field; FrontendConfig(**overrides) would raise at run "
               "time")
    scope = "project"
    facts = ("scheme_registry",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        yield from _check_registry(project, want=self.id)


@register
class SchemeShapeRule(Rule):
    id = "REG003"
    name = "scheme-entry-shape"
    summary = ("a SCHEMES entry that is not a literal (constructor "
               "import path or None, keyword-arguments dict, overrides "
               "dict); opaque entries cannot be statically verified")
    scope = "project"
    facts = ("scheme_registry",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        yield from _check_registry(project, want=self.id)


def _check_registry(project: Project, want: str) -> Iterable[Finding]:
    """Shared walk over every SCHEMES dict; yields only ``want``-rule
    findings so the three rules stay independently selectable."""
    facts = project.facts_for("scheme_registry")
    schemes_files = sorted(r for r, f in facts.items()
                           if f.get("has_schemes"))
    if not schemes_files:
        return
    config_fields = _config_fields(project)
    for rel in schemes_files:
        tree = project.context(rel).tree
        if tree is None:
            continue
        for key, value in _schemes_entries(tree):
            name = key.value if isinstance(key, ast.Constant) else "?"
            for finding in _check_entry(name, value, project,
                                        config_fields, rel):
                if finding.rule == want:
                    yield finding


def _schemes_entries(tree: ast.Module
                     ) -> List[Tuple[ast.AST, ast.AST]]:
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id == "SCHEMES" and \
                        isinstance(node.value, ast.Dict):
                    return list(zip(node.value.keys, node.value.values))
    return []


def _check_entry(name: str, value: ast.AST, project: Project,
                 config_fields: Set[str], rel: str) -> Iterable[Finding]:
    try:
        path, kwargs, overrides = parse_entry(value)
    except ValueError as exc:
        yield Finding("REG003", rel, value.lineno, value.col_offset + 1,
                      f"scheme {name!r}: {exc}")
        return
    if path is None:
        error = "keyword arguments given without a constructor" \
            if kwargs else None
    else:
        error = _check_constructor(path, kwargs, project)
    if error is not None:
        yield Finding("REG001", rel, value.lineno, value.col_offset + 1,
                      f"scheme {name!r}: {error}")
    for key, node in overrides:
        if config_fields and key not in config_fields:
            yield Finding(
                "REG002", rel, node.lineno, node.col_offset + 1,
                f"scheme {name!r}: override key {key!r} is not a "
                f"FrontendConfig field")
