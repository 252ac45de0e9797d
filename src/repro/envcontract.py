"""The environment-variable contract: every ``REPRO_*`` knob, declared.

The simulator's behaviour-affecting environment variables are easy to
grow and easy to rot: a reading site with a typo'd name silently falls
back to its default, a renamed variable leaves dead documentation, and
two sites can disagree about what "unset" means.  This module is the
single source of truth the ENV lint pack checks reads against
(``ENV001``-``ENV003``) and the generator for the docs table and the
CI artifact (``repro lint --env-table``).

Declaring a variable here is a *contract*: the name is reserved, the
type documents how the raw string is interpreted, and ``default`` is
the exact fallback every reading site must pass (``None`` means the
site reads ``os.environ.get(NAME)`` with no fallback and handles the
missing case itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["EnvVar", "CONTRACT", "contract", "render_markdown"]


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable."""

    name: str
    #: How the raw string is interpreted: ``flag`` (truthy strings),
    #: ``path``, ``int``, ``float`` or ``bytes`` (size suffixes).
    type: str
    #: The fallback every reading site must use; ``None`` = no fallback.
    default: Optional[str]
    description: str


CONTRACT: Tuple[EnvVar, ...] = (
    EnvVar("REPRO_CACHE_DIR", "path", None,
           "Root of the sharded result store; unset picks the "
           "platform cache directory."),
    EnvVar("REPRO_CACHE_DISABLE", "flag", "",
           "Set to 1/true/yes to bypass the result store entirely "
           "(every run recomputes)."),
    EnvVar("REPRO_CACHE_BUDGET", "bytes", None,
           "LRU eviction budget for the store, e.g. 500M or 2G; "
           "unset means unbounded."),
    EnvVar("REPRO_JOBS", "int", "",
           "Worker-process count for parallel sweeps and the lint "
           "file pass; empty/unset means serial."),
    EnvVar("REPRO_TRACE_SAMPLE", "float", "",
           "Trace sampling rate in [0, 1]; empty/unset falls back to "
           "the tracer's compiled-in default."),
)


def contract() -> Dict[str, EnvVar]:
    """The declared variables, keyed by name."""
    return {var.name: var for var in CONTRACT}


def _show_default(default: Optional[str]) -> str:
    if default is None:
        return "*(none)*"
    if default == "":
        return '`""`'
    return f"`{default}`"


def render_markdown() -> str:
    """The contract as a GitHub-flavoured markdown table.

    This exact text is embedded in ``docs/static-analysis.md`` (a test
    keeps the two in sync) and uploaded as a CI artifact via
    ``repro lint --env-table``.
    """
    lines = [
        "| variable | type | default | description |",
        "|---|---|---|---|",
    ]
    for var in CONTRACT:
        lines.append(f"| `{var.name}` | {var.type} | "
                     f"{_show_default(var.default)} | {var.description} |")
    return "\n".join(lines) + "\n"
