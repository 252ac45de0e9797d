"""Package names that resolve on first access (PEP 562).

A package ``__init__`` that re-exports its submodules' names imports
every submodule, and the simulator with them, as soon as any one of its
names is read.  A lazy package keeps its real import lines under ``if
TYPE_CHECKING:``, so type checkers and ``repro lint`` see every import
edge, and lists the same names in a table that :func:`lazy_exports`
turns into the module's ``__getattr__``: a name imports its submodule
the first time it is read.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Tuple


def lazy_exports(package: str, table: Dict[str, Tuple[str, ...]]
                 ) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``.

    ``table`` maps a relative module name (``".engine"``) to the names
    the package re-exports from it, as its ``from .engine import ...``
    line does; the key ``"."`` lists exported submodules (``from .
    import figures``).  A resolved name is set on the package, so the
    hook runs once per name.
    """
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not importlib.import_module, so that ``python
        # -X importtime`` lists what a name loads.
        full = f"{package}.{name}" if module == "." else package + module
        __import__(full)
        value = sys.modules[full]
        if module != ".":
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
