"""Package exports that load on first use (PEP 562).

Each package ``__init__`` names its exports once, in a table from each
defining module to the names it exports::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.fleet.fleet": ["FleetConfig", "TrackingFleet"],
        "repro.fleet.router": ["ShardRouter"],
    })

Importing the package loads none of those modules. The first access to a
name imports its module, and the package keeps the object, so later
lookups never reach ``__getattr__``. A name outside the table is looked up
as a submodule (``from repro.core import anf`` imports
``repro.core.anf``), so a process loads exactly the modules it touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``,
    which maps each defining module to the names the package exports from
    it."""
    home: Dict[str, str] = {
        name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            setattr(sys.modules[package], name, value)
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}") from None

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__
