"""Every module in ``src/repro`` is reached from an entry point.

The import graph is read with :mod:`ast`; nothing is imported. The roots
are the CLI (``repro.cli``, ``repro.__main__``), every ``src/repro``
module with a ``__main__`` block, every script in ``benchmarks/``,
``perfbench/`` and ``examples/``, and the ``repro.obs`` and ``repro.perf``
packages, which every instrumented module uses.

Importing a package does not reach everything it re-exports: a top-level
``from ... import`` in a package ``__init__`` is an edge only if the
``__init__``'s own code uses the bound name, and an entry in its
:func:`repro.exports.lazy_exports` table is never one. ``from pkg import
Name`` (or ``pkg.Name`` on an imported package) is followed through the
``__init__``'s import or table entry to the module that defines ``Name``. Tests are not roots, so a module only
its own tests import counts as unreached.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SCRIPT_DIRS = ("benchmarks", "perfbench", "examples")
ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_PACKAGES = ("repro.obs", "repro.perf")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES: Dict[str, Path] = {
    _module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _export_table(node: ast.AST) -> Optional[ast.Dict]:
    """The table of a ``lazy_exports(__name__, {module: [names]})`` call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports" and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)):
        return node.args[1]
    return None


@lru_cache(maxsize=None)
def _bindings(name: str) -> Dict[str, Tuple[str, str]]:
    """Names a module binds by ``from X import A [as B]``: B -> (X, A).
    A package's ``lazy_exports`` table entry ``X: [..., A, ...]`` binds A
    the same way."""
    out = {}
    for node in ast.walk(_parse(MODULES[name])):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
        table = _export_table(node)
        if table is not None:
            for module, names in zip(table.keys, table.values):
                for export in ast.literal_eval(names):
                    out[export] = (ast.literal_eval(module), export)
    return out


@lru_cache(maxsize=None)
def _resolve(module: str, attr: str) -> Optional[str]:
    """The module that ``from module import attr`` reaches (None outside
    ``src/repro``)."""
    if module not in MODULES:
        return None
    if attr in _bindings(module):
        return _resolve(*_bindings(module)[attr]) or module
    if f"{module}.{attr}" in MODULES:
        return f"{module}.{attr}"
    return module


def _edges(tree: ast.Module, package_init: bool) -> Set[str]:
    """The ``repro`` modules a parsed file reaches by its imports."""
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    top_level = set(map(id, tree.body))
    module_aliases: Dict[str, str] = {}
    edges: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    edges.add(alias.name)
                    if alias.asname:
                        module_aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound = alias.asname or alias.name
                if package_init and id(node) in top_level \
                        and bound not in loaded:
                    continue  # a re-export, not a use
                target = _resolve(node.module, alias.name)
                if target:
                    edges.add(target)
                if target == f"{node.module}.{alias.name}":
                    module_aliases[bound] = target
    # ``pkg.Name`` on an imported package reaches the module defining Name;
    # ``import a.b.c`` binds ``a``, so dotted chains resolve step by step.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if not isinstance(value, ast.Name):
                continue
            module = module_aliases.get(value.id, value.id)
            for attr in reversed(chain):
                target = _resolve(module, attr)
                if target is None:
                    break
                edges.add(target)
                if target != f"{module}.{attr}":
                    break
                module = target
    return edges


def _has_main_block(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"
               for node in tree.body)


def _ancestors(name: str):
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def reached_modules() -> Set[str]:
    frontier: Set[str] = set(ROOT_MODULES)
    for name, path in MODULES.items():
        if any(name == p or name.startswith(p + ".") for p in ROOT_PACKAGES):
            frontier.add(name)
        elif _has_main_block(_parse(path)):
            frontier.add(name)
    for directory in SCRIPT_DIRS:
        for script in sorted((REPO / directory).rglob("*.py")):
            frontier |= _edges(_parse(script), package_init=False)
    reached: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        # Importing a module runs its packages' ``__init__``s first.
        frontier.update(_ancestors(name))
        frontier |= _edges(_parse(MODULES[name]), _is_package(name))
    return reached


def test_reexport_resolves_to_defining_module():
    assert _resolve("repro", "LocBLE") == "repro.core.pipeline"
    assert _resolve("repro.core", "estimator") == "repro.core.estimator"


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - reached_modules())
    assert not unreached, (
        "modules no entry point reaches (delete them, or wire them in): "
        + ", ".join(unreached))
