"""Lazy package re-exports (PEP 562 module ``__getattr__``/``__dir__``).

Every ``repro`` package ``__init__`` names each public name once, in a
table mapping it to the submodule that defines it, and hands the table
to :func:`attach`::

    __getattr__, __dir__, __all__ = attach(__name__, globals(), {
        "SDFGraph": ".graph",
        "canonical_hash": ".io",
    })

A submodule is imported the first time one of its names is read, so a
cold ``repro compile`` compiles only the modules it executes.  The
value is then cached in the package namespace, so later reads are plain
attribute lookups.  ``from pkg import *`` works because ``__all__``
lists every table name, and ``pkg.<submodule>`` imports the submodule
on first access.

A name equal to its own submodule's name (``scheduling.dppo``,
``allocation.first_fit``) is bound eagerly instead.  Loading a
submodule makes the import system set the package attribute of that
name to the module object; a lazy ``__getattr__`` would then never be
consulted and the export would silently become the module.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def attach(
    package: str,
    namespace: Dict[str, Any],
    exports: Mapping[str, str],
    extra: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for a lazily re-exporting package.

    ``exports`` maps each public name to the module that defines it,
    relative to ``package``.  ``extra`` names public objects the package
    defines itself; they join ``__all__`` after the table names.
    """
    for name, module in exports.items():
        if module == "." + name:
            namespace[name] = getattr(import_module(module, package), name)

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, [*exports, *extra]
