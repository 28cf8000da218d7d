"""PEP 562 lazy package namespaces.

A package built with :func:`lazy_namespace` imports none of its
submodules up front.  Each exported name loads the one submodule that
defines it on first access and is cached in the package afterwards, so
``from repro.core import analyze`` costs the analysis modules and
nothing else.  Any other attribute that names a submodule imports it,
as an eager ``__init__`` would have made it available.

One trap comes with laziness: importing a submodule binds it as an
attribute of its package, which hides an exported name that equals
the submodule's own name (``repro.core.standardize`` the function
vs. the module).  Packages bind such names eagerly, before anything
can import the submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_namespace(package: str, exports: Dict[str, Tuple[str, ...]]
                   ) -> Tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule name, relative to the package, to the
    names the package re-exports from it.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in origin:
            module = importlib.import_module(f"{package}.{origin[name]}")
            value = namespace[name] = getattr(module, name)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


def exported_names(exports: Dict[str, Tuple[str, ...]]) -> List[str]:
    """Every re-exported name of ``exports``, in table order."""
    return [name for names in exports.values() for name in names]
