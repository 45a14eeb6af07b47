"""Package names whose module loads on first use (PEP 562 ``__getattr__``).

A centralized simulation runs neither the multi-site stack nor the offline
checkers, so the packages that re-export them import each providing module
only when one of its names is first read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``package`` for ``exports``: submodule -> its names.

    A submodule's own name resolves to the submodule; a resolved name is
    bound in the package, so the hook runs once per name.
    """
    providers = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name in exports:
            return import_module(f"{package}.{name}")
        if name not in providers:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{providers[name]}"), name)
        return value

    return __getattr__
