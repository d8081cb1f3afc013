"""Lazy package surfaces: re-exports that import their module on first access.

A package ``__init__`` that imports every submodule makes each importer
pay for all of them: the serving process would load the learner, numpy
and the corpus generator to answer keyword queries.  The packages on the
way from ``runtime-serve`` to those modules declare their re-exports
instead, and :func:`lazy_exports` resolves each one through PEP 562's
module ``__getattr__`` the first time it is read, caching the value in
the package's globals so later reads are plain dict hits::

    __all__, __getattr__, __dir__ = lazy_exports(
        globals(), {"repro.runtime.engine": ("SynthesisEngine", "IngestReport")}
    )

``from package import Name``, ``package.Name`` and ``from package import
*`` (which walks ``__all__``) all go through the same hook.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: MutableMapping[str, object], exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package's lazy re-exports.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule to the names the package re-exports from it.  The
    ``__getattr__`` hook looks a name up in the inverted name → module
    map, imports the module, and stores the value in ``namespace``.
    """
    package = namespace["__name__"]
    module_of: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(module_of))

    return list(module_of), __getattr__, __dir__
