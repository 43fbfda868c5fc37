"""Package exports that import their module on first access (PEP 562).

A package ``__init__`` binds the names it can import cheaply and hands
the rest to :func:`lazy_exports`, so that ``import repro.core`` does not
load scipy for a caller that only runs the greedy heuristic::

    __getattr__ = lazy_exports(globals(), {
        "repro.core.formulation": ("HermesMilp", "MilpFormulation"),
    })

``from repro.core import HermesMilp``, ``repro.core.HermesMilp`` and
``from repro.core import *`` all go through the hook the first time.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Mapping, Sequence


def lazy_exports(
    namespace: Dict[str, Any], modules: Mapping[str, Sequence[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` that resolves ``modules``' names on use.

    ``modules`` maps each defining module to the names the package
    re-exports from it.  The first lookup of such a name imports its
    module and stores the value in ``namespace`` (the package's
    globals), so every later lookup is a plain global read that never
    reaches the hook.
    """
    owners = {
        name: module for module, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
