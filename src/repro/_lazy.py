"""Lazy package exports (PEP 562).

A package lists its public names in one ``name -> submodule`` table and
installs the ``__getattr__``/``__dir__`` pair returned by
:func:`lazy_exports`.  Each name is imported from its submodule on first
access and then cached in the package namespace, so importing one
submodule (``repro.engine.engine``) no longer executes its siblings
(``repro.engine.store``, ``repro.engine.parallel``, ...).  A one-shot
``analyze`` thereby never loads the store, the process pool or their
stdlib dependencies.
"""

from __future__ import annotations

import sys
import types
from importlib import import_module
from typing import Callable, Dict, List, Tuple


class _ExportsFirst(types.ModuleType):
    """A package whose exports outrank same-named submodules.

    Importing ``pkg.name`` binds the submodule as attribute ``name`` of
    the package.  When ``name`` is also an export of that very submodule
    (``repro.transform.vectorize``), the export is bound instead — what
    an eager ``from pkg.name import name`` in ``__init__`` left behind.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType) and name in self.__dict__.get(
            "_exports_first", ()
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``table`` lazily.

    ``table`` maps each exported name to the submodule of ``package``
    (relative name) that defines it.  Unknown names raise
    :class:`AttributeError`, so ``from package import submodule`` still
    falls back to importing the submodule.
    """
    module = sys.modules[package]
    shadowed = frozenset(name for name, sub in table.items() if name == sub)
    if shadowed:
        module.__class__ = _ExportsFirst
        module._exports_first = shadowed

    def __getattr__(name: str) -> object:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(table))

    return __getattr__, __dir__
