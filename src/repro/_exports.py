"""Package exports resolved on first use (PEP 562).

A package init that re-exports its submodules' names eagerly makes every
importer of any one submodule load them all: importing a session would load
the paper-literal oracle behind ``repro.core``.  A package built with
:func:`lazy_exports` imports a defining module when one of its names is
first read — an attribute access, ``from package import name`` or
``from package import *`` — and keeps the value, so the next read is a
plain global.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package, exports):
    """``(__all__, __getattr__)`` for ``package`` (its ``__name__``), whose
    public names are ``exports``: defining module -> names, in ``__all__``
    order."""
    owners = {name: module for module, names in exports.items()
              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name)) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return list(owners), __getattr__
