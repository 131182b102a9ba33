"""Modules imported on first attribute access rather than at package import.

numpy is one: commands that never compute with arrays (``--version``,
``validate``, ``gen``, ``cocycles``, ``audit --lemma outgoing`` where the
identity holds, ``certify`` where every coset table has at most
2**``spectral.INT_TABLE_BITS`` entries, ``audit``'s other lemmas where in
addition G0 has at most INT_TABLE_BITS vertices and lambda2 < 1/2 (K4-K6, the
octahedron, RP^2_6: the cut scans read packed ints at every size), ``cheeger``
on every graph the table limit admits, usage and input errors)
start without paying for it.  Every module takes ``np`` from here; nothing may
read an ``np.`` attribute at import time, which annotations under
``from __future__ import annotations`` do not.
``hdxwalk.cli`` loads its seven layer modules the same way, so each command
executes only the layers it calls.  This is the ``importlib.util.LazyLoader``
recipe of the importlib documentation ("Implementing lazy imports").
"""

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, executed when one of its attributes is first read.

    A submodule is also bound on its package, as an import statement binds it.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = lazy_import("numpy")
