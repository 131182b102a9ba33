"""High-order random walks and expansion certification on 2-dimensional complexes.

Each public name is imported from its layer module on first access (PEP 562
module ``__getattr__``), so ``import hdxwalk`` executes no layer and a caller
pays only for the modules whose names it reads.
"""

import importlib

__version__ = "0.1.0"

_LAYER_NAMES = {
    "cochain": "coboundary_space cocycle_space",
    "complexes": "Complex2 complete_complex dumps_complex load_complex random_complex",
    "expansion": "ExpansionCertificate certify_exact large_cuts_audit mixing_rate_bound",
    "graphs": "Graph edge_graph underlying_graph",
    "spectral": "SpectralReport cheeger_exhaustive normalized_spectrum",
    "walk": "high_order_step_counts max_distances",
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names.split()}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    globals()[name] = value
    return value
