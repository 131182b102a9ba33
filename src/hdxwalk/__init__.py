"""High-order random walks and expansion certification on 2-dimensional complexes."""

__version__ = "0.1.0"

from .cochain import (
    Chain,
    CodeSpace,
    coboundary,
    coboundary_edges,
    coboundary_space,
    coboundary_vertices,
    cocycle_space,
    distance_to_space,
    local_view,
)
from .complexes import (
    Complex2,
    DegreeProfile,
    ValidationReport,
    complete_complex,
    degree_profile,
    dumps_complex,
    load_complex,
    random_complex,
    validate,
)
from .expansion import ExpansionCertificate, certify_exact, large_cuts_audit, mixing_rate_bound
from .graphs import Graph, edge_graph, underlying_graph
from .spectral import SpectralReport, cheeger_exhaustive, normalized_spectrum
from .walk import Distribution, evolve_exact, high_order_step_counts, rapid_mixing_audit

__all__ = [
    "Chain",
    "CodeSpace",
    "Complex2",
    "DegreeProfile",
    "Distribution",
    "ExpansionCertificate",
    "Graph",
    "SpectralReport",
    "ValidationReport",
    "certify_exact",
    "cheeger_exhaustive",
    "coboundary",
    "coboundary_edges",
    "coboundary_space",
    "coboundary_vertices",
    "cocycle_space",
    "complete_complex",
    "degree_profile",
    "distance_to_space",
    "dumps_complex",
    "edge_graph",
    "evolve_exact",
    "high_order_step_counts",
    "large_cuts_audit",
    "load_complex",
    "local_view",
    "mixing_rate_bound",
    "normalized_spectrum",
    "random_complex",
    "rapid_mixing_audit",
    "underlying_graph",
    "validate",
]
