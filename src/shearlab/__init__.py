"""Combinatorial Teichmueller theory of surfaces with holes.

Fat graphs with shear coordinates, geodesic functions as exact exponential
polynomials, flip moves, the edge Poisson structure with Goldman/skein
identities, and the quantum-torus quantization with quantum-dilogarithm
numerics.
"""

from .exppoly import (
    ExpPoly,
    LaurentPoly,
    QExpPoly,
    classical_limit_commutator,
    poisson_bracket,
    qmul,
)
from .fatgraph import FatGraph, FatGraphError, once_punctured_torus, tetrahedron
from .flips import FlipRecord, flip, transport_path
from .geodesics import (
    geodesic_function,
    graph_simple,
    path_matrix,
    product_traces,
    torus_casimir,
    turn_sequence,
)
from .hyperbolic import MoebiusMap, UhpPoint
from .quantum import QDilogParams, QGeodesic, phi_hbar, quantum_geodesic

__all__ = [
    "ExpPoly",
    "FatGraph",
    "FatGraphError",
    "FlipRecord",
    "LaurentPoly",
    "MoebiusMap",
    "QDilogParams",
    "QExpPoly",
    "QGeodesic",
    "UhpPoint",
    "classical_limit_commutator",
    "flip",
    "geodesic_function",
    "graph_simple",
    "once_punctured_torus",
    "path_matrix",
    "phi_hbar",
    "poisson_bracket",
    "product_traces",
    "qmul",
    "quantum_geodesic",
    "tetrahedron",
    "torus_casimir",
    "transport_path",
    "turn_sequence",
]

__version__ = "0.1.0"
