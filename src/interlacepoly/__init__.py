"""Interlace polynomials of graphs, isotropic systems over the Klein
group, and circuit partition polynomials of 4-regular Eulerian
digraphs, with every quantity computable by independent routes that
cross-validate each other."""

from .eulerian import (
    ChordDiagram,
    EulerianDigraph,
    chord_diagram_from_circuit,
    circle_graph,
    circuit_partition_poly,
    euler_circuit,
    martin_poly,
    parse_chord_word,
    parse_digraph,
    random_eulerian_digraph,
)
from .graph import SimpleGraph, parse_graph
from .interlace import (
    QN_METHODS,
    q2_closed,
    q2_reduction,
    qn,
    qn_avdh,
    qn_bouchet,
    qn_closed,
    qn_from_q2,
    qn_isotropic,
    qn_recursive,
)
from .isotropic import (
    IsotropicSystem,
    KVector,
    graphic_system,
    tutte_martin_canonical,
    tutte_martin_restricted,
)
from .poly import BiPoly, UniPoly
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "ChordDiagram",
    "EulerianDigraph",
    "IsotropicSystem",
    "KVector",
    "QN_METHODS",
    "SimpleGraph",
    "UniPoly",
    "chord_diagram_from_circuit",
    "circle_graph",
    "circuit_partition_poly",
    "euler_circuit",
    "graphic_system",
    "martin_poly",
    "parse_chord_word",
    "parse_digraph",
    "parse_graph",
    "q2_closed",
    "q2_reduction",
    "qn",
    "qn_avdh",
    "qn_bouchet",
    "qn_closed",
    "qn_from_q2",
    "qn_isotropic",
    "qn_recursive",
    "random_eulerian_digraph",
    "run_verification",
    "tutte_martin_canonical",
    "tutte_martin_restricted",
]
