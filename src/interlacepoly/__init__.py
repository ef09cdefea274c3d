"""Interlace polynomials of graphs, isotropic systems over the Klein
group, and circuit partition polynomials of 4-regular Eulerian
digraphs, with every quantity computable by independent routes that
cross-validate each other.

Each public name is imported from its module on first use, so that
importing the package loads none of its modules."""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "eulerian": ("ChordDiagram", "EulerianDigraph", "chord_diagram_from_circuit",
                 "circle_graph", "circuit_partition_poly", "euler_circuit",
                 "martin_poly", "parse_chord_word", "parse_digraph",
                 "random_eulerian_digraph"),
    "graph": ("SimpleGraph", "parse_graph"),
    "interlace": ("QN_METHODS", "q2_closed", "q2_reduction", "qn", "qn_avdh",
                  "qn_bouchet", "qn_closed", "qn_from_q2", "qn_isotropic",
                  "qn_recursive"),
    "isotropic": ("IsotropicSystem", "KVector", "graphic_system",
                  "tutte_martin_canonical", "tutte_martin_restricted"),
    "poly": ("BiPoly", "UniPoly"),
    "verify": ("run_verification",),
}

# Each public name and the module that defines it.
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
