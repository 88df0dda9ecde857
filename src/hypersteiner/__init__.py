"""Exact rational toolkit for hypergraphic Steiner tree relaxations.

Everything numeric in this package is an exact rational
(fractions.Fraction).  Floats appear only in presentation layers (JSON
"decimal" fields, benchmark timings).
"""

from .ratio import Rat
from .instance import SteinerInstance, SteinerTree, parse_stp, render_stp, generate_random
from .components import Component, enumerate_components, min_component_cost
from .hyperlp import FractionalSolution, BlowupGraph, solve_lp_exact
from .contract_alg import run as run_contraction
from .bcr_quasi import solve_bcr, natural_decomposition

__all__ = [
    "run_contraction",
    "solve_bcr",
    "natural_decomposition",
    "Rat",
    "SteinerInstance",
    "SteinerTree",
    "parse_stp",
    "render_stp",
    "generate_random",
    "Component",
    "enumerate_components",
    "min_component_cost",
    "FractionalSolution",
    "BlowupGraph",
    "solve_lp_exact",
]
