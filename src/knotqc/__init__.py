"""Exact knot invariants from braids and diagrams, plus a Fibonacci-anyon
simulator whose measurement statistics approximate Jones evaluations."""

import importlib

from .braid import BraidWord, Permutation, parse_braid, random_braid
from .diagram import (
    Crossing,
    GaussCode,
    PDDiagram,
    closure_to_diagram,
    diagram_from_gauss,
    euler_characteristic,
    gauss_from_diagram,
    parse_gauss,
    parse_unsigned_gauss,
    realizable,
    realizable_unsigned,
)
from .errors import BudgetExceededError, ParseError
from .laurent import LaurentPoly1, LaurentPoly2, coeff_z, specialize_jones
from .report import InvariantReport
from .skein import (
    DELTA,
    SkeinBudget,
    homfly,
    homfly_braid,
    homfly_coeff,
    homfly_with_stats,
    jones,
    jones_at,
)

# The burau and anyon names load numpy, so they are imported on first use
# (PEP 562) and, looked up each time, are not kept in this module's globals.
_LAZY = dict.fromkeys(
    ("PolyMatrix", "burau_numeric", "burau_symbolic", "check_braid_relations"), "burau"
) | dict.fromkeys(
    (
        "AnyonState",
        "JonesEstimate",
        "QubitLayout",
        "apply_braid",
        "fusion_basis",
        "fusion_probabilities",
        "init_state",
        "jones_estimate",
        "jones_via_trace",
        "markov_trace",
        "prob_all_zero",
        "sample_measurement",
        "sigma_unitary",
        "trace_normalization",
    ),
    "anyon",
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "AnyonState",
    "BraidWord",
    "BudgetExceededError",
    "Crossing",
    "DELTA",
    "GaussCode",
    "InvariantReport",
    "JonesEstimate",
    "LaurentPoly1",
    "LaurentPoly2",
    "ParseError",
    "PDDiagram",
    "Permutation",
    "PolyMatrix",
    "QubitLayout",
    "SkeinBudget",
    "apply_braid",
    "burau_numeric",
    "burau_symbolic",
    "check_braid_relations",
    "closure_to_diagram",
    "coeff_z",
    "diagram_from_gauss",
    "euler_characteristic",
    "fusion_basis",
    "fusion_probabilities",
    "gauss_from_diagram",
    "homfly",
    "homfly_braid",
    "homfly_coeff",
    "homfly_with_stats",
    "init_state",
    "jones",
    "jones_at",
    "jones_estimate",
    "jones_via_trace",
    "markov_trace",
    "parse_braid",
    "parse_gauss",
    "parse_unsigned_gauss",
    "prob_all_zero",
    "random_braid",
    "realizable",
    "realizable_unsigned",
    "sample_measurement",
    "sigma_unitary",
    "specialize_jones",
    "trace_normalization",
]

__version__ = "0.1.0"
