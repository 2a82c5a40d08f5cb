"""The public names of the package."""

import knotqc

PUBLIC = [
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
    "PDDiagram",
    "ParseError",
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


def test_public_names_are_pinned():
    assert sorted(knotqc.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in knotqc.__all__:
        assert getattr(knotqc, name) is not None
