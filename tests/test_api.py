"""The public names of the package."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_numpy_names_are_not_kept_in_the_package():
    # A name is looked up in its module each time, so a wrapper put on the
    # module and taken off again leaves no copy behind.
    from knotqc import anyon, burau

    assert knotqc.jones_via_trace is anyon.jones_via_trace
    assert knotqc.burau_numeric is burau.burau_numeric
    assert "jones_via_trace" not in vars(knotqc) and "burau_numeric" not in vars(knotqc)


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(knotqc.__file__).resolve().parent.parent))
    probe = "import sys, knotqc.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
