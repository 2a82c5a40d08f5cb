"""Numeric evaluation far from the unit circle: a value that is not a
finite double is refused, never returned and never a traceback."""

import pytest

from knotqc.braid import BraidWord
from knotqc.burau import burau_numeric
from knotqc.laurent import LaurentPoly1, LaurentPoly2
from knotqc.skein import jones_at

from helpers import run

# A numpy RuntimeWarning on the way to a refusal fails the test.
pytestmark = pytest.mark.filterwarnings("error")

ALTERNATING = "1 -2 1 -2 1 -2 1 -2 1 -2 1 -2"


@pytest.mark.parametrize(
    "braid, invariant, t",
    [
        ("1 1 1", "jones-at", "1e300"),
        ("-1 -1 -1", "jones-at", "1e300"),
        ("-1 -1 -1", "jones-at", "1e-300"),
        (ALTERNATING, "burau", "1e-200"),
    ],
)
def test_cli_refuses_non_finite_values(capsys, braid, invariant, t):
    code, out, err = run(
        capsys, "invariant", "--braid", braid, "--invariant", invariant, "--t", t
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err and "Warning" not in err


def test_jones_at_underflow_refused():
    with pytest.raises(ValueError, match="finite"):
        jones_at(BraidWord(2, (-1, -1, -1)), 1e-300)


@pytest.mark.parametrize("x", [1e200, 1e200 + 0j, 1e-200, -1e200j])
def test_laurent_poly1_evaluate_refuses_overflow(x):
    with pytest.raises(ValueError, match="finite"):
        LaurentPoly1({8: 3, 1: 1, -8: 1}).evaluate(x)


@pytest.mark.parametrize("a, z", [(1e200, 1), (1e200 + 0j, 1), (1, 1e-200)])
def test_laurent_poly2_evaluate_refuses_overflow(a, z):
    with pytest.raises(ValueError, match="finite"):
        LaurentPoly2({(3, 2): 1, (0, -2): 1}).evaluate(a, z)


def test_burau_numeric_refuses_non_finite_matrix():
    with pytest.raises(ValueError, match="finite"):
        burau_numeric(BraidWord(3, tuple(int(e) for e in ALTERNATING.split())), 1e-200)



@pytest.mark.parametrize("t", ["1e308+1e308i", "1e308i", "1e-310"])
def test_cli_refuses_t_without_a_normal_reciprocal(capsys, t):
    # 1/t is subnormal, zero or infinite: -1 used to print the Burau matrix
    # [[0, 1], [0, 1]] at 1e308+1e308i, its t^-1 entry flushed to zero.
    code, out, err = run(capsys, "invariant", "--braid", "-1", "--invariant", "burau", "--t", t)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "1/t" in err


@pytest.mark.parametrize("t", [1e308 + 1e308j, 5e307 - 2e308j, 1e-310, float("inf")])
def test_burau_numeric_refuses_t_without_a_normal_reciprocal(t):
    with pytest.raises(ValueError, match="1/t"):
        burau_numeric(BraidWord(2, (1,)), t)


def test_burau_numeric_keeps_a_normal_reciprocal():
    # 1/1e307 is normal, so the -1 block keeps its t^-1 entry.
    m = burau_numeric(BraidWord(2, (-1,)), 1e307)
    assert m[1, 0] == 1 / 1e307 and m[1, 1] == 1 - 1 / 1e307
