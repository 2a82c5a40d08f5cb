"""Numeric evaluation far from the unit circle: a value that is not a
finite double, or a Burau matrix whose rounding bound passes 1e-6 of its
largest entry, is refused, never returned and never a traceback."""

import random
from fractions import Fraction

import numpy as np
import pytest

from knotqc.braid import BraidWord
from knotqc.burau import _burau, burau_numeric
from knotqc.errors import BudgetExceededError
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


# (1 -2 3)^40 and its inverse: the identity, whose entries at t = 10 came
# out near 5e59 from rounding alone.
CANCELLING = " ".join(["1 -2 3"] * 40 + ["-3 2 -1"] * 40)


def test_cli_refuses_burau_lost_to_rounding(capsys):
    argv = ["invariant", "--braid", f"n=4 {CANCELLING}", "--invariant", "burau", "--t", "10"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("budget error:") and "rounding" in err


def test_burau_numeric_is_refused_or_within_its_bound():
    # 200 (word, t) pairs, |t| from 1e-3 to 1e3 and words of 1-200 letters,
    # against the exact matrix over the rationals by the same letter rule:
    # a double t is a dyadic rational.
    rng = random.Random(18)
    verdicts = []
    for _ in range(200):
        t = rng.choice((1, -1)) * 10 ** rng.uniform(-3, 3)
        n = rng.randint(2, 5)
        letters = [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(rng.randint(1, 200))]
        word = BraidWord(n, tuple(letters))
        try:
            m = burau_numeric(word, t)
        except BudgetExceededError:
            verdicts.append("refused")
            continue
        x = Fraction(t)
        exact = _burau(word, Fraction(0), Fraction(1), x, 1 / x, 1 - x, 1 - 1 / x)
        assert np.abs(m - exact.astype(float)).max() <= 1e-6 * max(1.0, np.abs(m).max())
        verdicts.append("answered")
    assert verdicts.count("answered") >= 40 and verdicts.count("refused") >= 40
