"""Refusal paths of the CLI and the library that no other test reaches."""

import pytest

from knotqc.anyon import QubitLayout, fusion_probabilities, init_state
from knotqc.braid import BraidWord
from knotqc.errors import ParseError
from knotqc.laurent import LaurentPoly1, LaurentPoly2, exact_div
from knotqc.report import InvariantReport

from helpers import run


def test_bad_complex_t_refused(capsys):
    code, out, err = run(
        capsys, "invariant", "--braid", "1 1 1", "--invariant", "jones-at", "--t", "1+zi"
    )
    assert (code, out) == (1, "")
    assert "1+zi" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--braid", "1", "--gauss", "O1+U1+", "--invariant", "jones"],
        ["invariant", "--invariant", "jones"],
        ["realizable", "--gauss", "O1+U1+", "--unsigned", "O1 U1"],
        ["realizable"],
    ],
)
def test_both_or_neither_input_refused(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (1, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--invariant", "jones", "--braid"],
        ["invariant", "--invariant", "jones", "--gauss"],
        ["realizable", "--gauss"],
        ["realizable", "--unsigned"],
        ["estimate", "--epsilon", "0.5", "--delta", "0.5", "--braid"],
    ],
)
def test_missing_input_file_refused(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "@" + str(tmp_path / "missing.txt"))
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_braid_word_refusals():
    with pytest.raises(ValueError, match="at least one strand"):
        BraidWord(0)
    with pytest.raises(ValueError, match="out of range"):
        BraidWord(3, (3,))
    with pytest.raises(ValueError, match="different strand counts"):
        BraidWord(2) * BraidWord(3)


def test_exact_div_edge_cases():
    with pytest.raises(ZeroDivisionError):
        exact_div(LaurentPoly1({0: 1}), LaurentPoly1())
    assert exact_div(LaurentPoly1(), LaurentPoly1({2: 3})) == LaurentPoly1()
    with pytest.raises(ValueError, match="do not divide"):
        exact_div(LaurentPoly1({0: 1}), LaurentPoly1({0: 2}))


def test_negative_power_and_zero_valuation_refused():
    with pytest.raises(ValueError, match="negative powers"):
        LaurentPoly2({(1, 0): 1, (0, 1): 1}) ** -1
    with pytest.raises(ValueError, match="no valuation"):
        LaurentPoly1().valuation()


def test_report_line_without_equals_refused():
    with pytest.raises(ParseError, match="bad report line"):
        InvariantReport.from_text("input=braid:1\ninvariant jones")


def test_anyon_state_refusals():
    with pytest.raises(ValueError, match="at least one qubit"):
        init_state(0)
    state, layout = init_state(1), QubitLayout.default(1)
    for qubit in (-1, 1):
        with pytest.raises(ValueError, match="no qubit"):
            fusion_probabilities(state, qubit, layout)
