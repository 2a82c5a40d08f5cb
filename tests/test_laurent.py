import random

import pytest

from knotqc import skein
from knotqc.braid import random_braid
from knotqc.errors import ParseError
from knotqc.laurent import (
    LaurentPoly1,
    LaurentPoly2,
    coeff_z,
    exact_div,
    specialize_jones,
)

import oracle_laurent

S_MINUS_SINV = LaurentPoly1({1: 1, -1: -1})


def random_poly1(rng, max_terms=6, max_exp=8, max_coeff=50):
    return LaurentPoly1(
        {
            rng.randrange(-max_exp, max_exp + 1): rng.randrange(-max_coeff, max_coeff + 1)
            for _ in range(rng.randrange(max_terms + 1))
        }
    )


def random_poly2(rng, max_terms=6, max_exp=5, max_coeff=50, z_min=-3):
    return LaurentPoly2(
        {
            (
                rng.randrange(-max_exp, max_exp + 1),
                rng.randrange(z_min, max_exp + 1),
            ): rng.randrange(-max_coeff, max_coeff + 1)
            for _ in range(rng.randrange(max_terms + 1))
        }
    )


def test_additive_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = random_poly1(rng)
        assert p + LaurentPoly1.zero() == p
    p2 = random_poly2(rng)
    assert p2 + LaurentPoly2.zero() == p2


def test_square_expansion():
    assert S_MINUS_SINV * S_MINUS_SINV == LaurentPoly1({2: 1, 0: -2, -2: 1})


def test_monomial_distribution():
    delta = (LaurentPoly2.monomial(1, 1, 0) + LaurentPoly2.monomial(-1, -1, 0)) * (
        LaurentPoly2.monomial(1, 0, -1)
    )
    assert delta == LaurentPoly2({(1, -1): 1, (-1, -1): -1})
    assert len(delta.terms) == 2


@pytest.mark.parametrize("seed", range(5))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    for maker in (random_poly1, random_poly2):
        p, q, r = (maker(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_zero_coefficients_pruned():
    p = LaurentPoly1({3: 5, 0: 0})
    assert 0 not in p.terms
    assert (p - p) == LaurentPoly1.zero()
    assert not (p - p)


def test_eval_constant_and_symmetry():
    assert LaurentPoly1.one().evaluate(2.3 + 1j) == 1
    assert S_MINUS_SINV.evaluate(1) == 0


def test_eval_trefoil_jones_at_one():
    trefoil_jones = LaurentPoly1({8: -1, 6: 1, 2: 1})
    assert trefoil_jones.evaluate(1) == 1


def test_eval_multiplicative():
    rng = random.Random(7)
    for _ in range(30):
        p, q = random_poly1(rng), random_poly1(rng)
        x = rng.uniform(0.5, 2.0) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if x == 0:
            continue
        lhs = (p * q).evaluate(x)
        rhs = p.evaluate(x) * q.evaluate(x)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_eval_zero_rejected():
    with pytest.raises(ValueError):
        LaurentPoly1({-1: 1}).evaluate(0)
    with pytest.raises(ValueError):
        LaurentPoly2({(1, 1): 1}).evaluate(0, 1)
    with pytest.raises(ValueError):
        LaurentPoly2({(1, 1): 1}).evaluate(1, 0)


def test_two_variable_evaluation_matches_jones_specialization():
    # P(a = s^-2, z = s - s^-1) is the one-variable value at s, on the
    # HOMFLY of seeded closures and at generic points off the unit circle.
    rng = random.Random(29)
    for seed in range(40):
        p = skein.homfly(random_braid(rng.randrange(2, 5), rng.randrange(0, 9), seed))
        s = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.8, 0.8))
        got = p.evaluate(s**-2, s - 1 / s)
        want = specialize_jones(p).evaluate(s)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_specialize_trivial():
    assert specialize_jones(LaurentPoly2.one()) == LaurentPoly1.one()
    assert specialize_jones(LaurentPoly2.zero()) == LaurentPoly1.zero()


def test_specialize_unlink():
    delta = LaurentPoly2({(1, -1): 1, (-1, -1): -1})
    assert specialize_jones(delta) == LaurentPoly1({1: -1, -1: -1})


def test_specialize_trefoil():
    homfly = LaurentPoly2({(-4, 0): -1, (-2, 0): 2, (-2, 2): 1})
    assert specialize_jones(homfly) == LaurentPoly1({8: -1, 6: 1, 2: 1})


def test_specialize_multiplicative():
    rng = random.Random(3)
    for _ in range(25):
        p = random_poly2(rng, z_min=0)
        q = random_poly2(rng, z_min=0)
        assert specialize_jones(p * q) == specialize_jones(p) * specialize_jones(q)


def test_specialize_matches_frozen_oracle():
    rng = random.Random(15)
    memo: dict = {}
    while len(memo) < 1000:
        b = random_braid(rng.randrange(2, 5), rng.randrange(0, 9), rng.randrange(10**9))
        skein.homfly_braid(b, None, memo)
    values = list(memo.values())
    # Link values carry negative z-exponents, the delta^k of split pieces.
    assert sum(min(j for _, j in v.terms) < 0 for v in values) > 500
    delta = LaurentPoly2({(1, -1): 1, (-1, -1): -1})
    for k in range(8):
        p = random_poly2(rng, z_min=0)
        values += [p, p * delta**k, -(delta**k), LaurentPoly2({(k, -k): 1}) * p]
    for p in values:
        try:
            want = oracle_laurent.specialize_jones(p)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                specialize_jones(p)
        else:
            got = specialize_jones(p)
            assert got == want and got.to_text("s") == want.to_text("s")


def test_specialize_refuses_inexact_division_like_oracle():
    rng = random.Random(4)
    refused = 0
    for _ in range(200):
        p = random_poly2(rng, z_min=-3)
        try:
            want = oracle_laurent.specialize_jones(p)
        except ValueError as e:
            refused += 1
            with pytest.raises(ValueError, match=str(e)):
                specialize_jones(p)
        else:
            assert specialize_jones(p) == want
    assert refused > 50


def test_coeff_z_examples():
    assert coeff_z(LaurentPoly2.one(), 0) == LaurentPoly1.one()
    delta = LaurentPoly2({(1, -1): 1, (-1, -1): -1})
    assert coeff_z(delta, -1) == LaurentPoly1({1: 1, -1: -1})
    trefoil = LaurentPoly2({(-4, 0): -1, (-2, 0): 2, (-2, 2): 1})
    assert coeff_z(trefoil, 2) == LaurentPoly1({-2: 1})


def test_coeff_z_reconstructs():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly2(rng)
        rebuilt = LaurentPoly2.zero()
        for k in p.z_exponents():
            part = coeff_z(p, k)
            rebuilt = rebuilt + LaurentPoly2(
                {(i, k): c for i, c in part.terms.items()}
            )
        assert rebuilt == p


def test_exact_div():
    num = S_MINUS_SINV * LaurentPoly1({3: 2, -1: 5})
    assert exact_div(num, S_MINUS_SINV) == LaurentPoly1({3: 2, -1: 5})
    with pytest.raises(ValueError):
        exact_div(LaurentPoly1({0: 1}), S_MINUS_SINV)


def test_text_round_trip():
    trefoil = LaurentPoly2({(-4, 0): -1, (-2, 0): 2, (-2, 2): 1})
    assert trefoil.to_text() == "-a^-4 + 2*a^-2 + a^-2*z^2"
    assert LaurentPoly2.parse(trefoil.to_text()) == trefoil

    jones = LaurentPoly1({8: -1, 6: 1, 2: 1})
    assert jones.to_text() == "-s^8 + s^6 + s^2"
    assert LaurentPoly1.parse(jones.to_text()) == jones

    assert LaurentPoly1.parse("0") == LaurentPoly1.zero()
    assert LaurentPoly1.zero().to_text() == "0"
    assert LaurentPoly1.parse("1") == LaurentPoly1.one()
    assert LaurentPoly1({1: -1, -1: -1}).to_text() == "-s - s^-1"

    rng = random.Random(5)
    for _ in range(25):
        p = random_poly1(rng)
        assert LaurentPoly1.parse(p.to_text("t")) == p
        q = random_poly2(rng)
        assert LaurentPoly2.parse(q.to_text()) == q


def test_parse_errors():
    with pytest.raises(ParseError):
        LaurentPoly1.parse("s^")
    with pytest.raises(ParseError):
        LaurentPoly1.parse("s + + s")
    with pytest.raises(ParseError):
        LaurentPoly1.parse("a*b")  # two variables in a one-variable polynomial
    with pytest.raises(ParseError):
        LaurentPoly2.parse("q^2")
    with pytest.raises(ParseError):
        LaurentPoly2.parse("2*")
    # Digits are ASCII: int() rejects superscripts that str.isdigit admits.
    with pytest.raises(ParseError):
        LaurentPoly1.parse("s^²")
    with pytest.raises(ParseError):
        LaurentPoly2.parse("2²")


def test_grammar_cases():
    for blank in ("", " ", " \t\n "):
        assert LaurentPoly1.parse(blank) == LaurentPoly1.zero()
        assert LaurentPoly2.parse(blank) == LaurentPoly2.zero()
    # Juxtaposed factors multiply, with or without whitespace between them.
    assert LaurentPoly1.parse("2 3 s") == LaurentPoly1({1: 6})
    assert LaurentPoly2.parse("2a^2") == LaurentPoly2.parse("2*a^2") == LaurentPoly2({(2, 0): 2})
    assert LaurentPoly1.parse("s^2*s^-2") == LaurentPoly1.one()
    # Any one letter is the variable of a one-variable polynomial.
    assert LaurentPoly1.parse("α^2 - 3α") == LaurentPoly1({2: 1, 1: -3})
    with pytest.raises(ParseError):
        LaurentPoly1.parse("s + t")
    for bad in ("*s", "s*", "s^ 2"):
        for cls in (LaurentPoly1, LaurentPoly2):
            with pytest.raises(ParseError):
                cls.parse(bad.replace("s", "a"))


# Factors, signs and separators, plus characters near the grammar's edges:
# "_", non-ASCII letters, a combining mark and digits that are not ASCII
# (Arabic-Indic three, superscript two, Roman numeral eight).
_FUZZ_FACTORS = ("2", "13", "0", "007", "s", "a", "z", "a", "z", "t", "α", "é", "ǅ",
                 "s^2", "a^-3", "z^10", "a^0", "é^-1")
_FUZZ_PIECES = _FUZZ_FACTORS + ("^", "^-", "*", " * ", "+", " + ", "-", " - ", " ",
                                "\t", "\n", "_", "\u0301", "٣", "²", "Ⅷ")


def _polynomial_fuzz_text(rng):
    if rng.random() < 0.3:
        return "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randrange(0, 10)))
    text = rng.choice(("", "-", "+", " - "))
    for k in range(rng.randrange(0, 4)):
        if k:
            text += rng.choice(("+", "-", " + ", " - ", "\t-\n"))
        factors = [rng.choice(_FUZZ_FACTORS) for _ in range(rng.randrange(1, 4))]
        text += rng.choice(("*", "", " ", " * ", "\t")).join(factors)
    if rng.random() < 0.5:
        j = rng.randrange(len(text) + 1)
        text = text[:j] + rng.choice(_FUZZ_PIECES) + text[j + rng.randrange(2):]
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


def test_parsers_match_frozen_scanner_on_fuzz():
    rng = random.Random(2718)
    accepted = {LaurentPoly1: 0, LaurentPoly2: 0}
    for _ in range(20_000):
        text = _polynomial_fuzz_text(rng)
        for cls, oracle in ((LaurentPoly1, oracle_laurent.parse1),
                            (LaurentPoly2, oracle_laurent.parse2)):
            got = _parse_outcome(cls.parse, text)
            assert got == _parse_outcome(oracle, text), text
            accepted[cls] += got is not ParseError
    assert all(2_000 < n < 18_000 for n in accepted.values()), accepted


def test_views_stay_distinct_types():
    assert LaurentPoly1.zero() != LaurentPoly2.zero()
    assert LaurentPoly1.one() != LaurentPoly2.one()
    assert LaurentPoly1.one().is_one() and LaurentPoly2.one().is_one()
    assert not LaurentPoly1({1: 1}).is_one()
    assert LaurentPoly2.one() ** 3 == LaurentPoly2.one()
    assert -(-S_MINUS_SINV) == S_MINUS_SINV
    assert hash(LaurentPoly1({2: 3})) == hash(LaurentPoly1({2: 3}))


def test_polynomials_have_no_instance_dict():
    # The skein memo holds thousands of values; each stays a slotted object.
    for p in (LaurentPoly1.one(), LaurentPoly2.one(), S_MINUS_SINV * S_MINUS_SINV):
        assert not hasattr(p, "__dict__")


def test_repr_strings():
    assert repr(LaurentPoly1({8: -1, 6: 1, 2: 1})) == "LaurentPoly1(-s^8 + s^6 + s^2)"
    assert repr(LaurentPoly1.zero()) == "LaurentPoly1(0)"
    trefoil = LaurentPoly2({(-4, 0): -1, (-2, 0): 2, (-2, 2): 1})
    assert repr(trefoil) == "LaurentPoly2(-a^-4 + 2*a^-2 + a^-2*z^2)"
    assert repr(LaurentPoly2.zero()) == "LaurentPoly2(0)"


def test_coeff_z_function_matches_method():
    rng = random.Random(13)
    for _ in range(20):
        p = random_poly2(rng)
        for k in range(-3, 6):
            assert coeff_z(p, k) == p.coeff_z(k)
