import cmath
import math
import random

import numpy as np
import pytest

from knotqc.braid import BraidWord, random_braid
from knotqc.burau import (
    PolyMatrix,
    burau_numeric,
    burau_symbolic,
    check_braid_relations,
)
from knotqc.laurent import LaurentPoly1

import oracle_burau


def test_generator_block_verbatim():
    m = burau_symbolic(BraidWord(2, (1,)))
    expected = PolyMatrix(
        (
            (LaurentPoly1({0: 1, 1: -1}), LaurentPoly1({1: 1})),
            (LaurentPoly1.one(), LaurentPoly1.zero()),
        )
    )
    assert m == expected


def test_identity_and_cancellation():
    assert burau_symbolic(BraidWord(4)) == PolyMatrix.identity(4)
    assert burau_symbolic(BraidWord(2, (1, -1))) == PolyMatrix.identity(2)
    assert burau_symbolic(BraidWord(3, (2, -2))) == PolyMatrix.identity(3)


def test_generator_block_row_sums():
    for n in (2, 4, 6):
        for i in range(1, n):
            for inverse in (False, True):
                m = burau_symbolic(BraidWord(n, (-i if inverse else i,)))
                for row in m.rows:
                    total = LaurentPoly1.zero()
                    for p in row:
                        total = total + p
                    assert total == LaurentPoly1.one()


def test_symbolic_relations():
    for n in (2, 3, 4):
        assert check_braid_relations(n)


def test_numeric_relations():
    rng = random.Random(3)
    for _ in range(5):
        t = cmath.exp(2j * math.pi * rng.random())
        assert check_braid_relations(8, t=t, tol=1e-10)
    assert check_braid_relations(6, t=cmath.exp(2j * math.pi / 7))


def test_homomorphism():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randrange(2, 5)
        u = random_braid(n, rng.randrange(0, 7), rng.randrange(10**9))
        v = random_braid(n, rng.randrange(0, 7), rng.randrange(10**9))
        assert burau_symbolic(u * v) == burau_symbolic(u) @ burau_symbolic(v)


def test_inverse_word_cancels_symbolically():
    rng = random.Random(7)
    for _ in range(10):
        b = random_braid(3, rng.randrange(0, 8), rng.randrange(10**9))
        assert burau_symbolic(b * b.inverse()) == PolyMatrix.identity(3)


def test_numeric_at_one_is_permutation_matrix():
    assert np.allclose(
        burau_numeric(BraidWord(2, (1,)), 1.0), np.array([[0, 1], [1, 0]])
    )
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(2, 6)
        b = random_braid(n, rng.randrange(0, 9), rng.randrange(10**9))
        m = burau_numeric(b, 1.0)
        perm = b.permutation()
        expected = np.zeros((n, n))
        for i in range(1, n + 1):
            expected[i - 1, perm.of(i) - 1] = 1.0
        assert np.allclose(m, expected)


def test_determinant_writhe():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(2, 6)
        b = random_braid(n, rng.randrange(0, 9), rng.randrange(10**9))
        t = cmath.exp(2j * math.pi * rng.random()) * rng.uniform(0.7, 1.3)
        det = np.linalg.det(burau_numeric(b, t))
        assert abs(det - (-t) ** b.writhe()) < 1e-9


def test_numeric_matches_symbolic():
    rng = random.Random(13)
    for _ in range(10):
        b = random_braid(3, rng.randrange(0, 7), rng.randrange(10**9))
        t = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(t) < 0.1:
            continue
        sym = burau_symbolic(b)
        num = burau_numeric(b, t)
        for i in range(3):
            for j in range(3):
                val = sym.rows[i][j].evaluate(t) if sym.rows[i][j] else 0
                assert abs(val - num[i, j]) < 1e-9


def test_two_column_rule_matches_dense_oracle():
    rng = random.Random(17)
    braids = [BraidWord(1), BraidWord(3)]
    for _ in range(220):
        n = rng.randrange(1, 7)
        braids.append(
            BraidWord(n, ())
            if n == 1
            else random_braid(n, rng.randrange(0, 31), rng.randrange(10**9))
        )
    assert any(e < 0 for b in braids for e in b.letters)
    for b in braids:
        assert burau_symbolic(b) == oracle_burau.burau_symbolic(b)
        for t in (0.6 + 0.8j, 1.3 - 0.4j, 1):
            want = oracle_burau.burau_numeric(b, t)
            got = burau_numeric(b, t)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1, np.abs(want)))


def test_numeric_rejects_zero():
    with pytest.raises(ValueError):
        burau_numeric(BraidWord(2, (1,)), 0)


def test_matrix_text():
    m = burau_symbolic(BraidWord(2, (1,)))
    assert m.to_text("t") == "[[-t + 1, t], [1, 0]]"
