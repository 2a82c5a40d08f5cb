"""Reference Burau products, one dense n x n product per letter.

Each letter's image is written out as a whole matrix (the identity with
one 2x2 block) and multiplied onto the running product, over Laurent
polynomials by PolyMatrix's own @ and over complex numbers by numpy, so
tests can compare the two-column letter rule in knotqc.burau against it.
"""

import numpy as np

from knotqc.braid import BraidWord
from knotqc.burau import PolyMatrix
from knotqc.laurent import LaurentPoly1

_ZERO = LaurentPoly1.zero()
_ONE = LaurentPoly1.one()
# [[1-t, t], [1, 0]] and its inverse [[0, 1], [t^-1, 1-t^-1]].
_BLOCK = (
    (LaurentPoly1({0: 1, 1: -1}), LaurentPoly1({1: 1})),
    (_ONE, _ZERO),
)
_BLOCK_INV = (
    (_ZERO, _ONE),
    (LaurentPoly1({-1: 1}), LaurentPoly1({0: 1, -1: -1})),
)


def generator_matrix(n: int, i: int, inverse: bool = False) -> PolyMatrix:
    """The block image of the i-th generator inside n strands."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    block = _BLOCK_INV if inverse else _BLOCK
    rows = [[_ONE if r == c else _ZERO for c in range(n)] for r in range(n)]
    for r in range(2):
        for c in range(2):
            rows[i - 1 + r][i - 1 + c] = block[r][c]
    return PolyMatrix(rows)


def burau_symbolic(b: BraidWord) -> PolyMatrix:
    """Ordered product of generator blocks over the whole word."""
    out = PolyMatrix.identity(b.strands)
    for e in b.letters:
        out = out @ generator_matrix(b.strands, abs(e), inverse=e < 0)
    return out


def _numeric_block(t: complex, inverse: bool) -> np.ndarray:
    if inverse:
        return np.array([[0, 1], [1 / t, 1 - 1 / t]], dtype=complex)
    return np.array([[1 - t, t], [1, 0]], dtype=complex)


def burau_numeric(b: BraidWord, t: complex) -> np.ndarray:
    """Entrywise evaluation, computed directly by numeric block products."""
    if t == 0:
        raise ValueError("t must be nonzero")
    n = b.strands
    out = np.eye(n, dtype=complex)
    for e in b.letters:
        g = np.eye(n, dtype=complex)
        i = abs(e) - 1
        g[i : i + 2, i : i + 2] = _numeric_block(t, e < 0)
        out = out @ g
    return out
