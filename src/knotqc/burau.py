"""Braid representation by Laurent-matrix blocks.

Each generator maps to the identity away from one 2x2 block [[1-t, t],
[1, 0]]; inverse letters use the exact closed-form inverse block
[[0, 1], [t^-1, 1 - t^-1]]. Symbolic and numeric images share one
kernel. The matrices are not literally unitary for generic |t| = 1 (they
preserve a Hermitian form instead), so tests assert braid relations, the
homomorphism property, and determinants.
"""

from __future__ import annotations

import numpy as np

from .braid import BraidWord
from .errors import BudgetExceededError
from .laurent import LaurentPoly1

MAX_BURAU_STRANDS = 256  # the matrix and its text have strands**2 entries
# Symbolic entries grow with the word, so their cost grows faster than
# the square of its length: 1,000 letters took at most 4.2 s, 1,500 up
# to 9.4 s (256 strands, letters 1 -2 3 -2 repeated; one core of a
# 2-vCPU Xeon VM).
MAX_BURAU_LETTERS = 1000
_ZERO = LaurentPoly1.zero()
_ONE = LaurentPoly1.one()


class PolyMatrix:
    """Square matrix of one-variable Laurent polynomials."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls(
            tuple(
                tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
            )
        )

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        n = self.size
        if other.size != n:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.rows))
        return PolyMatrix(
            tuple(
                tuple(
                    sum(
                        (a * b for a, b in zip(row, col) if a and b),
                        LaurentPoly1.zero(),
                    )
                    for col in cols
                )
                for row in self.rows
            )
        )

    def to_text(self, var: str = "t") -> str:
        return (
            "["
            + ", ".join(
                "[" + ", ".join(p.to_text(var) for p in row) + "]"
                for row in self.rows
            )
            + "]"
        )

    def __repr__(self) -> str:
        return f"PolyMatrix({self.to_text()})"


def _burau(b: BraidWord, zero, one, t, t_inv) -> np.ndarray:
    """The identity times each letter's block, over the ring of the given
    constants. Letter +-i rewrites only columns x = i and y = i+1: +i to
    ((1-t)x + y, tx), and -i to (t^-1 y, x + (1-t^-1)y)."""
    if b.strands > MAX_BURAU_STRANDS:
        raise BudgetExceededError(
            f"Burau matrix on {b.strands} strands, budget allows {MAX_BURAU_STRANDS}"
        )
    m = np.full((b.strands, b.strands), zero)
    np.fill_diagonal(m, one)
    a, c = one - t, one - t_inv
    for e in b.letters:
        i = abs(e) - 1
        x, y = m[:, i], m[:, i + 1]
        if e > 0:
            m[:, i], m[:, i + 1] = x * a + y, x * t
        else:
            m[:, i], m[:, i + 1] = y * t_inv, x + y * c
    return m


def burau_symbolic(b: BraidWord) -> PolyMatrix:
    """Ordered product of generator blocks over the whole word."""
    if len(b.letters) > MAX_BURAU_LETTERS:
        raise BudgetExceededError(
            f"symbolic Burau matrix of {len(b.letters)} letters, "
            f"budget allows {MAX_BURAU_LETTERS}"
        )
    m = _burau(b, _ZERO, _ONE, LaurentPoly1({1: 1}), LaurentPoly1({-1: 1}))
    return PolyMatrix(m.tolist())


def burau_numeric(b: BraidWord, t: complex) -> np.ndarray:
    """Entrywise evaluation at t, by the same letter rule over complex numbers."""
    if t == 0:
        raise ValueError("t must be nonzero")
    with np.errstate(all="ignore"):
        m = _burau(b, 0j, 1 + 0j, t, 1 / t)
    if not np.isfinite(m).all():
        raise ValueError("the Burau matrix at this t is not a finite double")
    return m


def check_braid_relations(n: int, t: complex | None = None, tol: float = 1e-10) -> bool:
    """Verify far commutativity and the length-three relation for all indices.

    Symbolic (exact) when t is None, numeric within tol otherwise.
    """

    def rep(letters):
        word = BraidWord(n, tuple(letters))
        if t is None:
            return burau_symbolic(word)
        return burau_numeric(word, t)

    def same(x, y):
        if t is None:
            return x == y
        return bool(np.allclose(x, y, atol=tol, rtol=0))

    for i in range(1, n - 1):
        if not same(rep([i, i + 1, i]), rep([i + 1, i, i + 1])):
            return False
    for i in range(1, n):
        for j in range(i + 2, n):
            for ei in (1, -1):
                for ej in (1, -1):
                    if not same(rep([ei * i, ej * j]), rep([ej * j, ei * i])):
                        return False
    return True
