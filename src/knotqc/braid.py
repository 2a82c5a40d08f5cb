"""Braid words, the symmetric-group quotient, Markov moves, and cables.

A word is a sequence of nonzero letters: +i is the i-th elementary
crossing (strand i passing over strand i+1), -i its inverse. Words are
kept as-is; equality beyond free reduction is delegated to invariants.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}; images[j-1] is where j is sent."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def of(self, j: int) -> int:
        return self.images[j - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: apply self first, then other."""
        return Permutation(tuple(other.of(i) for i in self.images))

    def is_identity(self) -> bool:
        return all(v == j + 1 for j, v in enumerate(self.images))

    def cycle_count(self) -> int:
        return _cycle_count([v - 1 for v in self.images])


def _cycle_count(succ: list[int]) -> int:
    """Cycles of the bijection j -> succ[j] of {0..len(succ)-1}. Marks
    visited entries with -1, so the caller's list is consumed."""
    count = 0
    for start in range(len(succ)):
        count += succ[start] >= 0
        j = start
        while succ[j] >= 0:
            succ[j], j = -1, succ[j]
    return count


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        for e in self.letters:
            if e == 0 or abs(e) > self.strands - 1:
                raise ValueError(f"letter {e} out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate braids on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-e for e in reversed(self.letters)))

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent inverse pairs until none remain."""
        out: list[int] = []
        for e in self.letters:
            if out and out[-1] == -e:
                out.pop()
            else:
                out.append(e)
        return BraidWord(self.strands, tuple(out))

    def pieces(self) -> tuple[list["BraidWord"], int]:
        """(pieces, splits): the closure as split unions (one split each)
        and connected sums of the pieces' closures. Each piece is freely
        reduced and uses each of its generators at least twice.

        The word is cut at its lowest generator j used at most once into
        the letters below j, on strands 1..j, and those above, shifted
        down by j; the two commute. An absent j is a split; a j used once
        is rotated to the front and dropped, for a connected sum."""
        out: list[BraidWord] = []
        splits = 0
        todo = [self]
        while todo:
            b = todo.pop().free_reduce()
            n, letters = b.strands, b.letters
            if not letters:
                splits += n - 1
                continue
            uses = [0] * n
            for e in letters:
                uses[abs(e)] += 1
            j = next((j for j in range(1, n) if uses[j] <= 1), None)
            if j is None:
                out.append(b)
                continue
            if uses[j]:
                at = next(k for k, e in enumerate(letters) if abs(e) == j)
                letters = letters[at + 1:] + letters[:at]
            else:
                splits += 1
            todo.append(BraidWord(n - j, tuple(e - j if e > 0 else e + j
                                               for e in letters if abs(e) > j)))
            todo.append(BraidWord(j, tuple(e for e in letters if abs(e) < j)))
        return out, splits

    def _strand_at(self) -> list[int]:
        """at[p] is the strand that ends at position p (both 0-based)."""
        at = list(range(self.strands))
        for e in self.letters:
            i = abs(e) - 1
            at[i], at[i + 1] = at[i + 1], at[i]
        return at

    def permutation(self) -> Permutation:
        images = [0] * self.strands
        for pos, strand in enumerate(self._strand_at()):
            images[strand] = pos + 1
        return Permutation(tuple(images))

    def is_pure(self) -> bool:
        return self.permutation().is_identity()

    def closure_components(self) -> int:
        # at is the inverse of permutation(), and has the same cycles.
        return _cycle_count(self._strand_at())

    def writhe(self) -> int:
        return sum(1 if e > 0 else -1 for e in self.letters)

    def stabilize(self) -> "BraidWord":
        """Markov move 1: append a positive crossing on a fresh strand."""
        return BraidWord(self.strands + 1, self.letters + (self.strands,))

    def conjugate(self, g: "BraidWord") -> "BraidWord":
        """Markov move 2: g * self * g^-1."""
        if g.strands != self.strands:
            raise ValueError("conjugating braid must have the same strand count")
        return g * self * g.inverse()

    def cable(self, r: int) -> "BraidWord":
        """Replace every strand by r parallel copies.

        Each letter becomes the block transposition passing all r strands
        of block i over block i+1 (r*r same-sign crossings), so the
        writhe scales by exactly r*r.
        """
        if r < 1:
            raise ValueError("cable width must be at least 1")
        if r == 1:
            return self
        letters: list[int] = []
        for e in self.letters:
            p0 = (abs(e) - 1) * r
            block = [p0 + r - a + b for a in range(r) for b in range(r)]
            if e > 0:
                letters.extend(block)
            else:
                letters.extend(-g for g in reversed(block))
        return BraidWord(self.strands * r, tuple(letters))

    def to_text(self) -> str:
        return " ".join([f"n={self.strands}"] + [str(e) for e in self.letters])

    def __repr__(self) -> str:
        return f"BraidWord({self.to_text()})"


# An optionally signed ASCII decimal integer, as every text format writes
# one: int() alone would also take "1_0" and digits such as "٣".
_INT = re.compile(r"[+-]?[0-9]+")


def parse_braid(text: str) -> BraidWord:
    """Whitespace-separated signed integers, optional "n=<k>" prefix."""
    tokens = text.split()
    strands = None
    if tokens and tokens[0].startswith("n="):
        if not _INT.fullmatch(tokens[0], 2):
            raise ParseError(f"bad strand count {tokens[0]!r}")
        strands = int(tokens[0][2:])
        if strands < 1:
            raise ParseError(f"strand count must be positive, got {strands}")
        tokens = tokens[1:]
    letters = []
    for tok in tokens:
        if not _INT.fullmatch(tok):
            raise ParseError(f"bad braid letter {tok!r}")
        e = int(tok)
        if e == 0:
            raise ParseError("0 is not a braid letter (generators start at 1)")
        letters.append(e)
    needed = max((abs(e) for e in letters), default=0) + 1 if letters else 1
    if strands is None:
        strands = needed
    elif strands < needed:
        raise ParseError(f"letter out of range for declared n={strands}")
    return BraidWord(strands, tuple(letters))


def _check_seed(seed: int) -> None:
    """random.Random seeds from abs(seed), so -s would silently repeat s."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def random_braid(n: int, length: int, seed: int) -> BraidWord:
    """Uniform letters over +-{1..n-1}; deterministic for a fixed
    non-negative seed."""
    if n < 2:
        raise ValueError("random braids need at least 2 strands")
    _check_seed(seed)
    rng = random.Random(seed)
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord(n, tuple(letters))
