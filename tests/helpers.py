"""Shared test utilities: relation rewrites and word surgery on braids,
and a CLI runner."""

import random

from knotqc.braid import BraidWord
from knotqc.cli import main


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one CLI call."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def insert_cancelling_pair(b: BraidWord, rng: random.Random) -> BraidWord:
    """Splice sigma_i sigma_i^-1 at a random position."""
    pos = rng.randrange(len(b.letters) + 1)
    i = rng.randrange(1, b.strands)
    if rng.random() < 0.5:
        pair = (i, -i)
    else:
        pair = (-i, i)
    return BraidWord(b.strands, b.letters[:pos] + pair + b.letters[pos:])


def far_commutativity_variants(
    b: BraidWord, rng: random.Random
) -> tuple[BraidWord, BraidWord] | None:
    """Splice the two orders of a far-commuting pair at a random position."""
    if b.strands < 4:
        return None
    pos = rng.randrange(len(b.letters) + 1)
    i = rng.randrange(1, b.strands - 2)
    j = rng.randrange(i + 2, b.strands)
    ei = i if rng.random() < 0.5 else -i
    ej = j if rng.random() < 0.5 else -j
    left = BraidWord(b.strands, b.letters[:pos] + (ei, ej) + b.letters[pos:])
    right = BraidWord(b.strands, b.letters[:pos] + (ej, ei) + b.letters[pos:])
    return left, right


def yang_baxter_variants(
    b: BraidWord, rng: random.Random
) -> tuple[BraidWord, BraidWord] | None:
    """Splice the two sides of the length-three relation at a random position."""
    if b.strands < 3:
        return None
    pos = rng.randrange(len(b.letters) + 1)
    i = rng.randrange(1, b.strands - 1)
    sign = 1 if rng.random() < 0.5 else -1
    one = (sign * i, sign * (i + 1), sign * i)
    other = (sign * (i + 1), sign * i, sign * (i + 1))
    left = BraidWord(b.strands, b.letters[:pos] + one + b.letters[pos:])
    right = BraidWord(b.strands, b.letters[:pos] + other + b.letters[pos:])
    return left, right
