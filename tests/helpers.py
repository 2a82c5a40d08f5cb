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


def split_words(count: int, seed: int, max_strands: int, max_letters: int) -> list[BraidWord]:
    """Words on 1..max_strands strands whose letters draw from a random
    subset of the generators; half of them also use one more generator
    once. Their closures are mostly split unions and connected sums, with
    free strands."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(1, max_strands)
        gens = list(range(1, n))
        used = rng.sample(gens, rng.randint(min(1, n - 1), n - 1))
        length = rng.randint(0, max_letters) if used else 0
        letters = [rng.choice(used) * rng.choice((1, -1)) for _ in range(length)]
        rest = [g for g in gens if g not in used]
        if rest and rng.random() < 0.5:
            letters.insert(rng.randint(0, length), rng.choice(rest) * rng.choice((1, -1)))
        words.append(BraidWord(n, tuple(letters)))
    return words


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
