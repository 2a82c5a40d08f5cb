"""The random-stream contract jones_estimate relies on, checked with the
standard library alone.

The estimator draws a path index below size as random.Random does for a
bounded integer: k = size.bit_length() bits from getrandbits, drawn again
while not below size. This file checks that the rule reads the same words
as Random.randrange on the running interpreter, so the pinned estimates
hold on every CPython the tests run on. It imports neither numpy nor
pytest and runs as a script too:

    python3 tests/test_random_contract.py
"""

import random

# Every sector size up to 300, 2,584, and the sectors of 19 to 22 anyons,
# the largest the estimator draws from under knotqc.anyon.MAX_DENSE_WORK.
SIZES = list(range(1, 301)) + [2584, 4181, 6765, 10946, 17711]
SEEDS = [0, 1, 7, 2**32 + 1, 2**64 + 3] + [s * 7919 + 13 for s in range(15)]


def _rejection_draw(bits, size: int, k: int) -> int:
    r = bits(k)
    while r >= size:
        r = bits(k)
    return r


def test_rejection_draw_matches_randrange():
    for size in SIZES:
        k = size.bit_length()
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            # Interleaved with random() as in the estimator, so a draw that
            # took one word too many or too few shows in what follows.
            for _ in range(8):
                assert _rejection_draw(ours.getrandbits, size, k) == theirs.randrange(size)
                assert ours.random() == theirs.random()


if __name__ == "__main__":
    test_rejection_draw_matches_randrange()
    print(f"ok: {len(SIZES)} sizes x {len(SEEDS)} seeds")
