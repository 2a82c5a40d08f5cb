"""Seeded request streams for the three workloads.

This module imports nothing from knotqc: the program under test receives
only the requests made here, so a change to the program cannot change its
own inputs. Each workload is an endless stream of blocks. A block has a
fixed mix of request shapes, and the seed picks the order and everything
inside a shape. A run sends whole blocks, so every run has the same
mix and the latency percentiles fall inside, not between, clusters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

# Point at which numeric Burau requests are asked and symbolic ones are
# checked; on the unit circle, so long words neither blow up nor vanish.
BURAU_POINT = "0.6+0.8i"

# The invariant workload walks a fixed corpus of braid closures. Random
# braids of 3-5 strands and 12-22 letters differ in skein cost by four
# orders of magnitude, so a fresh draw per seed moves throughput and the
# percentiles by 20-30% from seed to seed; a fixed corpus leaves the seed
# the order, the invariant asked and its arguments.
CORPUS_SEED = 1901
CORPUS_SIZE = 64
# Draw 50 needs 7055 skein nodes: about 11 s on a 2-CPU 2.1 GHz virtual
# machine, where the rest of the corpus takes 4 s together. Kept, it
# would be three quarters of every pass; it is outside the 1 to about
# 1000 nodes this workload is meant to cover, so it is skipped.
_SKIPPED_DRAWS = frozenset({50})
_HOMFLY_PER_PASS = 8
_COEFF_PER_PASS = 8
_BURAU_PER_PASS = 8

# One table block: shape (strands, maxlen) and its share. Sorted by
# latency the block is 4 fast shapes, 7 x (3,6), 8 x (4,5) and one (4,6),
# so p50 is the 6th of the 7 (3,6) requests and p90 the 7th of the 8
# (4,5) ones. The machine this was tuned on switches between a fast and a
# slow state for seconds at a time; a percentile in the middle of a
# cluster flips between the two states' latencies from run to run, one
# near its top does not.
TABLE_BLOCK = ((3, 5),) * 2 + ((2, 10),) * 2 + ((3, 6),) * 7 + ((4, 5),) * 8 + ((4, 6),)

# One anyon block: 16 estimates (strands, epsilon) and 4 exact traces
# (strands). Sorted by latency on a 2-CPU 2.1 GHz virtual machine, it is
# 7 requests under 60 ms, 8 of 65-115 ms, 4 of 210-270 ms (12-strand
# estimates at epsilon 0.05 and 14-strand traces) and one 12-strand
# estimate at epsilon 0.03, so p50 falls among the 65-80 ms requests and
# p90 inside the 210-270 ms ones.
ANYON_ESTIMATES = (
    (8, 0.05), (8, 0.05), (8, 0.03),
    (9, 0.05), (9, 0.05), (9, 0.03),
    (10, 0.05), (10, 0.05), (10, 0.03),
    (11, 0.05), (11, 0.05), (11, 0.03), (11, 0.03),
    (12, 0.05), (12, 0.05), (12, 0.03),
)
ANYON_DELTA = 0.05
ANYON_TRACES = (12, 13, 14, 14)
ESTIMATE_LETTERS = (24, 36)
TRACE_LETTERS = (38, 42)


@dataclass(frozen=True)
class Request:
    """One request: a CLI command line, or an exact anyon trace."""

    op: str  # "invariant", "table", "estimate" or "trace"
    strands: int
    letters: tuple[int, ...] = ()
    invariant: str = ""  # invariant: jones, homfly, coeff or burau
    k: int | None = None  # coeff: z exponent
    t: str | None = None  # burau: numeric point; None asks for the matrix
    maxlen: int = 0  # table
    epsilon: float = 0.0  # estimate
    delta: float = 0.0
    seed: int = 0

    @property
    def braid_text(self) -> str:
        return " ".join([f"n={self.strands}"] + [str(e) for e in self.letters])

    def argv(self) -> list[str]:
        """Arguments for ``knotqc.cli.main``."""
        if self.op == "invariant":
            argv = ["invariant", "--braid", self.braid_text, "--invariant", self.invariant]
            if self.k is not None:
                argv += ["--k", str(self.k)]
            if self.t is not None:
                argv += ["--t", self.t]
            return argv
        if self.op == "table":
            return ["table", "--strands", str(self.strands), "--maxlen", str(self.maxlen)]
        if self.op == "estimate":
            return [
                "estimate", "--braid", self.braid_text,
                "--epsilon", repr(self.epsilon), "--delta", repr(self.delta),
                "--seed", str(self.seed),
            ]
        raise ValueError(f"{self.op} requests do not go through the CLI")


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[[int], Iterator[list[Request]]]
    # Blocks every run completes: at least 100 requests, so ten samples
    # lie beyond p90, and the prefix the fingerprint covers.
    min_blocks: int


def random_letters(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(length))


def closure_components(n: int, letters: tuple[int, ...]) -> int:
    """Components of the braid closure: cycles of the strand permutation."""
    perm = list(range(n))
    for e in letters:
        i = abs(e) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(n):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return cycles


def invariant_corpus() -> list[tuple[int, tuple[int, ...]]]:
    """The fixed corpus: (strands, letters), every (strands, length) pair
    of 3-5 x 12-22 visited in turn."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    draw = 0
    while len(corpus) < CORPUS_SIZE:
        n, length = 3 + draw % 3, 12 + (7 * draw) % 11
        letters = random_letters(rng, n, length)
        if draw not in _SKIPPED_DRAWS:
            corpus.append((n, letters))
        draw += 1
    return corpus


def invariant_blocks(seed: int) -> Iterator[list[Request]]:
    """One pass over the corpus per block, in seeded order. Most requests
    ask for jones, some for homfly or coeff (the same skein work), plus a
    few burau requests on seeded corpus braids."""
    rng = random.Random(seed)
    corpus = invariant_corpus()
    while True:
        kinds = (
            ["homfly"] * _HOMFLY_PER_PASS
            + ["coeff"] * _COEFF_PER_PASS
            + ["jones"] * (CORPUS_SIZE - _HOMFLY_PER_PASS - _COEFF_PER_PASS)
        )
        rng.shuffle(kinds)
        block = []
        for (n, letters), kind in zip(corpus, kinds):
            k = None
            if kind == "coeff":
                # The lowest z power of a c-component link is 1 - c, and
                # powers step by two.
                k = 1 - closure_components(n, letters) + 2 * rng.randrange(3)
            block.append(Request("invariant", n, letters, invariant=kind, k=k))
        for j in range(_BURAU_PER_PASS):
            n, letters = rng.choice(corpus)
            t = BURAU_POINT if j % 2 else None
            block.append(Request("invariant", n, letters, invariant="burau", t=t))
        rng.shuffle(block)
        yield block


def table_blocks(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(seed)
    while True:
        block = [Request("table", n, maxlen=maxlen) for n, maxlen in TABLE_BLOCK]
        rng.shuffle(block)
        yield block


def anyon_blocks(seed: int) -> Iterator[list[Request]]:
    """Estimates and exact traces on braids that are all distinct, so the
    per-braid matrix cache answers none of them."""
    rng = random.Random(seed)
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def fresh(n: int, bounds: tuple[int, int]) -> tuple[int, ...]:
        while True:
            letters = random_letters(rng, n, rng.randint(*bounds))
            if (n, letters) not in seen:
                seen.add((n, letters))
                return letters

    while True:
        block = [
            Request(
                "estimate", n, fresh(n, ESTIMATE_LETTERS), epsilon=eps,
                delta=ANYON_DELTA, seed=rng.randrange(2**31),
            )
            for n, eps in ANYON_ESTIMATES
        ]
        block += [Request("trace", n, fresh(n, TRACE_LETTERS)) for n in ANYON_TRACES]
        rng.shuffle(block)
        yield block


WORKLOADS = {
    "invariant": Workload("invariant", invariant_blocks, min_blocks=2),
    "table": Workload("table", table_blocks, min_blocks=5),
    "anyon": Workload("anyon", anyon_blocks, min_blocks=5),
}
