"""Soak and fuzz coverage beyond the per-module suites."""

import random
import string
import time

import pytest

from knotqc.braid import BraidWord, parse_braid, random_braid
from knotqc.diagram import (
    closure_to_diagram,
    gauss_from_diagram,
    parse_gauss,
    parse_unsigned_gauss,
    realizable,
    realizable_unsigned,
)
from knotqc.errors import BudgetExceededError, ParseError
from knotqc.laurent import LaurentPoly1, LaurentPoly2
from knotqc.skein import homfly_braid, jones_at
from knotqc.anyon import jones_estimate, jones_via_trace

from helpers import insert_cancelling_pair, yang_baxter_variants


def test_parser_fuzz_never_crashes():
    rng = random.Random(424242)
    alphabet = string.printable
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        for parser in (parse_braid, parse_gauss, parse_unsigned_gauss,
                       LaurentPoly1.parse, LaurentPoly2.parse):
            try:
                parser(text)
            except ParseError:
                pass


def test_markov_soak_larger_words():
    rng = random.Random(271828)
    memo = {}
    t0 = time.perf_counter()
    for _ in range(50):
        n = rng.randrange(2, 6)
        b = random_braid(n, rng.randrange(0, 11), seed=rng.randrange(10**9))
        base = homfly_braid(b, memo=memo)
        # compose several moves before comparing
        moved = insert_cancelling_pair(b, rng)
        g = random_braid(n, rng.randrange(1, 4), seed=rng.randrange(10**9))
        moved = moved.conjugate(g).stabilize()
        assert homfly_braid(moved, memo=memo) == base
        yb = yang_baxter_variants(b, rng)
        if yb:
            assert homfly_braid(yb[0].stabilize(), memo=memo) == homfly_braid(
                yb[1], memo=memo
            )
    assert time.perf_counter() - t0 < 60


def test_shadow_of_realizable_code_is_realizable():
    rng = random.Random(161803)
    done = 0
    while done < 40:
        b = random_braid(rng.randrange(2, 4), rng.randrange(1, 8), rng.randrange(10**9))
        if b.closure_components() != 1 or len(b.free_reduce().letters) > 7:
            continue
        code = gauss_from_diagram(closure_to_diagram(b))
        # A braid closure is drawn in the plane, so its code is realizable.
        assert realizable(code)
        done += 1
        shadow = [(kind, label) for kind, label, _ in code.entries]
        assert realizable_unsigned(shadow)


def test_estimator_guarantee_on_wider_braid():
    import cmath
    import math

    b = BraidWord(4, (1, 2, 3, 1, 2, 1))
    exact = jones_at(b, cmath.exp(2j * math.pi / 5))
    misses = 0
    for seed in range(40):
        est = jones_estimate(b, 0.25, 0.1, seed=seed)
        assert est.exact_scale == pytest.approx(((1 + math.sqrt(5)) / 2) ** 3)
        if abs(est.value - exact) > 0.25 * est.exact_scale:
            misses += 1
    assert misses <= 8  # 0.1 * 40 + 3 sigma margin


def test_trace_pipeline_on_four_and_five_strands():
    import cmath
    import math

    t5 = cmath.exp(2j * math.pi / 5)
    rng = random.Random(314159)
    for _ in range(20):
        n = rng.randrange(4, 6)
        b = random_braid(n, rng.randrange(0, 10), seed=rng.randrange(10**9))
        assert abs(jones_via_trace(b) - jones_at(b, t5)) < 1e-8


def test_deep_stabilization_tower():
    b = BraidWord(2, (1, 1, 1))
    base = homfly_braid(b)
    tower = b
    for _ in range(6):
        tower = tower.stabilize()
    assert homfly_braid(tower) == base
