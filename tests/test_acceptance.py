"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import cmath
import itertools
import math
import random
import time

import numpy as np

from knotqc.anyon import (
    TAU,
    VACUUM,
    QubitLayout,
    fusion_basis,
    init_state,
    fusion_probabilities,
    jones_estimate,
    jones_via_trace,
    markov_trace,
    prob_all_zero,
    sample_count,
    sigma_unitary,
    trace_normalization,
)
from knotqc.braid import BraidWord, random_braid
from knotqc.burau import (
    PolyMatrix,
    burau_numeric,
    burau_symbolic,
    check_braid_relations,
)
from knotqc.diagram import (
    closure_to_diagram,
    euler_characteristic,
    gauss_from_diagram,
    parse_gauss,
    realizable,
)
from knotqc.laurent import LaurentPoly1, LaurentPoly2
from knotqc.skein import (
    DELTA,
    SkeinBudget,
    homfly,
    homfly_braid,
    homfly_with_stats,
    jones_at,
)

from helpers import (
    far_commutativity_variants,
    insert_cancelling_pair,
    yang_baxter_variants,
)
from oracle_skein import HOPF_POSITIVE, TREFOIL, UNKNOT, UNLINK2

T5 = cmath.exp(2j * math.pi / 5)


def _report(number: int, text: str):
    print(f"[acceptance] criterion {number:2d}: PASS — {text}")


def test_criterion_01_golden_values():
    t0 = time.perf_counter()
    cases = [
        (BraidWord(1), UNKNOT, LaurentPoly2.one()),
        (BraidWord(2), UNLINK2, DELTA),
        (
            BraidWord(2, (1, 1)),
            HOPF_POSITIVE,
            LaurentPoly2({(-1, -1): 1, (-3, -1): -1, (-1, 1): 1}),
        ),
        (
            BraidWord(2, (1, 1, 1)),
            TREFOIL,
            LaurentPoly2({(-4, 0): -1, (-2, 0): 2, (-2, 2): 1}),
        ),
    ]
    for word, oracle_value, literal in cases:
        t1 = time.perf_counter()
        engine_value = homfly_braid(word)
        assert engine_value == oracle_value == literal
        assert time.perf_counter() - t1 < 1.0
    _report(1, f"four golden values equal oracle and literals in {time.perf_counter()-t0:.3f}s")


def test_criterion_02_markov_reidemeister_invariance():
    t0 = time.perf_counter()
    rng = random.Random(926535)
    memo = {}
    for trial in range(200):
        n = rng.randrange(2, 5)
        b = random_braid(n, rng.randrange(0, 9), seed=rng.randrange(10**9))
        base = homfly_braid(b, memo=memo)
        assert homfly_braid(b.stabilize(), memo=memo) == base
        g = random_braid(n, rng.randrange(1, 5), seed=rng.randrange(10**9))
        assert homfly_braid(b.conjugate(g), memo=memo) == base
        assert homfly_braid(insert_cancelling_pair(b, rng), memo=memo) == base
        fc = far_commutativity_variants(b, rng)
        if fc is not None:
            assert homfly_braid(fc[0], memo=memo) == homfly_braid(fc[1], memo=memo)
        yb = yang_baxter_variants(b, rng)
        if yb is not None:
            assert homfly_braid(yb[0], memo=memo) == homfly_braid(yb[1], memo=memo)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"200 braids invariant under all five moves (exact) in {elapsed:.1f}s")


def test_criterion_03_skein_identity_spot_checks():
    rng = random.Random(897932)
    a_pos = LaurentPoly2.monomial(1, 1, 0)
    a_neg = LaurentPoly2.monomial(1, -1, 0)
    z = LaurentPoly2.monomial(1, 0, 1)
    memo = {}
    for _ in range(50):
        b = random_braid(rng.randrange(2, 5), rng.randrange(1, 9), rng.randrange(10**9))
        d = closure_to_diagram(b)
        k = rng.randrange(len(d.crossings))
        plus = d if d.crossings[k].sign > 0 else d.switch_crossing(k)
        minus = plus.switch_crossing(k)
        smooth = plus.smooth_crossing(k)
        assert a_pos * homfly(plus, memo=memo) - a_neg * homfly(minus, memo=memo) == z * homfly(
            smooth, memo=memo
        )
    _report(3, "skein identity exact at 50 random crossings")


def test_criterion_04_burau():
    block = burau_symbolic(BraidWord(2, (1,)))
    expected = PolyMatrix(
        (
            (LaurentPoly1({0: 1, 1: -1}), LaurentPoly1({1: 1})),
            (LaurentPoly1.one(), LaurentPoly1.zero()),
        )
    )
    assert block == expected
    for n in (2, 3, 4):
        assert check_braid_relations(n)
    rng = random.Random(846264)
    for _ in range(5):
        t = cmath.exp(2j * math.pi * rng.random())
        for n in range(3, 9):
            assert check_braid_relations(n, t=t, tol=1e-10)
    for _ in range(25):
        n = rng.randrange(2, 6)
        b = random_braid(n, rng.randrange(0, 9), rng.randrange(10**9))
        m = burau_numeric(b, 1.0)
        perm = b.permutation()
        target = np.zeros((n, n))
        for i in range(1, n + 1):
            target[i - 1, perm.of(i) - 1] = 1.0
        assert np.allclose(m, target)
        t = cmath.exp(2j * math.pi * rng.random())
        det = np.linalg.det(burau_numeric(b, t))
        assert abs(det - (-t) ** b.writhe()) < 1e-9
    _report(4, "generator block verbatim; relations, t=1 permutations, determinants hold")


def test_criterion_05_fibonacci_state_space():
    dims = [len(fusion_basis(n, VACUUM)) + len(fusion_basis(n, TAU)) for n in range(17)]
    for n in range(2, 17):
        assert dims[n] == dims[n - 1] + dims[n - 2]
    assert len(fusion_basis(4, VACUUM)) == 2
    _report(5, f"dimension sequence {dims[:8]}... follows the recurrence; dim(4, vacuum) = 2")


def test_criterion_06_anyon_unitaries():
    for n in range(2, 11):
        for total in (VACUUM, TAU):
            dim = len(fusion_basis(n, total))
            if dim == 0:
                continue
            mats = [sigma_unitary(i, n, total) for i in range(1, n)]
            for u in mats:
                assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12
            for i in range(len(mats) - 1):
                a, b = mats[i], mats[i + 1]
                assert np.max(np.abs(a @ b @ a - b @ a @ b)) < 1e-10
            for i in range(len(mats)):
                for j in range(i + 2, len(mats)):
                    assert np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) < 1e-12
    _report(6, "unitarity 1e-12, length-three relation 1e-10, far commutativity 1e-12, n <= 10")


def test_criterion_07_initialization_semantics():
    assert prob_all_zero(BraidWord(4), QubitLayout.default(1)) == 1.0
    assert prob_all_zero(BraidWord(8), QubitLayout.default(2)) == 1.0
    for qubits in (1, 2, 3):
        state = init_state(qubits)
        layout = QubitLayout.default(qubits)
        for q in range(qubits):
            assert fusion_probabilities(state, q, layout)[0] == 1.0
    _report(7, "identity computation returns all-zero with probability exactly 1")


def test_criterion_08_cross_pipeline_equivalence():
    rng = random.Random(383279)
    # sigma_1 (a one-kink unknot) and the trefoil, with their mirrors, and
    # 110 seeded braids.
    braids = [BraidWord(2, letters) for letters in ((1,), (-1,), (1, 1, 1), (-1, -1, -1))]
    for _ in range(110):
        n = rng.randrange(2, 4)
        braids.append(random_braid(n, rng.randrange(0, 9), seed=rng.randrange(10**9)))
    worst = 0.0
    for b in braids:
        lhs = trace_normalization(b.strands, b.writhe()) * markov_trace(b)
        rhs = jones_at(b, T5)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8
    _report(8, f"normalized trace equals Jones evaluation on {len(braids)} braids (worst {worst:.2e})")


def test_criterion_09_additive_approximation():
    t0 = time.perf_counter()
    rng = random.Random(502884)
    targets = [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2))]
    epsilon, delta = 0.2, 0.05
    expected_m = math.ceil(8 * math.log(2 / delta) / epsilon**2)
    failures = 0
    trials = 0
    for b in targets:
        exact = jones_at(b, T5)
        for _ in range(100):
            est = jones_estimate(b, epsilon, delta, seed=rng.randrange(10**9))
            assert est.samples_per_part == expected_m == sample_count(epsilon, delta)
            trials += 1
            if abs(est.value - exact) > epsilon * est.exact_scale:
                failures += 1
    sigma = math.sqrt(trials * delta * (1 - delta))
    assert failures <= delta * trials + 3 * sigma
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        9,
        f"{failures}/{trials} misses (bound {delta*trials + 3*sigma:.1f}); "
        f"m = {expected_m}; {elapsed:.1f}s",
    )


def test_criterion_10_realizability():
    code = parse_gauss("O1+U2+O3+U1+O2+U3+")
    vertices, edges, faces, chi = euler_characteristic(code)
    assert (faces, chi) == (5, 2) and realizable(code)
    bad = parse_gauss("O1+O2+U1+U2+")
    assert euler_characteristic(bad)[3] == 0 and not realizable(bad)
    rng = random.Random(197169)
    accepted = 0
    while accepted < 200:
        b = random_braid(rng.randrange(2, 5), rng.randrange(1, 9), rng.randrange(10**9))
        if b.closure_components() != 1:
            continue
        assert realizable(gauss_from_diagram(closure_to_diagram(b)))
        accepted += 1
    _report(10, "trefoil accepted (5 faces), interlaced rejected (chi 0), 200 closures accepted")


def test_criterion_11_performance_guardrails():
    t0 = time.perf_counter()
    for c in range(2, 21):
        homfly(closure_to_diagram(BraidWord(2, (1,) * c)))
    memo_elapsed = time.perf_counter() - t0
    assert memo_elapsed < 10.0
    plain = SkeinBudget(memo_enabled=False)
    for c in range(2, 17):
        d = closure_to_diagram(BraidWord(2, (1,) * c))
        _, stats = homfly_with_stats(d, plain)
        assert stats.nodes <= 2**c
    _report(
        11,
        f"memoized c<=20 in {memo_elapsed:.2f}s; plain node counts within 2^c for c<=16",
    )
