import cmath
import math
import os
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

import knotqc.anyon
import oracle_anyon
from oracle_anyon import R_PHASES
from knotqc.anyon import (
    MAX_ANYONS,
    PHI,
    A,
    TAU,
    VACUUM,
    AnyonState,
    QubitLayout,
    apply_braid,
    fusion_basis,
    fusion_probabilities,
    init_state,
    jones_estimate,
    jones_via_trace,
    markov_trace,
    prob_all_zero,
    sample_count,
    sample_measurement,
    sigma_unitary,
    trace_normalization,
    _act,
    _apply_letters,
    _braid_diagonals,
    _column_blocks,
    _hadamard_zero_probs,
    _pair_table,
    _project_pair,
)
from knotqc.braid import BraidWord, random_braid
from knotqc.errors import BudgetExceededError
from knotqc.skein import jones_at

T5 = cmath.exp(2j * math.pi / 5)


def test_fusion_basis_small():
    assert len(fusion_basis(2, VACUUM)) == 1
    assert fusion_basis(2, VACUUM) == ((VACUUM, TAU, VACUUM),)
    assert len(fusion_basis(4, VACUUM)) == 2
    assert len(fusion_basis(0, VACUUM)) == 1
    assert len(fusion_basis(0, TAU)) == 0


def test_fusion_basis_fibonacci_recurrence():
    dims = [
        len(fusion_basis(n, VACUUM)) + len(fusion_basis(n, TAU)) for n in range(17)
    ]
    for n in range(2, 17):
        assert dims[n] == dims[n - 1] + dims[n - 2]
    assert dims[:6] == [1, 1, 2, 3, 5, 8]


def test_fusion_basis_and_pair_tables_match_frozen_oracle():
    for n in range(17):
        for total in (VACUUM, TAU):
            assert fusion_basis(n, total) == oracle_anyon.fusion_basis(n, total)
            for a in range(1, n):
                got = _pair_table(a, n, total)
                want = oracle_anyon.pair_table(a, n, total)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                    assert not g.flags.writeable
    with pytest.raises(ValueError):
        fusion_basis(-1, VACUUM)
    with pytest.raises(BudgetExceededError):
        fusion_basis(MAX_ANYONS + 1, VACUUM)


def test_fusion_paths_admissible():
    for path in fusion_basis(7, TAU):
        assert path[0] == VACUUM
        for a, b in zip(path, path[1:]):
            assert not (a == VACUUM and b == VACUUM)


def test_sigma_unitary_properties():
    for n in range(2, 11):
        for total in (VACUUM, TAU):
            dim = len(fusion_basis(n, total))
            if dim == 0:
                continue
            for i in range(1, n):
                u = sigma_unitary(i, n, total)
                assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12
                eig = np.linalg.eigvals(u)
                assert np.max(np.abs(np.abs(eig) - 1)) < 1e-10
                phases = {round(x, 6) for x in np.angle(eig)}
                allowed = {round(-4 * math.pi / 5, 6), round(3 * math.pi / 5, 6)}
                assert phases <= allowed


def test_sigma_unitary_braid_relations():
    for n in range(3, 11):
        for total in (VACUUM, TAU):
            if not fusion_basis(n, total):
                continue
            for i in range(1, n - 1):
                a = sigma_unitary(i, n, total)
                b = sigma_unitary(i + 1, n, total)
                assert np.max(np.abs(a @ b @ a - b @ a @ b)) < 1e-10
            for i in range(1, n):
                for j in range(i + 2, n):
                    a = sigma_unitary(i, n, total)
                    b = sigma_unitary(j, n, total)
                    assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_yang_baxter_equivariance_on_random_states():
    rng = np.random.default_rng(31)
    for n in (4, 6):
        dim = len(fusion_basis(n, VACUUM))
        for _ in range(5):
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amp = raw / np.linalg.norm(raw)
            s = AnyonState(n, VACUUM, amp)
            i = int(rng.integers(1, n - 1))
            left = apply_braid(s, BraidWord(n, (i, i + 1, i)))
            right = apply_braid(s, BraidWord(n, (i + 1, i, i + 1)))
            assert np.max(np.abs(left.amplitudes - right.amplitudes)) < 1e-10


def test_sigma_unitary_index_range():
    with pytest.raises(ValueError):
        sigma_unitary(4, 4, VACUUM)
    with pytest.raises(ValueError):
        sigma_unitary(0, 4, VACUUM)
    with pytest.raises(ValueError):
        sigma_unitary(-1, 4, VACUUM)


def test_temperley_lieb_relations():
    # -A^2 - A^-2 is the loop value and A^-4 the Jones variable.
    assert abs(-A**2 - A**-2 - PHI) < 1e-15
    assert abs(A**-4 - T5) < 1e-15
    for n in range(2, 9):
        for total in (VACUUM, TAU):
            dim = len(fusion_basis(n, total))
            if dim == 0:
                continue
            e = {i: _act(_pair_table(i, n, total), np.eye(dim)) for i in range(1, n)}
            for i in range(1, n):
                assert np.max(np.abs(e[i] @ e[i] - PHI * e[i])) < 1e-12
                # The pair's two fusion projectors are complementary.
                vacuum = _project_pair(n, total, np.eye(dim), i, VACUUM)
                tau = _project_pair(n, total, np.eye(dim), i, TAU)
                assert np.max(np.abs(vacuum + tau - np.eye(dim))) < 1e-12
                assert np.max(np.abs(tau @ tau - tau)) < 1e-12
                for j in (i - 1, i + 1):
                    if j in e:
                        assert np.max(np.abs(e[i] @ e[j] @ e[i] - e[i])) < 1e-12
                for j in range(i + 2, n):
                    assert np.max(np.abs(e[i] @ e[j] - e[j] @ e[i])) < 1e-12


def test_init_state():
    s = init_state(1)
    assert s.n == 4 and s.total == VACUUM
    assert np.allclose(s.amplitudes, [1.0, 0.0])
    assert abs(s.norm() - 1) < 1e-12
    s2 = init_state(2)
    layout = QubitLayout.default(2)
    for q in (0, 1):
        p0, p1 = fusion_probabilities(s2, q, layout)
        assert p0 == 1.0 and p1 == 0.0


def test_state_validation():
    with pytest.raises(ValueError):
        AnyonState(4, VACUUM, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        AnyonState(4, VACUUM, np.array([1.0], dtype=complex))


def test_totals_other_than_vacuum_and_tau_are_refused():
    # A total charge is a label, 0 or 1. Any other value has no paths, and
    # is refused by name rather than failing later as a norm error.
    with pytest.raises(ValueError, match="total charge .* not 5"):
        fusion_basis(3, 5)
    with pytest.raises(ValueError, match="total charge .* not 2"):
        AnyonState(3, 2, np.zeros(0))
    with pytest.raises(ValueError, match="total charge .* not -1"):
        sigma_unitary(1, 3, -1)


def test_state_keeps_a_complex_copy_of_real_amplitudes():
    real = np.array([0.6, 0.8])
    state = AnyonState(4, VACUUM, real)
    b = BraidWord(4, (2, -1, 3, 2))
    got = apply_braid(state, b)
    want = apply_braid(AnyonState(4, VACUUM, real.astype(complex)), b)
    assert np.array_equal(got.amplitudes, want.amplitudes)
    assert real.flags.writeable
    real[0] = 0.0
    assert state.amplitudes[0] == 0.6


def test_apply_braid_identity_and_inverse():
    s = init_state(1)
    assert np.allclose(apply_braid(s, BraidWord(4)).amplitudes, s.amplitudes)
    rng = random.Random(3)
    for _ in range(10):
        b = random_braid(4, rng.randrange(1, 12), rng.randrange(10**9))
        back = apply_braid(apply_braid(s, b), b.inverse())
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-10
    with pytest.raises(ValueError):
        apply_braid(s, BraidWord(3, (1,)))


def test_norm_preserved_long_words():
    rng = random.Random(5)
    s = init_state(2)
    for _ in range(5):
        b = random_braid(8, 50, rng.randrange(10**9))
        assert abs(apply_braid(s, b).norm() - 1) < 1e-10


def test_braiding_changes_fusion_outcome_probabilities():
    layout = QubitLayout.default(1)
    s = init_state(1)
    # braiding the measured vacuum pair itself only phases the state
    same = apply_braid(s, BraidWord(4, (1, 1)))
    assert abs(fusion_probabilities(same, 0, layout)[0] - 1.0) < 1e-12
    # braiding across the two pairs of the quartet opens the other channel
    mixed = apply_braid(s, BraidWord(4, (2, 2)))
    p0, p1 = fusion_probabilities(mixed, 0, layout)
    assert p0 < 1.0 - 1e-6
    assert abs(p0 + p1 - 1) < 1e-12
    # chain-label bookkeeping: p0 equals the squared (FRF)^2 matrix entry
    block = np.array(
        [[1 / PHI, PHI**-0.5], [PHI**-0.5, -1 / PHI]]
    ) @ np.diag(R_PHASES) @ np.array([[1 / PHI, PHI**-0.5], [PHI**-0.5, -1 / PHI]])
    expected = abs((np.conj(block.T) @ np.conj(block.T))[0, 0]) ** 2
    assert abs(p0 - expected) < 1e-12


def test_probabilities_sum_to_one():
    rng = random.Random(7)
    layout = QubitLayout.default(2)
    s = init_state(2)
    for _ in range(10):
        b = random_braid(8, rng.randrange(1, 15), rng.randrange(10**9))
        evolved = apply_braid(s, b)
        for q in (0, 1):
            p0, p1 = fusion_probabilities(evolved, q, layout)
            assert abs(p0 + p1 - 1) < 1e-12
            assert -1e-12 <= p0 <= 1 + 1e-12


def test_entangling_braid_gives_non_product_statistics():
    layout = QubitLayout.default(2)
    s = init_state(2)
    # mixes the inter-qubit boundary label as well as both in-qubit
    # channels; the joint all-zero probability is then not the product
    # of the marginals (gap ~ 0.09, found by search over short words)
    b = BraidWord(8, (2, 4, -3, 5, 7, 4))
    evolved = apply_braid(s, b)
    p00 = prob_all_zero(b, layout)
    pa = fusion_probabilities(evolved, 0, layout)[0]
    pb = fusion_probabilities(evolved, 1, layout)[0]
    assert abs(p00 - pa * pb) > 0.05


def test_total_charge_conservation_determines_second_pair():
    # in-quartet braiding keeps the quartet's net charge at vacuum, so
    # conditioning the measured pair on a channel forces the partner pair
    layout = QubitLayout.default(1)
    s = apply_braid(init_state(1), BraidWord(4, (2, 2, 3, -2)))
    from knotqc.anyon import _project_pair

    for channel in (VACUUM, TAU):
        vec = _project_pair(4, VACUUM, s.amplitudes, 1, channel)
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            continue
        vec = vec / norm
        # partner pair (3,4) must fuse to the same channel: q2 = channel forces it
        partner = _project_pair(4, VACUUM, vec, 3, VACUUM)
        partner_p0 = np.vdot(partner, partner).real
        assert abs(partner_p0 - (1.0 if channel == VACUUM else 0.0)) < 1e-10


def test_sample_measurement_init():
    layout = QubitLayout.default(2)
    s = init_state(2)
    for seed in range(5):
        assert sample_measurement(s, layout, seed) == "00"


def test_sample_measurement_frequencies():
    layout = QubitLayout.default(1)
    s = apply_braid(init_state(1), BraidWord(4, (2, 2)))
    p0 = fusion_probabilities(s, 0, layout)[0]
    trials = 10**5
    rng = random.Random(99)
    hits = sum(
        1 for _ in range(trials) if sample_measurement(s, layout, rng.randrange(10**9))[0] == "0"
    )
    sigma = math.sqrt(trials * p0 * (1 - p0))
    assert abs(hits - trials * p0) <= 3 * sigma


def test_sample_measurement_reproducible():
    layout = QubitLayout.default(2)
    s = apply_braid(init_state(2), BraidWord(8, (2, 4, -6, 4)))
    assert sample_measurement(s, layout, 123) == sample_measurement(s, layout, 123)


def test_prob_all_zero_identity():
    assert prob_all_zero(BraidWord(4), QubitLayout.default(1)) == 1.0
    assert prob_all_zero(BraidWord(8), QubitLayout.default(2)) == 1.0
    with pytest.raises(ValueError):
        prob_all_zero(BraidWord(5), QubitLayout.default(1))


def test_prob_all_zero_two_routes_agree():
    # route 1: sequential pair projections inside prob_all_zero
    # route 2: explicit projector matrix built from the F data
    layout = QubitLayout.default(2)
    rng = random.Random(13)
    f = np.array([[1 / PHI, PHI**-0.5], [PHI**-0.5, -1 / PHI]])
    basis = fusion_basis(8, VACUUM)
    index = {p: k for k, p in enumerate(basis)}
    proj = np.eye(len(basis), dtype=complex)
    for a in (1, 5):
        p = np.zeros((len(basis), len(basis)), dtype=complex)
        for idx, path in enumerate(basis):
            left, mid, right = path[a - 1], path[a], path[a + 1]
            if left == VACUUM and right == VACUUM:
                p[idx, idx] = 1.0
            elif left == TAU and right == TAU:
                if mid == VACUUM:
                    j = index[path[:a] + (TAU,) + path[a + 1 :]]
                    p[idx, idx] = f[0, 0] * f[0, 0]
                    p[idx, j] = f[0, 0] * f[0, 1]
                    p[j, idx] = f[1, 0] * f[0, 0]
                    p[j, j] = f[1, 0] * f[0, 1]
        proj = p @ proj
    for _ in range(10):
        b = random_braid(8, rng.randrange(0, 12), rng.randrange(10**9))
        direct = prob_all_zero(b, layout)
        state = apply_braid(init_state(2), b)
        overlap = np.vdot(state.amplitudes, proj @ state.amplitudes).real
        assert abs(direct - overlap) < 1e-10


def test_prob_all_zero_conjugation_outside_measured_pairs():
    layout = QubitLayout.default(2)
    rng = random.Random(17)
    for _ in range(10):
        b = random_braid(8, rng.randrange(0, 10), rng.randrange(10**9))
        g_letters = tuple(
            rng.choice((3, -3, 7, -7)) for _ in range(rng.randrange(1, 5))
        )
        g = BraidWord(8, g_letters)
        conj = g * b * g.inverse()
        assert abs(prob_all_zero(conj, layout) - prob_all_zero(b, layout)) < 1e-10


def test_markov_trace_basics():
    assert abs(markov_trace(BraidWord(3)) - 1) < 1e-12
    with pytest.raises(ValueError):
        markov_trace(BraidWord(2, (1,)), k=7)


def test_markov_trace_conjugation_invariant():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randrange(2, 5)
        b = random_braid(n, rng.randrange(0, 8), rng.randrange(10**9))
        g = random_braid(n, rng.randrange(1, 5), rng.randrange(10**9))
        assert abs(markov_trace(b.conjugate(g)) - markov_trace(b)) < 1e-10


def test_markov_trace_stabilization_consistency():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randrange(2, 4)
        b = random_braid(n, rng.randrange(0, 8), rng.randrange(10**9))
        lhs = trace_normalization(n + 1, b.writhe() + 1) * markov_trace(b.stabilize())
        rhs = trace_normalization(n, b.writhe()) * markov_trace(b)
        assert abs(lhs - rhs) < 1e-8


def test_trace_pipeline_matches_skein():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randrange(2, 4)
        b = random_braid(n, rng.randrange(0, 9), rng.randrange(10**9))
        assert abs(jones_via_trace(b) - jones_at(b, T5)) < 1e-8


def test_jones_estimate_unknot():
    b = BraidWord(1).stabilize()
    est = jones_estimate(b, 0.1, 0.05, seed=11)
    assert abs(est.value - 1) <= 0.1 * est.exact_scale


def test_jones_estimate_trefoil():
    b = BraidWord(2, (1, 1, 1))
    exact = jones_at(b, T5)
    est = jones_estimate(b, 0.05, 0.01, seed=4)
    assert abs(est.value - exact) <= 0.05 * est.exact_scale
    assert est.samples_per_part == sample_count(0.05, 0.01)
    assert est.total_samples == 2 * est.samples_per_part


def test_jones_estimate_seeds_agree():
    b = BraidWord(2, (1, 1, 1))
    e1 = jones_estimate(b, 0.2, 0.05, seed=1)
    e2 = jones_estimate(b, 0.2, 0.05, seed=2)
    assert abs(e1.value - e2.value) <= 2 * 0.2 * e1.exact_scale
    assert jones_estimate(b, 0.2, 0.05, seed=1).value == e1.value


def test_sample_count_monotone():
    assert sample_count(0.5, 0.5) < sample_count(0.05, 0.01)
    assert sample_count(0.2, 0.05) == math.ceil(8 * math.log(2 / 0.05) / 0.04)


def test_jones_estimate_validation():
    b = BraidWord(2, (1,))
    for eps, delta in ((0, 0.1), (1.5, 0.1), (0.1, 0), (0.1, 1)):
        with pytest.raises(ValueError):
            jones_estimate(b, eps, delta, seed=0)


def test_layout_validation():
    with pytest.raises(ValueError):
        QubitLayout(((1, 2, 3, 5),))
    with pytest.raises(ValueError):
        QubitLayout(((1, 2, 3, 4), (4, 5, 6, 7)))


def test_state_dump():
    s = init_state(1)
    text = s.dump()
    assert "1t1t1" in text
    assert len(text.splitlines()) == 2


def test_braid_matrix_matches_dense_oracle():
    rng = random.Random(37)
    braids = 0
    for _ in range(240):
        n = rng.randrange(2, 11)
        b = random_braid(n, rng.randrange(0, 16), rng.randrange(10**9))
        diagonals = []
        for total in (VACUUM, TAU):
            if not fusion_basis(n, total):
                continue
            eye = np.eye(len(fusion_basis(n, total)), dtype=complex)
            got = _apply_letters(b.letters, n, total, eye)
            want = oracle_anyon.dense_braid_matrix(b.letters, n, total)
            assert np.max(np.abs(got - want), initial=0.0) < 1e-12
            diagonals.append(got.diagonal())
        # The trace and the estimator keep exactly these diagonals.
        kept = [diag for _, _, diag in _braid_diagonals(b)]
        assert len(kept) == len(diagonals)
        assert all(np.array_equal(k, d) for k, d in zip(kept, diagonals))
        braids += 1
    assert braids >= 200
    for n in range(2, 11):
        for total in (VACUUM, TAU):
            for i in range(1, n):
                got = sigma_unitary(i, n, total)
                want = oracle_anyon.dense_sigma(i, n, total)
                assert np.max(np.abs(got - want), initial=0.0) < 1e-15


def test_closed_form_hadamard_probabilities_match_circuit():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 8)
        b = random_braid(n, rng.randrange(1, 12), rng.randrange(10**9))
        for total in (VACUUM, TAU):
            if not fusion_basis(n, total):
                continue
            eye = np.eye(len(fusion_basis(n, total)), dtype=complex)
            u = _apply_letters(b.letters, n, total, eye)
            p_re, p_im = _hadamard_zero_probs(u.diagonal())
            for p in range(u.shape[0]):
                want = oracle_anyon.hadamard_test_probs(u, p)
                assert abs(p_re[p] - want[0]) < 1e-12
                assert abs(p_im[p] - want[1]) < 1e-12


@pytest.mark.parametrize(
    "b, epsilon, delta, seed, value",
    [
        (BraidWord(2, (1, 1, 1)), 0.05, 0.01, 4,
         -0.8020646342696178 + 1.3161059607061778j),
        (random_braid(5, 20, 7), 0.1, 0.05, 7,
         -0.6668249377463485 - 0.983244637431524j),
        (BraidWord(8, (1, -2, 3, 3, -4, 5, -6, 7, -7, 2, 6, -5, 4, 1)), 0.05, 0.05, 123,
         2.786492309287921 + 2.5626053154199058j),
    ],
)
def test_jones_estimate_values_are_pinned(b, epsilon, delta, seed, value):
    # The values of the dense-circuit estimator these replace: the closed
    # form and the tightened sampling loop draw the same random stream.
    est = jones_estimate(b, epsilon, delta, seed)
    assert est.value == value
    m = est.samples_per_part
    assert est.value == trace_normalization(b.strands, b.writhe()) * (
        est.sum_re / m + 1j * est.sum_im / m
    )
    assert est.stderr_re == math.sqrt((1 - (est.sum_re / m) ** 2) / m)
    assert est.stderr_im == math.sqrt((1 - (est.sum_im / m) ** 2) / m)


def test_jones_estimate_matches_frozen_randrange_loop():
    # n = 1 has one sector of one path; n = 2, 3 and 6 reach the sector
    # sizes 1, 2 and 8, where the rejection draw is redone most often.
    rng = random.Random(59)
    cases = 0
    sizes = set()
    for n in range(1, 13):
        sizes.update(len(fusion_basis(n, total)) for total in (VACUUM, TAU))
        for delta in (0.05, 0.1, 0.3):
            b = BraidWord(1) if n == 1 else random_braid(n, rng.randrange(0, 3 * n), rng.randrange(10**9))
            for epsilon in (0.5, 0.2, 0.1):
                for seed in (0, 2**32 + 1, 2**64 + 3):
                    est = jones_estimate(b, epsilon, delta, seed)
                    got = (est.value, est.sum_re, est.sum_im, est.stderr_re, est.stderr_im)
                    assert got == oracle_anyon.frozen_jones_estimate(b, epsilon, delta, seed)
                    cases += 1
    assert cases >= 300
    assert {1, 2, 8} <= sizes


def test_negative_seeds_are_refused():
    # random.Random(-s) is random.Random(s): a negative seed would repeat
    # its positive twin while reporting itself.
    b = BraidWord(2, (1, 1, 1))
    with pytest.raises(ValueError, match="seed"):
        jones_estimate(b, 0.2, 0.05, -7)
    with pytest.raises(ValueError, match="seed"):
        random_braid(4, 10, -3)
    with pytest.raises(ValueError, match="seed"):
        sample_measurement(init_state(1), QubitLayout.default(1), -1)
    assert jones_estimate(b, 0.2, 0.05, 0).seed == 0


def test_measurement_on_twenty_anyons_builds_no_dense_matrix():
    layout = QubitLayout.default(5)
    dim = len(fusion_basis(20, VACUUM))
    b = random_braid(20, 30, 43)
    tracemalloc.start()
    try:
        state = apply_braid(init_state(5), b)
        back = apply_braid(state, b.inverse())
        p_all_zero = prob_all_zero(b * b.inverse(), layout)
        bits = sample_measurement(back, layout, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 16 / 20
    assert abs(state.norm() - 1) < 1e-12
    assert abs(p_all_zero - 1.0) < 1e-12
    assert bits == "00000"


def test_every_letter_on_twenty_anyons_retains_little_memory():
    # Memory the caches keep after one braid that uses every letter of both
    # signs on 20 anyons, from cold caches: the per-pair tables, 19 of
    # them on the 4,181 vacuum-sector paths, and nothing per letter.
    for cache in vars(knotqc.anyon).values():
        if hasattr(cache, "cache_info"):
            cache.cache_clear()
    letters = tuple(s * i for i in range(1, 20) for s in (1, -1))
    b = BraidWord(20, letters)
    tracemalloc.start()
    try:
        state = apply_braid(init_state(5), b)
        p_all_zero = prob_all_zero(b, QubitLayout.default(5))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4 * 2**20
    assert abs(state.norm() - 1) < 1e-12
    assert -1e-12 <= p_all_zero <= 1 + 1e-12


def test_trace_and_estimate_keep_no_braid_unitary():
    # From cold caches, what stays after a trace and an estimate on 18
    # anyons is the codes and the three letters' tables, not the 2,584-
    # and 1,597-path sector unitaries (141 MiB together).
    for cache in vars(knotqc.anyon).values():
        if hasattr(cache, "cache_info"):
            cache.cache_clear()
    b = BraidWord(18, (1, -5, 17))
    tracemalloc.start()
    try:
        markov_trace(b)
        jones_estimate(b, 0.5, 0.5, 0)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 8 * 2**20


def test_byte_budget_counts_the_gather(monkeypatch):
    # 18 anyons: a 2584-dim tau unitary is 102 MiB, and its x[partner]
    # gather as much again, so 150 MiB admits the unitary but not both.
    monkeypatch.setattr(knotqc.anyon, "MAX_UNITARY_BYTES", 150 * 2**20)
    with pytest.raises(BudgetExceededError, match="unitary .* gather"):
        sigma_unitary(1, 18, TAU)


def test_dense_unitaries_refused_past_byte_budget():
    # The trace builds no dense unitary: 19 anyons run, 30 pass MAX_ANYONS.
    assert cmath.isfinite(markov_trace(BraidWord(19, (1,))))
    with pytest.raises(BudgetExceededError):
        markov_trace(BraidWord(30, (1,)))
    for n in (19, 30):
        with pytest.raises(BudgetExceededError):
            sigma_unitary(1, n, VACUUM)


def test_dense_build_refused_past_work_budget():
    # 200 letters on 18 anyons would take about 22 s; 54 fit the budget.
    b = BraidWord(18, (1,) * 200)
    for call in (lambda: markov_trace(b), lambda: jones_estimate(b, 0.5, 0.5, 0)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="200 letters on 18 anyons"):
            call()
        assert time.perf_counter() - t0 < 1.0
    assert 54 * 9_227_465 <= knotqc.anyon.MAX_DENSE_WORK < 55 * 9_227_465


def test_trace_past_eighteen_anyons_matches_skein():
    # Each braid fits the work budget; 22 anyons admit one letter.
    for n, length in ((19, 6), (20, 3), (21, 1), (22, 1)):
        b = random_braid(n, length, n)
        assert abs(jones_via_trace(b) - jones_at(b, T5)) < 1e-8


def test_trace_keeps_a_few_chunks_in_flight():
    # The 2,584-path tau sector of 18 anyons as one dense unitary and its
    # gather would be 204 MiB; its chunks hold 16 columns each.
    tracemalloc.start()
    try:
        markov_trace(BraidWord(18, (1,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_column_blocks_keep_the_least_entries(monkeypatch):
    # The 144-path sector of 12 anyons is one chunk; 233 and 377 paths split.
    dims = (1, 144, 233, 377, 2584, 17711)
    layouts = []
    for cpus in (1, 2, 64):
        _usable_cpus(monkeypatch, cpus)
        layouts.append([_column_blocks(dim) for dim in dims])
    assert layouts[0] == layouts[1] == layouts[2]
    assert layouts[0][1] == [(0, 144)]
    assert len(layouts[0][2]) == 2 and len(layouts[0][3]) > 2
    for dim, chunks in zip(dims, layouts[0]):
        assert chunks[0][0] == 0 and chunks[-1][1] == dim
        assert all(lo < hi for lo, hi in chunks)
        assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        width = max(16, knotqc.anyon.CHUNK_ENTRIES // dim)
        assert all(hi - lo == width for lo, hi in chunks[:-1])


@pytest.mark.parametrize("n, length", [(13, 40), (14, 40), (18, 3)])
def test_column_blocks_change_no_bit_of_the_diagonal(monkeypatch, n, length):
    b = random_braid(n, length, n)
    # The one-block build is the identity pushed through the letters whole.
    want = [
        _apply_letters(b.letters, n, total, np.eye(dim, dtype=complex)).diagonal().tobytes()
        for total, dim in knotqc.anyon._dense_sectors(n)
    ]
    for cpus in (1, 2, 3):
        _usable_cpus(monkeypatch, cpus)
        assert [d.tobytes() for _, _, d in _braid_diagonals(b)] == want


def test_trace_and_estimate_leave_no_thread_running(monkeypatch):
    _usable_cpus(monkeypatch, 3)
    before = threading.active_count()
    b = random_braid(14, 20, 1)
    markov_trace(b)
    jones_estimate(b, 0.5, 0.5, 0)
    assert threading.active_count() == before


def test_a_block_thread_error_is_raised_in_the_caller(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    caller, apply = threading.get_ident(), knotqc.anyon._apply_letters

    def failing(letters, n, total, x):
        if threading.get_ident() != caller:
            raise MemoryError("block thread")
        return apply(letters, n, total, x)

    monkeypatch.setattr(knotqc.anyon, "_apply_letters", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="block thread"):
        markov_trace(BraidWord(14, (1, -3)))
    assert threading.active_count() == before


def test_no_pool_starts_when_no_sector_splits(monkeypatch):
    # Up to 12 anyons the larger sector has 144 paths, too few to split
    # on any CPU count, so every workload estimate and 12-anyon trace
    # runs on the calling thread.
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(knotqc.anyon, "ThreadPoolExecutor", no_pool)
    _usable_cpus(monkeypatch, 64)
    for n in range(2, 13):
        b = random_braid(n, 20, n)
        assert cmath.isfinite(markov_trace(b))
        assert cmath.isfinite(jones_estimate(b, 0.5, 0.5, 0).value)
