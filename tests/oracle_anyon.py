"""Reference anyon unitaries and Hadamard test, dense and independent of
the Temperley-Lieb action table in knotqc.anyon.

fusion_basis and pair_table are the tuple enumeration of fusion paths
and the per-path loop that built E_a's (partner, diag, off) table before
paths became integer codes, bodies unchanged, so tests can check the
code-based table against them; dense_sigma and dense_braid_matrix run
on this enumeration too.

Each generator is written out as a dense matrix from the anyon data (the
braiding eigenphases R and the golden-ratio F matrix) by the flank/mid
case analysis on fusion paths, a braid's unitary is the product of its
letter matrices, and the Hadamard-test probabilities come from
simulating the ancilla circuit on a 2*dim state, so tests can compare
the sparse gathers and the closed-form probabilities against them.

frozen_jones_estimate keeps the estimator's sampling loop as it was when
each path index came from rng.randrange, so tests can check that the
inline draw reads the same random stream. It reads each sector's whole
unitary through _braid_matrix, _letter_action and _hadamard_zero_probs,
the simulator's functions from before it kept only the diagonal, bodies
unchanged (without _braid_matrix's cache).
"""

import cmath
import math
import random
from functools import lru_cache

import numpy as np

from knotqc.anyon import (
    MAX_ANYONS,
    PHI,
    TAU,
    VACUUM,
    A,
    _act,
    _codes,
    _dense_sectors,
    _pair_table,
    quantum_dimension,
    sample_count,
    trace_normalization,
)

# Braiding eigenphases of a neighbouring pair, by fusion channel.
R_PHASES = (cmath.exp(-4j * math.pi / 5), cmath.exp(3j * math.pi / 5))

# Basis change between the two fusion orders of three tau anyons;
# real, symmetric, and self-inverse.
F_MATRIX = np.array(
    [[1 / PHI, PHI**-0.5], [PHI**-0.5, -1 / PHI]], dtype=float
)

# A positive braid letter acts by the conjugate transpose of the
# R/F-built generator: the listed R phases are the opposite chirality
# for the e^(2 pi i/5) target.
POSITIVE_ACTS_CONJUGATED = True

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@lru_cache(maxsize=None)
def fusion_basis(n: int, total: int) -> tuple[tuple[int, ...], ...]:
    """All admissible charge paths for n anyons ending at the given total."""
    if n < 0:
        raise ValueError("anyon count cannot be negative")
    if n > MAX_ANYONS:
        raise ValueError(f"path enumeration is limited to {MAX_ANYONS} anyons")
    paths = [(VACUUM,)]
    for _ in range(n):
        grown = []
        for p in paths:
            if p[-1] == VACUUM:
                grown.append(p + (TAU,))
            else:
                grown.append(p + (VACUUM,))
                grown.append(p + (TAU,))
        paths = grown
    return tuple(sorted(p for p in paths if p[-1] == total))


@lru_cache(maxsize=None)
def basis_index(n: int, total: int) -> dict[tuple[int, ...], int]:
    return {p: k for k, p in enumerate(fusion_basis(n, total))}


def pair_table(a: int, n: int, total: int):
    """The Temperley-Lieb generator E_a as (partner, diag, off): E_a x is
    diag*x + off*x[partner]."""
    if not 1 <= a <= n - 1:
        raise ValueError(f"exchange index {a} out of range for {n} anyons")
    basis = fusion_basis(n, total)
    index = basis_index(n, total)
    partner = np.arange(len(basis))
    diag = np.zeros(len(basis))
    off = np.zeros(len(basis))
    for p, path in enumerate(basis):
        flank, mid = path[a - 1], path[a]
        if flank != path[a + 1]:
            continue
        d_flank, d_mid = quantum_dimension(flank), quantum_dimension(mid)
        diag[p] = d_mid / d_flank
        if flank == TAU:
            partner[p] = index[path[:a] + (1 - mid,) + path[a + 1 :]]
            off[p] = math.sqrt(d_mid * quantum_dimension(1 - mid)) / d_flank
    return partner, diag, off


def dense_sigma(i: int, n: int, total: int) -> np.ndarray:
    """Dense matrix of the exchange of anyons i and i+1 on the fusion-path basis."""
    basis = fusion_basis(n, total)
    index = basis_index(n, total)
    dim = len(basis)
    block = F_MATRIX @ np.diag(R_PHASES) @ F_MATRIX
    u = np.zeros((dim, dim), dtype=complex)
    for p_idx, path in enumerate(basis):
        left, mid, right = path[i - 1], path[i], path[i + 1]
        if left == VACUUM and right == VACUUM:
            u[p_idx, p_idx] = R_PHASES[VACUUM]
        elif left == TAU and right == TAU:
            if mid == VACUUM:
                q_idx = index[path[:i] + (TAU,) + path[i + 1 :]]
                u[p_idx, p_idx] = block[0, 0]
                u[p_idx, q_idx] = block[0, 1]
                u[q_idx, p_idx] = block[1, 0]
                u[q_idx, q_idx] = block[1, 1]
        else:
            u[p_idx, p_idx] = R_PHASES[TAU]
    return u


def dense_braid_matrix(letters, n: int, total: int) -> np.ndarray:
    """Product of the letters' dense matrices, first letter rightmost."""
    m = np.eye(len(fusion_basis(n, total)), dtype=complex)
    for e in letters:
        u = dense_sigma(abs(e), n, total)
        if (e > 0) == POSITIVE_ACTS_CONJUGATED:
            u = u.conj().T
        m = u @ m
    return m


def hadamard_test_probs(m: np.ndarray, p_idx: int) -> tuple[float, float]:
    """P(ancilla reads 0) for the real- and imaginary-part test circuits."""
    dim = m.shape[0]
    psi = np.zeros(2 * dim, dtype=complex)
    psi[p_idx] = 1.0
    h = np.kron(HADAMARD, np.eye(dim))
    controlled = np.zeros((2 * dim, 2 * dim), dtype=complex)
    controlled[:dim, :dim] = np.eye(dim)
    controlled[dim:, dim:] = m
    mid = controlled @ (h @ psi)
    p_re = float(np.linalg.norm((h @ mid)[:dim]) ** 2)
    s_dag = np.kron(np.diag([1, -1j]), np.eye(dim))
    p_im = float(np.linalg.norm((h @ (s_dag @ mid))[:dim]) ** 2)
    return p_re, p_im


def _letter_action(e: int, n: int, total: int):
    """Letter e acts by B + B^-1 E_|e|, with B = A for e > 0 and A^-1 for
    e < 0; derived from _pair_table on each use."""
    b, b_inv = (A, 1 / A) if e > 0 else (1 / A, A)
    partner, diag, off = _pair_table(abs(e), n, total)
    return partner, b + b_inv * diag, b_inv * off


def _braid_matrix(letters: tuple[int, ...], n: int, total: int) -> np.ndarray:
    """The braid's unitary on one sector: its letters pushed through the identity."""
    m = np.eye(len(_codes(n, total)), dtype=complex)
    actions = {e: _letter_action(e, n, total) for e in set(letters)}
    for e in letters:
        _act(actions[e], m)
    m.setflags(write=False)
    return m


def _hadamard_zero_probs(u: np.ndarray) -> tuple[list[float], list[float]]:
    """P(ancilla reads 0) of the Hadamard test on each basis path p:
    (1 + Re U_pp)/2, and with S-dagger on the ancilla (1 + Im U_pp)/2."""
    diag = u.diagonal()
    return ((1 + diag.real) / 2).tolist(), ((1 + diag.imag) / 2).tolist()


def frozen_jones_estimate(b, epsilon: float, delta: float, seed: int):
    """(value, sum_re, sum_im, stderr_re, stderr_im) of the randrange
    sampling loop, body unchanged; the sample budget is not checked."""
    m = sample_count(epsilon, delta)
    n = b.strands
    sectors = []
    for total, dim in _dense_sectors(n):
        p_re, p_im = _hadamard_zero_probs(_braid_matrix(b.letters, n, total))
        sectors.append((quantum_dimension(total) * dim, p_re, p_im))
    weight_sum = sum(w for w, _, _ in sectors)
    first_weight = sectors[0][0]
    rng = random.Random(seed)
    draw, randrange = rng.random, rng.randrange
    sums = []
    for part in (1, 2):
        # A path is drawn by its quantum dimension: a sector by weight (of
        # at most two, the last also takes round-off), then a path in it.
        first, last = sectors[0][part], sectors[-1][part]
        pm_sum = 0
        for _ in range(m):
            probs = first if draw() * weight_sum < first_weight else last
            p_zero = probs[randrange(len(probs))]
            pm_sum += 1 if draw() < p_zero else -1
        sums.append(pm_sum)
    # Each +-1 draw has expectation 2*P(0) - 1 = the tested trace part.
    trace_est = sums[0] / m + 1j * sums[1] / m
    norm = trace_normalization(n, b.writhe())
    stderr_re, stderr_im = (math.sqrt((1 - (s / m) ** 2) / m) for s in sums)
    return norm * trace_est, sums[0], sums[1], stderr_re, stderr_im
