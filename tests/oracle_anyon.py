"""Reference anyon unitaries and Hadamard test, dense and independent of
the action table in knotqc.anyon.

Each generator is written out as a dense matrix by the flank/mid case
analysis on fusion paths, a braid's unitary is the product of its letter
matrices, and the Hadamard-test probabilities come from simulating the
ancilla circuit on a 2*dim state, so tests can compare the sparse
gathers and the closed-form probabilities against them.
"""

import math

import numpy as np

from knotqc.anyon import F_MATRIX, POSITIVE_ACTS_CONJUGATED, R_PHASES, TAU, VACUUM, fusion_basis

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def dense_sigma(i: int, n: int, total: int) -> np.ndarray:
    """Dense matrix of the exchange of anyons i and i+1 on the fusion-path basis."""
    basis = fusion_basis(n, total)
    index = {p: k for k, p in enumerate(basis)}
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
