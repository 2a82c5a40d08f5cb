"""Fibonacci-anyon quantum computer simulator.

State space: fusion paths. A path lists the running total charge while
absorbing anyons one at a time, starting from the vacuum; admissible
steps follow tau x tau = 1 + tau, so sector dimensions grow like
Fibonacci numbers. Braiding two neighbours acts on the single enclosed
path label, diagonally (an R phase) when the flanking labels determine
the pair's fusion channel, and through the golden-ratio F matrix when
both channels are open. Qubits live in anyon quartets; measuring fuses
the first pair of each quartet (vacuum = 0, combined = 1).

The weighted trace of a braid's unitary, normalized by a writhe phase
and a per-strand loop weight, equals the Jones evaluation at
t = e^(2 pi i / 5) of the braid's trace closure; the constants below
were calibrated once against the exact skein engine (unknot and
trefoil instances) and then frozen. jones_estimate reproduces the
quantum-algorithm route: sample a fusion path by its quantum dimension,
run a simulated Hadamard test against the braid unitary, and average.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .braid import BraidWord
from .errors import BudgetExceededError

VACUUM = 0
TAU = 1

PHI = (1 + math.sqrt(5)) / 2

# Braiding eigenphases of a neighbouring pair, by fusion channel.
R_PHASES = (cmath.exp(-4j * math.pi / 5), cmath.exp(3j * math.pi / 5))

# Basis change between the two fusion orders of three tau anyons;
# real, symmetric, and self-inverse.
F_MATRIX = np.array(
    [[1 / PHI, PHI**-0.5], [PHI**-0.5, -1 / PHI]], dtype=float
)

# Calibration, frozen after matching the exact skein pipeline on the
# unknot and trefoil closures and validating on the Hopf link, the
# mirror trefoil, and 300 random braids (see trace_normalization):
#  - a positive braid letter acts by the conjugate transpose of the
#    R/F-built generator (the listed R phases are the opposite
#    chirality for the e^(2 pi i/5) target),
#  - writhe phase alpha = e^(-pi i/5), loop weight = -phi. The loop
#    weight's sign is fixed by even-component links (the Hopf instance);
#    knots alone cannot see it.
POSITIVE_ACTS_CONJUGATED = True
TRACE_ALPHA = cmath.exp(-1j * math.pi / 5)
TRACE_LOOP_WEIGHT = -PHI

# Fib(n+-1) state-space growth; keep the dense simulator at desk scale.
MAX_ANYONS = 24

# Hoeffding constant: m = ceil(8 ln(2/delta) / eps^2) samples for each
# of the real and imaginary parts puts the combined complex estimate
# within eps of the normalized trace with probability >= 1 - delta.
SAMPLE_CONSTANT = 8

# Samples per part beyond which jones_estimate refuses: a few seconds of
# sampling here, against about 33k per part at eps = 0.03, delta = 0.05.
MAX_SAMPLES_PER_PART = 1_000_000


def quantum_dimension(charge: int) -> float:
    return 1.0 if charge == VACUUM else PHI


@lru_cache(maxsize=None)
def fusion_basis(n: int, total: int) -> tuple[tuple[int, ...], ...]:
    """All admissible charge paths for n anyons ending at the given total."""
    if n < 0:
        raise ValueError("anyon count cannot be negative")
    if n > MAX_ANYONS:
        raise ValueError(f"dense simulator is limited to {MAX_ANYONS} anyons")
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
def _basis_index(n: int, total: int) -> dict[tuple[int, ...], int]:
    return {p: k for k, p in enumerate(fusion_basis(n, total))}


@lru_cache(maxsize=None)
def sigma_unitary(i: int, n: int, total: int) -> np.ndarray:
    """Matrix of the exchange of anyons i and i+1 on the fusion-path basis."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"exchange index {i} out of range for {n} anyons")
    basis = fusion_basis(n, total)
    index = _basis_index(n, total)
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
    u.setflags(write=False)
    return u


def _letter_matrix(e: int, n: int, total: int) -> np.ndarray:
    u = sigma_unitary(abs(e), n, total)
    if (e > 0) == POSITIVE_ACTS_CONJUGATED:
        return u.conj().T
    return u


@lru_cache(maxsize=None)
def _braid_matrix(letters: tuple[int, ...], n: int, total: int) -> np.ndarray:
    dim = len(fusion_basis(n, total))
    m = np.eye(dim, dtype=complex)
    for e in letters:
        m = _letter_matrix(e, n, total) @ m
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class AnyonState:
    n: int
    total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = len(fusion_basis(self.n, self.total))
        if self.amplitudes.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got {self.amplitudes.shape}")
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > 1e-10:
            raise ValueError("state must have unit norm")
        self.amplitudes.setflags(write=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def dump(self) -> str:
        """Basis path -> amplitude, one line each; '1' vacuum, 't' tau."""
        lines = []
        for path, amp in zip(fusion_basis(self.n, self.total), self.amplitudes):
            label = "".join("1" if q == VACUUM else "t" for q in path)
            lines.append(f"{label} {amp.real:+.12f}{amp.imag:+.12f}i")
        return "\n".join(lines)


@dataclass(frozen=True)
class QubitLayout:
    quartets: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for q in self.quartets:
            if len(q) != 4 or list(q) != list(range(q[0], q[0] + 4)):
                raise ValueError(f"quartet {q} must be four consecutive anyons")
            if seen & set(q):
                raise ValueError("quartets must be disjoint")
            seen |= set(q)

    @classmethod
    def default(cls, qubits: int) -> "QubitLayout":
        return cls(tuple(tuple(range(4 * k + 1, 4 * k + 5)) for k in range(qubits)))

    @property
    def qubits(self) -> int:
        return len(self.quartets)


def init_state(qubits: int) -> AnyonState:
    """2*qubits vacuum pairs: amplitude 1 on the all-pairs-annihilate path."""
    if qubits < 1:
        raise ValueError("need at least one qubit")
    n = 4 * qubits
    path = tuple(VACUUM if j % 2 == 0 else TAU for j in range(n + 1))
    amp = np.zeros(len(fusion_basis(n, VACUUM)), dtype=complex)
    amp[_basis_index(n, VACUUM)[path]] = 1.0
    return AnyonState(n, VACUUM, amp)


def apply_braid(state: AnyonState, b: BraidWord) -> AnyonState:
    """Evolve by the word's exchanges, first letter first."""
    if b.strands != state.n:
        raise ValueError(f"braid has {b.strands} strands, state has {state.n} anyons")
    amp = state.amplitudes
    for e in b.letters:
        amp = _letter_matrix(e, state.n, state.total) @ amp
    return AnyonState(state.n, state.total, amp)


def _pair_groups(n: int, total: int, a: int):
    """Iterate basis indices grouped by the fusion channel of pair (a, a+1).

    Yields (kind, data): ("fixed", idx, channel) when the flanking labels
    force the channel, ("mixed", idx_vacuum_mid, idx_tau_mid) when the
    F matrix mixes the two mid labels.
    """
    basis = fusion_basis(n, total)
    index = _basis_index(n, total)
    for idx, path in enumerate(basis):
        left, mid, right = path[a - 1], path[a], path[a + 1]
        if left == VACUUM and right == VACUUM:
            yield ("fixed", idx, VACUUM)
        elif left == TAU and right == TAU:
            if mid == VACUUM:
                yield ("mixed", idx, index[path[:a] + (TAU,) + path[a + 1 :]])
        else:
            yield ("fixed", idx, TAU)


def _pair_vacuum_probability(n: int, total: int, amp: np.ndarray, a: int) -> float:
    p0 = 0.0
    for kind, x, y in _pair_groups(n, total, a):
        if kind == "fixed":
            if y == VACUUM:
                p0 += abs(amp[x]) ** 2
        else:
            cv = F_MATRIX[0, 0] * amp[x] + F_MATRIX[0, 1] * amp[y]
            p0 += abs(cv) ** 2
    return p0


def _project_pair(n: int, total: int, amp: np.ndarray, a: int, channel: int) -> np.ndarray:
    """Project onto the pair (a, a+1) fusing to the channel; no renormalization."""
    out = np.zeros_like(amp)
    for kind, x, y in _pair_groups(n, total, a):
        if kind == "fixed":
            if y == channel:
                out[x] = amp[x]
        else:
            c = F_MATRIX[channel, 0] * amp[x] + F_MATRIX[channel, 1] * amp[y]
            out[x] = F_MATRIX[0, channel] * c
            out[y] = F_MATRIX[1, channel] * c
    return out


def fusion_probabilities(
    state: AnyonState, qubit: int, layout: QubitLayout
) -> tuple[float, float]:
    """(p0, p1) for fusing the measured pair of one qubit."""
    if not 0 <= qubit < layout.qubits:
        raise ValueError(f"no qubit {qubit} in layout")
    a = layout.quartets[qubit][0]
    p0 = _pair_vacuum_probability(state.n, state.total, state.amplitudes, a)
    return p0, 1.0 - p0


def sample_measurement(state: AnyonState, layout: QubitLayout, seed: int) -> str:
    """Fuse each qubit's measured pair in turn, collapsing in between."""
    rng = random.Random(seed)
    amp = state.amplitudes.copy()
    bits = []
    for quartet in layout.quartets:
        a = quartet[0]
        p0 = _pair_vacuum_probability(state.n, state.total, amp, a)
        bit = 0 if rng.random() < p0 else 1
        bits.append(str(bit))
        amp = _project_pair(state.n, state.total, amp, a, VACUUM if bit == 0 else TAU)
        norm = np.linalg.norm(amp)
        if norm == 0:
            raise AssertionError("projected onto a zero-probability outcome")
        amp = amp / norm
    return "".join(bits)


def prob_all_zero(b: BraidWord, layout: QubitLayout) -> float:
    """Exact probability that every qubit measures 0 after the braid."""
    if b.strands != 4 * layout.qubits:
        raise ValueError("braid strand count must be 4 * qubits")
    state = apply_braid(init_state(layout.qubits), b)
    amp = state.amplitudes
    for quartet in layout.quartets:
        amp = _project_pair(state.n, state.total, amp, quartet[0], VACUUM)
    return float(np.linalg.norm(amp) ** 2)


def markov_trace(b: BraidWord, k: int = 5) -> complex:
    """Quantum-dimension-weighted normalized trace of the braid unitary."""
    if k != 5:
        raise ValueError("only the Fibonacci (k = 5) path model is implemented")
    num = 0j
    den = 0.0
    for total in (VACUUM, TAU):
        dim = len(fusion_basis(b.strands, total))
        if dim == 0:
            continue
        w = quantum_dimension(total)
        num += w * np.trace(_braid_matrix(b.letters, b.strands, total))
        den += w * dim
    return num / den


def trace_normalization(n: int, writhe: int) -> complex:
    """Writhe phase and loop weight mapping the trace to the Jones value."""
    return TRACE_ALPHA**writhe * TRACE_LOOP_WEIGHT ** (n - 1)


def jones_via_trace(b: BraidWord) -> complex:
    """Jones evaluation at t = e^(2 pi i/5) through the anyon pipeline."""
    return trace_normalization(b.strands, b.writhe()) * markov_trace(b)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _hadamard_test_probs(m: np.ndarray, p_idx: int) -> tuple[float, float]:
    """P(ancilla reads 0) for the real- and imaginary-part test circuits."""
    dim = m.shape[0]
    psi = np.zeros(2 * dim, dtype=complex)
    psi[p_idx] = 1.0
    h = np.kron(_HADAMARD, np.eye(dim))
    controlled = np.zeros((2 * dim, 2 * dim), dtype=complex)
    controlled[:dim, :dim] = np.eye(dim)
    controlled[dim:, dim:] = m
    mid = controlled @ (h @ psi)
    p_re = float(np.linalg.norm((h @ mid)[:dim]) ** 2)
    s_dag = np.kron(np.diag([1, -1j]), np.eye(dim))
    p_im = float(np.linalg.norm((h @ (s_dag @ mid))[:dim]) ** 2)
    return p_re, p_im


@dataclass(frozen=True)
class JonesEstimate:
    value: complex
    exact_scale: float
    epsilon: float
    delta: float
    seed: int
    samples_per_part: int
    total_samples: int
    n: int
    writhe: int
    alpha: complex = TRACE_ALPHA
    loop_weight: float = TRACE_LOOP_WEIGHT


def sample_count(epsilon: float, delta: float) -> int:
    return math.ceil(SAMPLE_CONSTANT * math.log(2 / delta) / epsilon**2)


def jones_estimate(
    b: BraidWord, epsilon: float, delta: float, seed: int
) -> JonesEstimate:
    """Monte-Carlo additive approximation of the Jones value at e^(2 pi i/5).

    With probability >= 1 - delta the estimate lands within
    epsilon * loop_weight^(n-1) of the exact evaluation.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    m = sample_count(epsilon, delta)
    if m > MAX_SAMPLES_PER_PART:
        raise BudgetExceededError(
            f"estimate needs {m} samples per part, budget allows {MAX_SAMPLES_PER_PART}"
        )
    n = b.strands
    rng = random.Random(seed)
    sectors = []
    for total in (VACUUM, TAU):
        dim = len(fusion_basis(n, total))
        if dim:
            sectors.append((total, dim, quantum_dimension(total) * dim))
    weight_sum = sum(w for _, _, w in sectors)
    matrices = {total: _braid_matrix(b.letters, n, total) for total, _, _ in sectors}
    probs: dict[tuple[int, int], tuple[float, float]] = {}

    def draw_path() -> tuple[int, int]:
        r = rng.random() * weight_sum
        for total, dim, w in sectors:
            if r < w:
                return total, rng.randrange(dim)
            r -= w
        return sectors[-1][0], rng.randrange(sectors[-1][1])

    sums = [0, 0]
    for part in (0, 1):
        for _ in range(m):
            key = draw_path()
            if key not in probs:
                probs[key] = _hadamard_test_probs(matrices[key[0]], key[1])
            p_zero = probs[key][part]
            sums[part] += 1 if rng.random() < p_zero else -1
    # Each +-1 draw has expectation 2*P(0) - 1 = the tested trace part.
    trace_est = sums[0] / m + 1j * sums[1] / m
    norm = trace_normalization(n, b.writhe())
    return JonesEstimate(
        value=norm * trace_est,
        exact_scale=abs(norm),
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        samples_per_part=m,
        total_samples=2 * m,
        n=n,
        writhe=b.writhe(),
    )
