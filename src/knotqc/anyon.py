"""Fibonacci-anyon quantum computer simulator.

State space: fusion paths. A path lists the running total charge while
absorbing anyons one at a time, starting from the vacuum; admissible
steps follow tau x tau = 1 + tau, so sector dimensions grow like
Fibonacci numbers. Qubits live in anyon quartets; measuring fuses the
first pair of each quartet (vacuum = 0, combined = 1).

The model is the Temperley-Lieb (Kauffman bracket) path representation
of Aharonov, Jones and Landau at one constant A, with t = A^-4 =
e^(2 pi i / 5). The generator E_i acts on the path label between
anyons i and i+1, mixing it with its partner label by quantum
dimensions, and everything else is linear in it: braid letter +-i is
B + B^-1 E_i with B = A^+-1, the pair's vacuum projector is E_i/phi
(phi = -A^2 - A^-2 is the loop value) and its tau projector 1 - E_i/phi.
Each sector's paths are kept one way only, as a sorted array of integer
codes (one bit per label), and E_i is read off them as each path's
partner and two weights, so a letter or a projection is an O(dim)
gather. The trace and the estimator read only the diagonal of each
sector's braid unitary: they push the identity through the letters in
column chunks of about CHUNK_ENTRIES entries, on one thread pool per
braid (on the calling thread when no sector splits), and keep each
chunk's slice of the diagonal, so a few chunks are in flight, never the
dim^2 unitary. MAX_DENSE_WORK bounds the build. A letter's gather only
moves rows, so each column, and the diagonal, is the same to the bit
however the columns are chunked.

The weighted trace of a braid's unitary, normalized by the writhe phase
A^-3 and the loop weight -phi per strand, equals the Jones evaluation
at t of the braid's trace closure. The trace is taken piece by piece
(BraidWord.pieces): the Jones value is the product of the pieces' times
-phi per split, so MAX_DENSE_WORK sizes the largest piece, not the
braid. jones_estimate reproduces the quantum-algorithm route on the
whole braid: sample a fusion path by its quantum dimension, run a
simulated Hadamard test against the braid unitary, and average.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .braid import BraidWord, _check_seed
from .errors import BudgetExceededError

VACUUM = 0
TAU = 1

PHI = (1 + math.sqrt(5)) / 2

# The Kauffman bracket variable: A^-4 = e^(2 pi i/5) and -A^2 - A^-2 = phi.
A = -cmath.exp(2j * math.pi / 5)

# Kauffman's normalization (-A^3)^-writhe d^(n-1) with A replaced by iA,
# whose A^-2 = e^(pi i/5) is the square root of t the skein engine uses;
# the letters' factor i^writhe cancels against the writhe phase's, which
# leaves A^-3 and -d = -phi.
TRACE_ALPHA = A**-3
TRACE_LOOP_WEIGHT = -PHI

# A path of n anyons is an (n+1)-bit code; 24 anyons is about 75k paths.
MAX_ANYONS = 24

# Byte budget of a dense letter matrix from sigma_unitary plus the
# same-size x[partner] gather _act allocates for it, checked from n's
# larger sector before anything is built (up to 18 anyons fit at 256 MiB).
MAX_UNITARY_BYTES = 256 * 2**20

# Work budget of a diagonal build, max(1, letters) times the sum of the
# sectors' dim^2 (each letter is an O(dim) gather on each of dim columns;
# with no letter, filling the identity is the work), checked before
# anything is built, on the whole braid for the estimator and on each
# piece for the trace: 54 letters fit on 18 anyons, 3 on 21, 1 on 22.
MAX_DENSE_WORK = 500_000_000

# Entries (paths times columns) of one column chunk of the trace's build,
# at least 16 columns each. 2^15 keeps the 144-path sector of 12 anyons
# whole, so no pool starts for the 8-12-anyon estimates; at 2^18 the
# unsplit 14-anyon traces took 1.4-2 times as long, and 1-column chunks
# on 22 anyons 3 times as long as 16-column ones (2-vCPU Xeon VM).
CHUNK_ENTRIES = 2**15

# Hoeffding constant: m = ceil(8 ln(2/delta) / eps^2) samples for each
# of the real and imaginary parts puts the combined complex estimate
# within eps of the normalized trace with probability >= 1 - delta.
SAMPLE_CONSTANT = 8

# Samples per part beyond which jones_estimate refuses. 975,572 per part
# (eps = 0.0055, delta = 0.05) sample in 0.6-0.7 s on a 2-CPU Xeon VM, on
# 2 and on 12 strands, against about 33k per part at eps = 0.03.
MAX_SAMPLES_PER_PART = 1_000_000


def quantum_dimension(charge: int) -> float:
    return 1.0 if charge == VACUUM else PHI


def _dense_sectors(n: int) -> list[tuple[int, int]]:
    """(total, dim) of each nonempty sector of n anyons."""
    dims = ((total, len(_codes(n, total))) for total in (VACUUM, TAU))
    return [(total, dim) for total, dim in dims if dim]


@lru_cache(maxsize=2 * (MAX_ANYONS + 1))
def _codes(n: int, total: int) -> np.ndarray:
    """The admissible paths of n anyons ending at total, as sorted codes:
    label j of a path is bit n - j of its code, so numeric order is the
    paths' lexicographic order. A vacuum label is always followed by tau."""
    if n < 0:
        raise ValueError("anyon count cannot be negative")
    if n > MAX_ANYONS:
        raise BudgetExceededError(
            f"path enumeration on {n} anyons, budget allows {MAX_ANYONS}"
        )
    if total not in (VACUUM, TAU):
        raise ValueError(f"total charge must be VACUUM (0) or TAU (1), not {total!r}")
    codes = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        codes = np.concatenate((codes << 1 | TAU, codes[codes & 1 == TAU] << 1 | VACUUM))
    codes = np.sort(codes[codes & 1 == total])
    codes.setflags(write=False)
    return codes


def fusion_basis(n: int, total: int) -> tuple[tuple[int, ...], ...]:
    """All admissible charge paths for n anyons ending at the given total."""
    labels = _codes(n, total)[:, None] >> np.arange(n, -1, -1) & 1
    return tuple(map(tuple, labels.tolist()))


@lru_cache(maxsize=256)
def _pair_table(a: int, n: int, total: int):
    """The Temperley-Lieb generator E_a on every basis path.

    E_a is zero on a path unless its flanking labels path[a-1] and
    path[a+1] are equal. Then it mixes the mid label m = path[a] with the
    other mid label m' by sqrt(d_m d_m') / d_flank, with d_m / d_flank on
    the diagonal, d being the quantum dimension. m' is admissible only
    between tau flanks, where the partner's code has the mid bit flipped;
    elsewhere a path is its own partner with no off-diagonal weight.
    Returns (partner, diag, off), read-only, one entry per path (10,946
    in both sectors at 20 anyons): E_a x is diag*x + off*x[partner].
    """
    if not 1 <= a <= n - 1:
        raise ValueError(f"exchange index {a} out of range for {n} anyons")
    codes = _codes(n, total)
    flank = codes >> (n - a + 1) & 1
    mid = codes >> (n - a) & 1
    equal = flank == codes >> (n - a - 1) & 1
    d_flank, d_mid = np.where(flank == TAU, PHI, 1.0), np.where(mid == TAU, PHI, 1.0)
    both_tau = equal & (flank == TAU)
    partner = np.arange(len(codes))
    partner[both_tau] = np.searchsorted(codes, codes[both_tau] ^ (1 << (n - a)))
    diag = np.where(equal, d_mid / d_flank, 0.0)
    off = np.where(both_tau, math.sqrt(PHI) / PHI, 0.0)  # d_m d_m' = phi
    for array in (partner, diag, off):
        array.setflags(write=False)
    return partner, diag, off


def _act(action, x: np.ndarray) -> np.ndarray:
    """x <- d*x + o*x[partner], in place, on a state or every column of a matrix."""
    partner, d, o = action
    if x.ndim == 2:
        d, o = d[:, None], o[:, None]
    gathered = x[partner]
    gathered *= o
    x *= d
    x += gathered
    return x


def _apply_letters(letters, n: int, total: int, x: np.ndarray) -> np.ndarray:
    """Push the letters through x in place, first letter first: x is a
    state, or a block whose every column is one. Letter e acts by
    B + B^-1 E_|e|, with B = A for e > 0 and A^-1 for e < 0; its weights
    are derived from _pair_table as it is applied and dropped after, so
    a state on many anyons never holds every letter's weights at once."""
    for e in letters:
        b, b_inv = (A, 1 / A) if e > 0 else (1 / A, A)
        partner, diag, off = _pair_table(abs(e), n, total)
        _act((partner, b + b_inv * diag, b_inv * off), x)
    return x


def sigma_unitary(i: int, n: int, total: int) -> np.ndarray:
    """Dense matrix of letter -i, A^-1 + A E_i, on the fusion-path basis:
    the exchange of anyons i and i+1 with braiding phase e^(-4 pi i/5) on
    their vacuum channel and e^(3 pi i/5) on their tau channel. For tests
    and inspection; the simulator applies the table."""
    if i < 1:
        raise ValueError(f"exchange index {i} out of range for {n} anyons")
    largest = max(dim for _, dim in _dense_sectors(n))
    nbytes = 2 * largest**2 * np.dtype(complex).itemsize
    if nbytes > MAX_UNITARY_BYTES:
        raise BudgetExceededError(
            f"a dense unitary on {n} anyons and its x[partner] gather need "
            f"{nbytes} bytes, budget allows {MAX_UNITARY_BYTES}"
        )
    return _apply_letters((-i,), n, total, np.eye(len(_codes(n, total)), dtype=complex))


def _column_blocks(dim: int) -> list[tuple[int, int]]:
    """[lo, hi) chunks of a dim-path identity's columns, each of
    max(16, CHUNK_ENTRIES // dim) columns but the last."""
    width = max(16, CHUNK_ENTRIES // dim)
    return [(lo, min(lo + width, dim)) for lo in range(0, dim, width)]


def _braid_diagonals(b: BraidWord) -> list[tuple[float, int, np.ndarray]]:
    """(quantum dimension, dim, U_pp) for each sector: the diagonal of the
    braid's unitary U there. Each column chunk of the identity is pushed
    through the letters and dropped once its slice of the diagonal is
    copied."""
    n = b.strands
    sectors = _dense_sectors(n)
    work = max(1, len(b.letters)) * sum(dim * dim for _, dim in sectors)
    if work > MAX_DENSE_WORK:
        raise BudgetExceededError(
            f"{len(b.letters)} letters on {n} anyons take {work} path steps "
            f"to trace, budget allows {MAX_DENSE_WORK}"
        )

    def run(total: int, dim: int, lo: int, hi: int) -> np.ndarray:
        chunk = np.zeros((dim, hi - lo), dtype=complex)
        np.fill_diagonal(chunk[lo:hi], 1)  # columns lo..hi-1 of the identity
        return _apply_letters(b.letters, n, total, chunk)[lo:hi].diagonal().copy()

    chunks = [(total, dim, lo, hi) for total, dim in sectors for lo, hi in _column_blocks(dim)]
    if len(chunks) == len(sectors):
        slices = list(map(run, *zip(*chunks)))
    else:
        # numpy releases the GIL in the gather and the in-place updates;
        # the pool re-raises a chunk's error here and joins its threads.
        with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
            slices = list(pool.map(run, *zip(*chunks)))
    # The chunks tile the first sector's columns, then the second's.
    diagonals = np.split(np.concatenate(slices), [sectors[0][1]])
    return [(quantum_dimension(t), dim, d) for (t, dim), d in zip(sectors, diagonals)]


@dataclass(frozen=True)
class AnyonState:
    n: int
    total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        # A read-only complex copy; the caller's array is left as it was.
        amplitudes = np.array(self.amplitudes, dtype=complex)
        dim = len(_codes(self.n, self.total))
        if amplitudes.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got {amplitudes.shape}")
        if abs(np.linalg.norm(amplitudes) - 1.0) > 1e-10:
            raise ValueError("state must have unit norm")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)

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
    codes = _codes(n, VACUUM)
    amp = np.zeros(len(codes), dtype=complex)
    amp[np.searchsorted(codes, int("01" * (n // 2) + "0", 2))] = 1.0  # labels 0101..0
    return AnyonState(n, VACUUM, amp)


def apply_braid(state: AnyonState, b: BraidWord) -> AnyonState:
    """Evolve by the word's exchanges, first letter first."""
    if b.strands != state.n:
        raise ValueError(f"braid has {b.strands} strands, state has {state.n} anyons")
    amp = _apply_letters(b.letters, state.n, state.total, state.amplitudes.copy())
    return AnyonState(state.n, state.total, amp)


def _project_pair(n: int, total: int, amp: np.ndarray, a: int, channel: int) -> np.ndarray:
    """Project onto the pair (a, a+1) fusing to the channel, by E_a/phi for
    the vacuum and 1 - E_a/phi for tau; no renormalization."""
    partner, diag, off = _pair_table(a, n, total)
    vacuum = _act((partner, diag / PHI, off / PHI), amp.copy())
    return vacuum if channel == VACUUM else amp - vacuum


def fusion_probabilities(
    state: AnyonState, qubit: int, layout: QubitLayout
) -> tuple[float, float]:
    """(p0, p1) for fusing the measured pair of one qubit."""
    if not 0 <= qubit < layout.qubits:
        raise ValueError(f"no qubit {qubit} in layout")
    a = layout.quartets[qubit][0]
    vacuum = _project_pair(state.n, state.total, state.amplitudes, a, VACUUM)
    p0 = float(np.vdot(vacuum, vacuum).real)
    return p0, 1.0 - p0


def sample_measurement(state: AnyonState, layout: QubitLayout, seed: int) -> str:
    """Fuse each qubit's measured pair in turn, collapsing in between."""
    _check_seed(seed)
    rng = random.Random(seed)
    amp = state.amplitudes.copy()
    bits = []
    for quartet in layout.quartets:
        a = quartet[0]
        vacuum = _project_pair(state.n, state.total, amp, a, VACUUM)
        bit = 0 if rng.random() < np.vdot(vacuum, vacuum).real else 1
        bits.append(str(bit))
        amp = vacuum if bit == 0 else amp - vacuum
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
    return jones_via_trace(b) / trace_normalization(b.strands, b.writhe())


def trace_normalization(n: int, writhe: int) -> complex:
    """Writhe phase and loop weight mapping the trace to the Jones value."""
    return TRACE_ALPHA**writhe * TRACE_LOOP_WEIGHT ** (n - 1)


def jones_via_trace(b: BraidWord) -> complex:
    """Jones evaluation at t = e^(2 pi i/5) through the anyon pipeline: the
    product of the pieces' normalized traces, times the loop weight per
    split. MAX_ANYONS bounds the whole braid, MAX_DENSE_WORK each piece."""
    if b.strands > MAX_ANYONS:
        raise BudgetExceededError(
            f"trace on {b.strands} anyons, budget allows {MAX_ANYONS}"
        )
    pieces, splits = b.pieces()
    value = complex(TRACE_LOOP_WEIGHT**splits)
    for p in pieces:
        num = den = 0
        for w, dim, diag in _braid_diagonals(p):
            num += w * diag.sum()
            den += w * dim
        value *= trace_normalization(p.strands, p.writhe()) * num / den
    return value


@dataclass(frozen=True)
class JonesEstimate:
    """An estimate with its run data. sum_re and sum_im are the +-1 sums of
    the real- and imaginary-part Hadamard tests; stderr_re and stderr_im
    are the empirical standard errors of sum / samples_per_part, the
    normalized trace parts before the writhe and loop-weight scale."""

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
    sum_re: int = 0
    sum_im: int = 0
    stderr_re: float = 0.0
    stderr_im: float = 0.0


def sample_count(epsilon: float, delta: float) -> int:
    return math.ceil(SAMPLE_CONSTANT * math.log(2 / delta) / epsilon**2)


def _hadamard_zero_probs(diag: np.ndarray) -> tuple[list[float], list[float]]:
    """P(ancilla reads 0) of the Hadamard test on each basis path p, from U's
    diagonal: (1 + Re U_pp)/2, and with S-dagger on the ancilla (1 + Im U_pp)/2."""
    return ((1 + diag.real) / 2).tolist(), ((1 + diag.imag) / 2).tolist()


def jones_estimate(
    b: BraidWord, epsilon: float, delta: float, seed: int
) -> JonesEstimate:
    """Monte-Carlo additive approximation of the Jones value at e^(2 pi i/5).

    With probability >= 1 - delta the estimate lands within
    epsilon * loop_weight^(n-1) of the exact evaluation. The seed must be
    non-negative; a fixed seed gives a fixed estimate.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    _check_seed(seed)
    # sample_count > MAX without its division, which over- or underflows.
    if SAMPLE_CONSTANT * math.log(2 / delta) > MAX_SAMPLES_PER_PART * epsilon**2:
        raise BudgetExceededError(
            f"estimate at epsilon={epsilon}, delta={delta} needs more samples "
            f"per part than the budget allows ({MAX_SAMPLES_PER_PART})"
        )
    m = sample_count(epsilon, delta)
    n = b.strands
    sectors = [(w * dim, *_hadamard_zero_probs(d)) for w, dim, d in _braid_diagonals(b)]
    weight_sum = sum(w for w, _, _ in sectors)
    first_weight = sectors[0][0]
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    sums = []
    for part in (1, 2):
        # A path is drawn by its quantum dimension: a sector by weight (of
        # at most two, the last also takes round-off), then a path in it
        # by random.Random's own rule for a bounded integer: k =
        # size.bit_length() bits, drawn again while not below size. That
        # reads the same words of the stream as Random's bounded draw.
        first, last = (
            (probs, len(probs), len(probs).bit_length())
            for probs in (sectors[0][part], sectors[-1][part])
        )
        pm_sum = 0
        for _ in range(m):
            probs, size, k = first if draw() * weight_sum < first_weight else last
            r = bits(k)
            while r >= size:
                r = bits(k)
            pm_sum += 1 if draw() < probs[r] else -1
        sums.append(pm_sum)
    # Each +-1 draw has expectation 2*P(0) - 1 = the tested trace part.
    trace_est = sums[0] / m + 1j * sums[1] / m
    norm = trace_normalization(n, b.writhe())
    stderr_re, stderr_im = (math.sqrt((1 - (s / m) ** 2) / m) for s in sums)
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
        sum_re=sums[0],
        sum_im=sums[1],
        stderr_re=stderr_re,
        stderr_im=stderr_im,
    )
