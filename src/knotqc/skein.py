"""Exact two-variable skein polynomial by descending-diagram resolution.

Crossing relations in general tie together the four ways to connect the
strands at a site: A*f(K+) + B*f(K-) = C*f(K0) + D*f(Kinf), where K+/K-
are the two crossings, K0 the orientation-respecting smoothing and Kinf
the other one. Only the oriented solution is computed here, with
coefficients (a, -a^-1, z, 0): the relation a*P(K+) - a^-1*P(K-) =
z*P(K0) with P(unknot) = 1, whose unoriented smoothing never arises.

The relation is turned into a terminating recursion: traverse the link from
deterministic base points (smallest arc id per component); the first
crossing whose first visit enters on the under-strand is resolved, once
switched (strictly closer to a descending diagram) and once smoothed
(one crossing fewer). A descending diagram is a split unlink worth
((a - a^-1) z^-1)^(m-1). Before a diagram is keyed or resolved, its
cancelling bigons (an opposite pair the two strands pull straight
through, a Reidemeister-II move) and its kinks (a crossing a strand
leaves and comes straight back to, a Reidemeister-I move) are removed
exactly, which keeps plain recursion trees within the 2^c bound. A kink
costs no factor: at a kink added to a diagram K, the smoothing is K
beside a split circle, so with the unlink factor (a - a^-1) z^-1 the
relation reads a*P(K+) - a^-1*P(K-) = (a - a^-1)*P(K). P(K+) = P(K-) =
P(K) satisfies it, and P is the invariant of the unframed link (HOMFLY,
1985), so it does not see the kink. Subresults are memoized
under the diagram's relabeling-invariant canonical key, which further
turns those trees into shared DAGs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .braid import BraidWord
from .diagram import PDDiagram, _first_violation, _planar, _reduce, closure_to_diagram
from .errors import BudgetExceededError
from .laurent import LaurentPoly1, LaurentPoly2, specialize_jones

# Value of a split 2-component unlink: (a - a^-1) z^-1.
DELTA = LaurentPoly2({(1, -1): 1, (-1, -1): -1})

# a P(K+) - a^-1 P(K-) = z P(K0) solved for a crossing of sign s:
# P(K_s) = a^(-2s) P(K_-s) + s a^(-s) z P(K0), as (to_switched, to_smoothed).
_RELATION = {
    s: (LaurentPoly2.monomial(1, -2 * s, 0), LaurentPoly2.monomial(s, -s, 1)) for s in (1, -1)
}


# Crossings a diagram may have before _reduce, which takes O(c^2): the
# worst measured input, a 1,000-crossing code reducing to 501 crossings,
# took 0.1 s (one core of a 2-vCPU Xeon VM).
MAX_RAW_CROSSINGS = 1000


@dataclass(frozen=True)
class SkeinBudget:
    max_crossings: int = 64
    max_nodes: int = 2_000_000
    memo_enabled: bool = True

    def __post_init__(self):
        if self.max_crossings <= 0 or self.max_nodes <= 0:
            raise ValueError("budget bounds must be positive")


@dataclass
class SkeinStats:
    nodes: int = 0
    memo_hits: int = 0


def _evaluate(
    root: PDDiagram,
    budget: SkeinBudget,
    memo: dict[str, LaurentPoly2] | None,
    stats: SkeinStats,
) -> LaurentPoly2:
    """Post-order walk: a diagram on the work stack asks for its value; a
    (key, sign) entry combines the two values its children left on top of
    the value stack, the switch's above the smoothing's."""
    work: list = [root]
    values: list[LaurentPoly2] = []
    while work:
        item = work.pop()
        if isinstance(item, tuple):
            key, sign = item
            switched, smoothed = values.pop(), values.pop()
            to_switched, to_smoothed = _RELATION[sign]
            value = to_switched * switched + to_smoothed * smoothed
        else:
            stats.nodes += 1
            if stats.nodes > budget.max_nodes:
                raise BudgetExceededError(
                    f"skein recursion exceeded {budget.max_nodes} nodes"
                )
            d = _reduce(item)
            key = None
            if memo is not None:
                key = d.canonical_key()
                cached = memo.get(key)
                if cached is not None:
                    stats.memo_hits += 1
                    values.append(cached)
                    continue
            viol = _first_violation(d)
            if viol is not None:
                # The smoothing is popped, and so evaluated, first.
                work += (
                    (key, d._signs[viol]),
                    d.switch_crossing(viol),
                    d.smooth_crossing(viol),
                )
                continue
            value = DELTA ** (d.components() - 1)
        values.append(value)
        if memo is not None:
            memo[key] = value
    return values.pop()


def _check_size(crossings: int, free_loops: int, budget: SkeinBudget) -> None:
    # Free loops count too: each one multiplies a leaf value by DELTA.
    if crossings + free_loops > budget.max_crossings:
        raise BudgetExceededError(
            f"diagram has {crossings} crossings and {free_loops} free loops, "
            f"budget allows {budget.max_crossings} in all"
        )


def homfly_with_stats(
    obj: BraidWord | PDDiagram,
    budget: SkeinBudget | None = None,
    memo: dict[str, LaurentPoly2] | None = None,
) -> tuple[LaurentPoly2, SkeinStats]:
    """The skein engine's one entry: the invariant of a diagram, or of the
    closure of a braid's free reduction, with node and memo-hit counts.
    A braid is sized before its closure is built: its letters plus its
    untouched strands (the closure's free loops) against the budget. A
    diagram is sized after its kinks and bigons are removed, and refused
    before that past MAX_RAW_CROSSINGS."""
    budget = budget or SkeinBudget()
    if isinstance(obj, BraidWord):
        b = obj.free_reduce()
        touched = {abs(e) + k for e in b.letters for k in (0, 1)}
        _check_size(len(b.letters), b.strands - len(touched), budget)
        d = closure_to_diagram(b)
    elif isinstance(obj, PDDiagram):
        if not obj._signs and not obj.free_loops:
            raise ValueError("the diagram has no components, so no invariant")
        if len(obj._signs) > MAX_RAW_CROSSINGS:
            raise BudgetExceededError(
                f"diagram has {len(obj._signs)} crossings before its kinks and "
                f"bigons are removed, budget allows {MAX_RAW_CROSSINGS}"
            )
        if not _planar(obj):
            raise ValueError("the diagram is not planar, so its Gauss code is not realizable")
        d = _reduce(obj)
        _check_size(len(d._signs), d.free_loops, budget)
    else:
        raise TypeError(f"expected a braid word or diagram, got {type(obj).__name__}")
    if memo is None and budget.memo_enabled:
        memo = {}
    if not budget.memo_enabled:
        memo = None
    stats = SkeinStats()
    return _evaluate(d, budget, memo, stats), stats


def homfly(
    obj: BraidWord | PDDiagram,
    budget: SkeinBudget | None = None,
    memo: dict[str, LaurentPoly2] | None = None,
) -> LaurentPoly2:
    """Exact two-variable invariant of a diagram or a braid closure."""
    return homfly_with_stats(obj, budget, memo)[0]


homfly_braid = homfly


def jones(obj, budget: SkeinBudget | None = None) -> LaurentPoly1:
    """One-variable specialization in s (s**2 = t), normalized to 1 on the unknot."""
    return specialize_jones(homfly(obj, budget))


def jones_at(obj, t: complex, budget: SkeinBudget | None = None) -> complex:
    """Evaluate the one-variable invariant at t via s = principal sqrt(t)."""
    if t == 0:
        raise ValueError("t must be nonzero")
    return jones(obj, budget).evaluate(cmath.sqrt(t))


def homfly_coeff(obj, k: int, budget: SkeinBudget | None = None) -> LaurentPoly1:
    """The a-polynomial multiplying z**k in the two-variable invariant."""
    return homfly(obj, budget).coeff_z(k)
