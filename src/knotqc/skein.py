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
((a - a^-1) z^-1)^(m-1). Cancelling bigons (an opposite pair the two
strands pull straight through) are removed exactly before resolving,
which keeps plain recursion trees within the 2^c bound; subresults are
memoized under the diagram's relabeling-invariant canonical key, which
further turns those trees into shared DAGs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .braid import BraidWord
from .diagram import PDDiagram, _cancel_bigons, _first_violation, closure_to_diagram
from .errors import BudgetExceededError
from .laurent import LaurentPoly1, LaurentPoly2, specialize_jones

# Value of a split 2-component unlink: (a - a^-1) z^-1.
DELTA = LaurentPoly2({(1, -1): 1, (-1, -1): -1})

_A_SQ_INV = LaurentPoly2.monomial(1, -2, 0)
_A_INV_Z = LaurentPoly2.monomial(1, -1, 1)
_A_SQ = LaurentPoly2.monomial(1, 2, 0)
_A_Z = LaurentPoly2.monomial(1, 1, 1)


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


@dataclass
class _Frame:
    diagram: PDDiagram
    stage: int = 0
    key: str | None = None
    sign: int = 0
    switch_child: "_Frame | None" = None
    smooth_child: "_Frame | None" = None
    value: LaurentPoly2 | None = None


def _unlink_value(components: int) -> LaurentPoly2:
    return DELTA ** (components - 1)


def _evaluate(
    root: PDDiagram,
    budget: SkeinBudget,
    memo: dict[str, LaurentPoly2] | None,
    stats: SkeinStats,
) -> LaurentPoly2:
    top = _Frame(root)
    stack = [top]
    while stack:
        f = stack.pop()
        if f.stage == 0:
            stats.nodes += 1
            if stats.nodes > budget.max_nodes:
                raise BudgetExceededError(
                    f"skein recursion exceeded {budget.max_nodes} nodes"
                )
            f.diagram = _cancel_bigons(f.diagram)
            if memo is not None:
                f.key = f.diagram.canonical_key()
                cached = memo.get(f.key)
                if cached is not None:
                    stats.memo_hits += 1
                    f.value = cached
                    continue
            viol = _first_violation(f.diagram)
            if viol is None:
                f.value = _unlink_value(f.diagram.components())
                if memo is not None:
                    memo[f.key] = f.value
                continue
            f.sign = f.diagram.crossings[viol].sign
            f.switch_child = _Frame(f.diagram.switch_crossing(viol))
            f.smooth_child = _Frame(f.diagram.smooth_crossing(viol))
            f.stage = 1
            stack.append(f)
            stack.append(f.switch_child)
            stack.append(f.smooth_child)
        else:
            switched = f.switch_child.value
            smoothed = f.smooth_child.value
            if f.sign > 0:
                # a P(K+) = a^-1 P(K-) + z P(K0), this diagram is K+.
                f.value = _A_SQ_INV * switched + _A_INV_Z * smoothed
            else:
                # this diagram is K-.
                f.value = _A_SQ * switched - _A_Z * smoothed
            if memo is not None:
                memo[f.key] = f.value
    return top.value


def homfly_with_stats(
    d: PDDiagram,
    budget: SkeinBudget | None = None,
    memo: dict[str, LaurentPoly2] | None = None,
) -> tuple[LaurentPoly2, SkeinStats]:
    """Like homfly, but also reports node and memo-hit counts."""
    budget = budget or SkeinBudget()
    # Free loops count too: each one multiplies a leaf value by DELTA.
    if len(d.crossings) + d.free_loops > budget.max_crossings:
        raise BudgetExceededError(
            f"diagram has {len(d.crossings)} crossings and {d.free_loops} free loops, "
            f"budget allows {budget.max_crossings} in all"
        )
    if memo is None and budget.memo_enabled:
        memo = {}
    if not budget.memo_enabled:
        memo = None
    stats = SkeinStats()
    value = _evaluate(d, budget, memo, stats)
    return value, stats


def homfly(
    d: PDDiagram,
    budget: SkeinBudget | None = None,
    memo: dict[str, LaurentPoly2] | None = None,
) -> LaurentPoly2:
    """Exact two-variable invariant of the link the diagram presents."""
    return homfly_with_stats(d, budget, memo)[0]


def homfly_braid(
    b: BraidWord,
    budget: SkeinBudget | None = None,
    memo: dict[str, LaurentPoly2] | None = None,
) -> LaurentPoly2:
    return homfly(_as_diagram(b), budget, memo)


def _as_diagram(obj) -> PDDiagram:
    if isinstance(obj, BraidWord):
        return closure_to_diagram(obj.free_reduce())
    if isinstance(obj, PDDiagram):
        return obj
    raise TypeError(f"expected a braid word or diagram, got {type(obj).__name__}")


def jones(obj, budget: SkeinBudget | None = None) -> LaurentPoly1:
    """One-variable specialization in s (s**2 = t), normalized to 1 on the unknot."""
    return specialize_jones(homfly(_as_diagram(obj), budget))


def jones_at(obj, t: complex, budget: SkeinBudget | None = None) -> complex:
    """Evaluate the one-variable invariant at t via s = principal sqrt(t)."""
    if t == 0:
        raise ValueError("t must be nonzero")
    return jones(obj, budget).evaluate(cmath.sqrt(t))


def homfly_coeff(obj, k: int, budget: SkeinBudget | None = None) -> LaurentPoly1:
    """The a-polynomial multiplying z**k in the two-variable invariant."""
    return homfly(_as_diagram(obj), budget).coeff_z(k)
