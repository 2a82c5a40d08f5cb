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
from .diagram import PDDiagram, _join_arcs, closure_to_diagram
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


def _over_out_slot(c) -> int:
    return 3 if c.sign > 0 else 1


def _over_in_slot(c) -> int:
    return 1 if c.sign > 0 else 3


def _find_bigon(d: PDDiagram):
    """A cancelling bigon: crossings x != y joined by an arc that is the
    over-strand at both ends and an arc that is the under-strand at both
    ends, so the two strands pull apart exactly.
    """
    tail: dict[int, tuple[int, int]] = {}
    head: dict[int, tuple[int, int]] = {}
    for ci, c in enumerate(d.crossings):
        ins = c.in_slots()
        for slot in range(4):
            arc = c.arcs[slot]
            if slot in ins:
                head[arc] = (ci, slot)
            else:
                tail[arc] = (ci, slot)
    by_pair: dict[frozenset[int], list[int]] = {}
    for arc in tail:
        x, y = tail[arc][0], head[arc][0]
        if x != y:
            by_pair.setdefault(frozenset((x, y)), []).append(arc)
    for arcs in by_pair.values():
        if len(arcs) < 2:
            continue
        over = under = None
        for arc in arcs:
            (ti, ts), (hi, hs) = tail[arc], head[arc]
            if ts == _over_out_slot(d.crossings[ti]) and hs == _over_in_slot(
                d.crossings[hi]
            ):
                over = arc
            elif ts == 2 and hs == 0:
                under = arc
        if over is not None and under is not None:
            return over, under, tail, head
    return None


def _cancel_bigons(d: PDDiagram) -> PDDiagram:
    """Remove reducible opposite-sign crossing pairs until none remain.

    Exactness-preserving (the move does not change the link), and the
    reason plain resolution of torus words stays within the 2^c tree.
    """
    while True:
        found = _find_bigon(d)
        if found is None:
            return d
        over, under, tail, head = found
        cu_tail, cu_head = tail[over][0], head[over][0]
        cv_tail, cv_head = tail[under][0], head[under][0]
        in_a = d.crossings[cu_tail].arcs[_over_in_slot(d.crossings[cu_tail])]
        out_a = d.crossings[cu_head].arcs[_over_out_slot(d.crossings[cu_head])]
        in_b = d.crossings[cv_tail].arcs[0]
        out_b = d.crossings[cv_head].arcs[2]
        dead = {cu_tail, cu_head}
        rest = [c for ci, c in enumerate(d.crossings) if ci not in dead]
        d = _join_arcs(rest, [(in_a, out_a), (in_b, out_b)], d.free_loops)


def _first_violation(d: PDDiagram) -> int | None:
    """Index of the first crossing reached on its under-strand, if any."""
    inflow = d._inflow()
    arcs = sorted(inflow)
    seen_arcs: set[int] = set()
    seen_crossings: set[int] = set()
    for base in arcs:
        if base in seen_arcs:
            continue
        arc = base
        while arc not in seen_arcs:
            seen_arcs.add(arc)
            ci, slot = inflow[arc]
            if ci not in seen_crossings:
                seen_crossings.add(ci)
                if slot == 0:
                    return ci
            c = d.crossings[ci]
            arc = c.arcs[c.exit_slot(slot)]
    return None


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
    if len(d.crossings) > budget.max_crossings:
        raise BudgetExceededError(
            f"diagram has {len(d.crossings)} crossings, budget allows {budget.max_crossings}"
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
    return homfly(closure_to_diagram(b.free_reduce()), budget, memo)


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
