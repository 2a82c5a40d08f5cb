"""Independent brute-force oracle for the golden invariant values, and
the frame-machine evaluator the skein engine's post-order loop replaced.

Works entirely on 2-strand torus words sigma_1^k by naive recursion on
the defining relation (no diagrams, no memoization, none of the engine's
machinery): switching a crossing of the closure of sigma_1^k gives the
closure of sigma_1^(k-2), smoothing gives sigma_1^(k-1). Grounding:
P = 1 for k = +-1 (those closures are unknots) and the k = 0 value,
the split 2-unlink, follows from the relation applied at a kink:
a*P(sigma_1) - a^-1*P(sigma_1^-1) = z*P(identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from knotqc.diagram import PDDiagram, _cancel_bigons, _first_violation
from knotqc.errors import BudgetExceededError
from knotqc.laurent import LaurentPoly2
from knotqc.skein import SkeinBudget, SkeinStats


def _mono(coeff, a_exp, z_exp):
    return LaurentPoly2.monomial(coeff, a_exp, z_exp)


def torus_closure_value(k: int) -> LaurentPoly2:
    """Invariant of the closure of sigma_1^k in the 2-strand group."""
    if k in (1, -1):
        return LaurentPoly2.one()
    if k == 0:
        # (a - a^-1) z^-1, read off the kink instance of the relation.
        return _mono(1, 1, -1) + _mono(-1, -1, -1)
    if k >= 2:
        # a P(k) - a^-1 P(k-2) = z P(k-1)
        return _mono(1, -2, 0) * torus_closure_value(k - 2) + _mono(
            1, -1, 1
        ) * torus_closure_value(k - 1)
    # k <= -2: the crossing is negative; solve for P(k) instead.
    return _mono(1, 2, 0) * torus_closure_value(k + 2) + _mono(
        -1, 1, 1
    ) * torus_closure_value(k + 1)


UNKNOT = torus_closure_value(1)
UNLINK2 = torus_closure_value(0)
HOPF_POSITIVE = torus_closure_value(2)
TREFOIL = torus_closure_value(3)


# The skein engine's evaluator as it stood before the post-order loop:
# one frame per node, stage 0 resolves the diagram and stage 1 combines
# the children's values. Kept verbatim as the reference for node order,
# memo reads and writes, and the node and memo-hit counts, except that
# the step that simplifies each node's diagram is an argument: the
# engine's diagram._reduce, or _cancel_bigons for the bigon-only
# recursion the engine ran before kinks were removed too.
DELTA = _mono(1, 1, -1) + _mono(-1, -1, -1)
_A_SQ_INV = _mono(1, -2, 0)
_A_INV_Z = _mono(1, -1, 1)
_A_SQ = _mono(1, 2, 0)
_A_Z = _mono(1, 1, 1)


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
    reduce: Callable[[PDDiagram], PDDiagram],
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
            f.diagram = reduce(f.diagram)
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
