"""HOMFLY of a braid closure in the Hecke algebra, by the Ocneanu trace.

Letter +-i maps to g_i^+-1 in the Hecke algebra H_n, where g_i - g_i^-1 = z,
so g_i^2 = z g_i + 1 (Jones, Ann. Math. 1987; Morton and Short 1990). H_n
has one basis element T_w per permutation w of the strands, the product of
the g_i along a reduced word of w, and T_w g_i is T_ws_i when w(i) <
w(i+1), else z T_w + T_ws_i. An element is a dict {(w, i, j): c}, the
integer c times a^i z^j T_w, with w a tuple of 0..n-1 in one-line notation.

The trace F is linear, memoized per permutation, and has two rules: x in
H_(n-1) has F(x) in H_n = DELTA F(x) in H_(n-1) (one more, split, circle),
and F(x g_(n-1) y) = a F(x y) for x, y in H_(n-1) (the Markov move). When
w puts n at position p, T_w = T_w' g_(n-1) ... g_p, where w' is w with n
moved last, so F(T_w) = a F(T_w' g_(n-2) ... g_p). P = a^-writhe F(word)
then meets the skein's relation a P(K+) - a^-1 P(K-) = z P(K0), with
P(unknot) = 1.
"""

from __future__ import annotations

from .braid import BraidWord
from .errors import BudgetExceededError
from .laurent import LaurentPoly2
from .skein import DELTA, SkeinBudget


def homfly(
    word: BraidWord,
    budget: SkeinBudget | None = None,
    trace: dict | None = None,
) -> LaurentPoly2:
    """The skein's invariant of the closure of a braid. `trace` maps
    permutations to their F, {(i, j): c} for a^i z^j, and may be shared
    between calls; the terms each call writes count against
    budget.max_nodes."""
    limit = (budget or SkeinBudget()).max_nodes
    trace = {} if trace is None else trace
    written = 0

    def times(element, letters):
        """The element times g_|e|^sign(e) for each letter e in turn."""
        nonlocal written
        for e in letters:
            i = abs(e) - 1
            out: dict = {}
            for (w, ea, ez), c in element.items():
                key = (w[:i] + (w[i + 1], w[i]) + w[i + 2:], ea, ez)
                out[key] = out.get(key, 0) + c
                if (w[i] > w[i + 1]) == (e > 0):  # g_i adds z T_w, g_i^-1 takes it
                    key = (w, ea, ez + 1)
                    out[key] = out.get(key, 0) + (c if e > 0 else -c)
            element = {k: c for k, c in out.items() if c}
            written += len(element)
            if written > limit:
                raise BudgetExceededError(f"Hecke product exceeded {limit} terms")
        return element

    def value(element) -> dict:
        """F of an element, as {(i, j): c} for a^i z^j."""
        out: dict = {}
        for (w, ea, ez), c in element.items():
            f = trace.get(w)
            if f is None:
                f = trace[w] = basis_value(w)
            for (fa, fz), fc in f.items():
                key = (ea + fa, ez + fz)
                out[key] = out.get(key, 0) + c * fc
        return {k: c for k, c in out.items() if c}

    def basis_value(w) -> dict:
        """F(T_w); w puts label n - 1 at index p, so in 1-based terms
        T_w = T_v g_(n-1) ... g_(p+1) with v in H_(n-1)."""
        n = len(w)
        if n == 1:
            return {(0, 0): 1}
        p = w.index(n - 1)
        v = w[:p] + w[p + 1:]
        if p == n - 1:
            return value({(v, i, j): c for (i, j), c in DELTA.terms.items()})
        return value(times({(v, 1, 0): 1}, range(n - 2, p, -1)))

    start = {(tuple(range(word.strands)), -word.writhe(), 0): 1}
    return LaurentPoly2(value(times(start, word.letters)))
