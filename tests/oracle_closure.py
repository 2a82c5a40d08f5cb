"""Reference braid closure with a rename pass.

Crossings are recorded on fresh arcs while the letters are read, and the
top arc of each strand is renamed to its bottom arc afterwards. Tests
hold diagram.closure_to_diagram, which builds each crossing on its final
arcs, against it: the arc labels pick the skein engine's base points, so
they must agree exactly, not only up to relabeling.
"""

from knotqc.braid import BraidWord
from knotqc.diagram import Crossing


def closure(b: BraidWord) -> tuple[tuple[Crossing, ...], int]:
    """(crossings, free loops) of the closure of b."""
    n = b.strands
    cur = list(range(1, n + 1))
    records: list[tuple[int, int, int, int, int]] = []
    next_arc = n + 1
    for e in b.letters:
        i = abs(e)
        left, right = cur[i - 1], cur[i]
        out_left, out_right = next_arc, next_arc + 1
        next_arc += 2
        if e > 0:
            records.append((right, left, out_left, out_right, +1))
        else:
            records.append((left, out_left, out_right, right, -1))
        cur[i - 1], cur[i] = out_left, out_right
    loops = 0
    rename: dict[int, int] = {}
    for p in range(n):
        top, bottom = p + 1, cur[p]
        if top == bottom:
            loops += 1
        else:
            rename[top] = bottom
    crossings = tuple(
        Crossing(tuple(rename.get(a, a) for a in (a0, a1, a2, a3)), s)
        for (a0, a1, a2, a3, s) in records
    )
    return crossings, loops
