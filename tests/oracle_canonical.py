"""Reference canonical keys: a string encoder independent of PDDiagram's,
and a frozen copy of the integer-code key that builds one diagram per
piece.

The string encoder: each connected piece is re-encoded by a traversal that numbers crossings
and arcs in visit order and writes every crossing as its four arc numbers
and sign; the key is the least such string over every starting pass and
both orientations, pieces sorted. It induces the same equivalence as
PDDiagram.canonical_key (relabeling plus reversal of each split piece)
by a different encoding, so tests compare the partitions the two induce.

The frozen copy (frozen_key, pieces, _least_code, _traverse) is the
integer-code key as it stood when pieces were split into diagrams of
their own; PDDiagram.canonical_key must equal it string for string.
pieces() is also how tests split a diagram into its connected pieces.
"""

from knotqc.diagram import Crossing, PDDiagram

from oracle_traversal import _inflow, exit_slot, in_slots


def oracle_key(d: PDDiagram) -> str:
    keys = []
    for piece in pieces(d):
        best = None
        for variant in (piece, piece.reversed()):
            inflow = _inflow(variant)
            for ci in range(len(variant.crossings)):
                for slot in in_slots(variant.crossings[ci]):
                    code = _encode_traversal(variant, inflow, (ci, slot))
                    if best is None or code < best:
                        best = code
        keys.append(best or "")
    return f"L{d.free_loops}|" + "||".join(sorted(keys))


def _encode_traversal(d: PDDiagram, inflow, start: tuple[int, int]) -> str:
    """Deterministic re-encoding of a connected diagram from one starting pass."""
    crossing_number: dict[int, int] = {}
    arc_number: dict[int, int] = {}
    visited: set[tuple[int, int]] = set()
    total = 2 * len(d.crossings)
    pos = start
    while len(visited) < total:
        if pos in visited or pos is None:
            pos = _next_start(d, crossing_number, visited)
        ci, slot = pos
        visited.add(pos)
        if ci not in crossing_number:
            crossing_number[ci] = len(crossing_number)
        arc_in = d.crossings[ci].arcs[slot]
        if arc_in not in arc_number:
            arc_number[arc_in] = len(arc_number)
        arc_out = d.crossings[ci].arcs[exit_slot(d.crossings[ci], slot)]
        pos = inflow[arc_out]
    order = sorted(crossing_number, key=crossing_number.get)
    parts = []
    for ci in order:
        c = d.crossings[ci]
        parts.append(
            ",".join(str(arc_number[a]) for a in c.arcs) + f":{'+' if c.sign > 0 else '-'}"
        )
    return ";".join(parts)


def _next_start(d: PDDiagram, crossing_number, visited):
    # Earliest-numbered crossing with an unvisited entry pass; in a
    # connected piece one always exists until the traversal is complete.
    for ci in sorted(crossing_number, key=crossing_number.get):
        for slot in in_slots(d.crossings[ci]):
            if (ci, slot) not in visited:
                return (ci, slot)
    raise AssertionError("disconnected piece handed to traversal encoder")


def frozen_key(self: PDDiagram) -> str:
    codes = sorted(",".join(map(str, _least_code(p))) for p in pieces(self))
    return f"L{self.free_loops}|" + "||".join(codes)


def pieces(self: PDDiagram) -> list[PDDiagram]:
    """Split into connected pieces (free loops stay on the parent); a
    connected diagram without free loops is its own one piece."""
    n = len(self.crossings)
    if n == 0:
        return []
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in enumerate(self._passes[1]):
        parent[find(p >> 1)] = find(q >> 1)
    groups: dict[int, list[Crossing]] = {}
    for ci, c in enumerate(self.crossings):
        groups.setdefault(find(ci), []).append(c)
    if len(groups) == 1 and not self.free_loops:
        return [self]
    return [PDDiagram(tuple(cs), 0) for cs in groups.values()]


def _least_code(d: PDDiagram) -> list[int]:
    """The least traversal code of a connected diagram (see canonical_key)."""
    n = len(d.crossings)
    # low[p] is the part of pass p's symbol that does not depend on
    # numbering. Reversal keeps each pass's strand and sign and walks the
    # passes backwards.
    succ = d._passes[1]
    low = [2 * (p & 1) + (d.crossings[p >> 1].sign > 0) for p in range(2 * n)]
    pred = [0] * (2 * n)
    for p, q in enumerate(succ):
        pred[q] = p
    # Under-passes of the negative crossings, or of all when none is
    # negative, are a start set that relabeling and reversal preserve.
    starts = [2 * ci for ci, c in enumerate(d.crossings) if c.sign < 0] or range(0, 2 * n, 2)
    best: list[int] = []
    for step in (succ, pred):
        for start in starts:
            code = _traverse(step, low, start, best)
            if code is not None:
                best = code
    return best


def _traverse(
    step: list[int], low: list[int], start: int, best: list[int]
) -> list[int] | None:
    """The code from one starting pass, or None once it exceeds ``best``."""
    total = len(step)
    number = [-1] * (total // 2)
    order: list[int] = []
    seen = bytearray(total)
    code: list[int] = []
    tied = bool(best)
    scan = 0
    p = start
    for _ in range(total):
        if seen[p]:
            # Restart at the earliest-numbered crossing with an unvisited
            # pass; in a connected piece one exists until the end.
            while seen[2 * order[scan]] and seen[2 * order[scan] + 1]:
                scan += 1
            p = 2 * order[scan] + seen[2 * order[scan]]
            if tied:
                # -1 sits below every pass symbol.
                tied = best[len(code)] == -1
            code.append(-1)
        seen[p] = 1
        ci = p >> 1
        if number[ci] < 0:
            number[ci] = len(order)
            order.append(ci)
        symbol = 4 * number[ci] + low[p]
        if tied:
            b = best[len(code)]
            if symbol > b:
                return None
            tied = symbol == b
        code.append(symbol)
        p = step[p]
    return None if tied else code
