"""Reference canonical key, a string encoder independent of PDDiagram's.

Each connected piece is re-encoded by a traversal that numbers crossings
and arcs in visit order and writes every crossing as its four arc numbers
and sign; the key is the least such string over every starting pass and
both orientations, pieces sorted. It induces the same equivalence as
PDDiagram.canonical_key (relabeling plus reversal of each split piece)
by a different encoding, so tests compare the partitions the two induce.
"""

from knotqc.diagram import PDDiagram


def oracle_key(d: PDDiagram) -> str:
    pieces = d._pieces()
    keys = []
    for piece in pieces:
        best = None
        for variant in (piece, piece.reversed()):
            inflow = _inflow(variant)
            for ci in range(len(variant.crossings)):
                for slot in variant.crossings[ci].in_slots():
                    code = _encode_traversal(variant, inflow, (ci, slot))
                    if best is None or code < best:
                        best = code
        keys.append(best or "")
    return f"L{d.free_loops}|" + "||".join(sorted(keys))


def _inflow(self) -> dict[int, tuple[int, int]]:
    # Entry arc -> (crossing, slot), read from the crossing slots.
    table = {}
    for ci, c in enumerate(self.crossings):
        for slot in c.in_slots():
            table[c.arcs[slot]] = (ci, slot)
    return table


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
        arc_out = d.crossings[ci].arcs[d.crossings[ci].exit_slot(slot)]
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
        for slot in d.crossings[ci].in_slots():
            if (ci, slot) not in visited:
                return (ci, slot)
    raise AssertionError("disconnected piece handed to traversal encoder")
