"""Reference traversals of planar diagrams, built from crossing slots.

Each walk reads the arc -> (crossing, slot) inflow map and the crossing
slot layout, with no pass table: the component count, the Gauss code,
the first-violation search, and a bigon search with its own tail/head
maps that groups arcs by crossing pair and cancels bigons in that
grouping's order. Tests hold PDDiagram._passes() and every walk that
reads it against these.
"""

from knotqc.diagram import OVER, UNDER, GaussCode, PDDiagram, _join_arcs

from oracle_canonical import _inflow


def components(self) -> int:
    """Closed strand cycles, free loops included."""
    inflow = _inflow(self)
    seen: set[int] = set()
    count = self.free_loops
    for arc in self.arcs():
        if arc in seen:
            continue
        count += 1
        a = arc
        while a not in seen:
            seen.add(a)
            ci, slot = inflow[a]
            c = self.crossings[ci]
            a = c.arcs[c.exit_slot(slot)]
    return count


def gauss_from_diagram(d: PDDiagram) -> GaussCode:
    """Traverse a one-component diagram, recording each pass."""
    if not d.crossings:
        if d.free_loops == 1:
            return GaussCode(())
        raise ValueError("Gauss codes require a single-component diagram")
    if d.free_loops or components(d) != 1:
        raise ValueError("Gauss codes require a single-component diagram")
    inflow = _inflow(d)
    start_arc = min(inflow)
    labels: dict[int, int] = {}
    entries = []
    arc = start_arc
    while True:
        ci, slot = inflow[arc]
        c = d.crossings[ci]
        if ci not in labels:
            labels[ci] = len(labels) + 1
        entries.append((UNDER if slot == 0 else OVER, labels[ci], c.sign))
        arc = c.arcs[c.exit_slot(slot)]
        if arc == start_arc:
            break
    return GaussCode(tuple(entries))


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
    inflow = _inflow(d)
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
