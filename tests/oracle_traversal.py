"""Reference traversals and edits of planar diagrams, built from crossing slots.

Each walk reads the arc -> (crossing, slot) inflow map and the crossing
slot layout, with no pass table: the component count, the Gauss code,
the first-violation search, and a bigon search with its own tail/head
maps that groups arcs by crossing pair and cancels bigons in that
grouping's order. Tests hold PDDiagram._passes and every walk that
reads it against these.

The record-level edits (in_slots, exit_slot, join_arcs, switch_crossing,
smooth_crossing, cancel_bigons) are frozen copies of the crossing-record
code PDDiagram used before its edits were restated on the pass table:
switching rebuilds one record, and smoothing and bigon cancellation glue
arcs through a rename map. Tests hold the pass-table edits against them
record for record.

diagram_from_gauss, relabel and reverse are frozen copies of the
record-level builders: each writes crossing records and reads them back
through the checked constructor. Tests hold the builders that lay
passes directly against them, table for table.
"""

from knotqc.diagram import OVER, UNDER, Crossing, GaussCode, PDDiagram


def in_slots(c: Crossing) -> tuple[int, int]:
    return (0, 1) if c.sign > 0 else (0, 3)


def exit_slot(c: Crossing, in_slot: int) -> int:
    if in_slot == 0:
        return 2
    if c.sign > 0 and in_slot == 1:
        return 3
    if c.sign < 0 and in_slot == 3:
        return 1
    raise ValueError(f"slot {in_slot} is not an entry slot of this crossing")


def _inflow(self) -> dict[int, tuple[int, int]]:
    # Entry arc -> (crossing, slot), read from the crossing slots.
    table = {}
    for ci, c in enumerate(self.crossings):
        for slot in in_slots(c):
            table[c.arcs[slot]] = (ci, slot)
    return table


def join_arcs(crossings, joins, free_loops: int) -> PDDiagram:
    """Glue each (in-arc, out-arc) pair of ``joins`` into one arc.

    Pairs are taken in order, each endpoint read through the renames
    made so far. A pair that is already one arc closes a free loop;
    otherwise the out-arc takes the in-arc's label, so every label stays
    the parent's.
    """
    rename: dict[int, int] = {}
    for u, v in joins:
        u, v = rename.get(u, u), rename.get(v, v)
        if u == v:
            free_loops += 1
            continue
        # An arc already renamed to v follows v to u, so one lookup suffices.
        for old, new in rename.items():
            if new == v:
                rename[old] = u
        rename[v] = u
    kept = tuple(
        c
        if rename.keys().isdisjoint(c.arcs)
        else Crossing(tuple(rename.get(a, a) for a in c.arcs), c.sign)
        for c in crossings
    )
    return PDDiagram(kept, free_loops)


def switch_crossing(d: PDDiagram, index: int) -> PDDiagram:
    """Exchange over and under at one crossing by rebuilding its record."""
    c = d.crossings[index]
    a, b, cc, dd = c.arcs
    new = Crossing((b, cc, dd, a), -1) if c.sign > 0 else Crossing((dd, a, b, cc), +1)
    return PDDiagram(d.crossings[:index] + (new,) + d.crossings[index + 1 :], d.free_loops)


def smooth_crossing(d: PDDiagram, index: int) -> PDDiagram:
    """Remove one crossing by the orientation-respecting reconnection."""
    c = d.crossings[index]
    a, b, cc, dd = c.arcs
    # Each join glues an incoming arc to an outgoing arc into one arc.
    joins = [(a, dd), (b, cc)] if c.sign > 0 else [(a, b), (dd, cc)]
    return join_arcs(d.crossings[:index] + d.crossings[index + 1 :], joins, d.free_loops)


def cancel_bigons(d: PDDiagram) -> PDDiagram:
    """diagram._cancel_bigons's scan, gluing each bigon's strands with
    join_arcs."""
    while True:
        arc, succ = d._passes
        for p in range(1, len(succ), 2):
            x, y = p >> 1, succ[p] >> 1
            if not succ[p] & 1 or x == y:
                continue
            if succ[2 * x] == 2 * y:
                q = 2 * x
            elif succ[2 * y] == 2 * x:
                q = 2 * y
            else:
                continue
            rest = [c for ci, c in enumerate(d.crossings) if ci != x and ci != y]
            joins = [(arc[s], arc[succ[succ[s]]]) for s in (p, q)]
            d = join_arcs(rest, joins, d.free_loops)
            break
        else:
            return d


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
            a = c.arcs[exit_slot(c, slot)]
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
        arc = c.arcs[exit_slot(c, slot)]
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
        ins = in_slots(c)
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
        d = join_arcs(rest, [(in_a, out_a), (in_b, out_b)], d.free_loops)


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
            arc = c.arcs[exit_slot(c, slot)]
    return None


def diagram_from_gauss(code: GaussCode) -> PDDiagram:
    """Arc j+1 runs from pass j to pass j+1 (cyclically), which fixes every
    crossing record once the sign places the over-strand's entry slot."""
    m = len(code.entries)
    if m == 0:
        return PDDiagram((), 1)
    at = {(kind, label): j for j, (kind, label, _) in enumerate(code.entries)}
    crossings = []
    for label in code.labels():
        u, o = at[UNDER, label], at[OVER, label]
        u_in, o_in, u_out, o_out = (u - 1) % m + 1, (o - 1) % m + 1, u + 1, o + 1
        sign = code.entries[o][2]
        arcs = (u_in, o_in, u_out, o_out) if sign > 0 else (u_in, o_out, u_out, o_in)
        crossings.append(Crossing(arcs, sign))
    return PDDiagram(tuple(crossings), 0)


def relabel(d: PDDiagram, mapping: dict[int, int]) -> PDDiagram:
    crossings = (Crossing(tuple(mapping[a] for a in c.arcs), c.sign) for c in d.crossings)
    return PDDiagram(tuple(crossings), d.free_loops)


def reverse(d: PDDiagram) -> PDDiagram:
    """Orientation reversal keeps the plane orientation and each sign; the
    outgoing under-arc becomes the incoming one."""
    return PDDiagram(
        tuple(Crossing(c.arcs[2:] + c.arcs[:2], c.sign) for c in d.crossings), d.free_loops
    )
