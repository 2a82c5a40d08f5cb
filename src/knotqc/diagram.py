"""Planar diagrams, Gauss codes, and intersection-sequence realizability.

A crossing stores its four incident arcs counterclockwise starting at
the incoming under-strand, plus a sign. Signs follow the braid picture
(braid running downward): in a positive crossing the over-strand runs
slot 1 -> slot 3, in a negative crossing slot 3 -> slot 1. Split
unknotted circles (no crossings) are tracked by a free-loop count so
smoothing can disconnect diagrams.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .braid import BraidWord
from .errors import BudgetExceededError, ParseError

OVER = "O"
UNDER = "U"

_UNSIGNED_GUARD = 16


@dataclass(frozen=True)
class Crossing:
    arcs: tuple[int, int, int, int]
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"crossing sign must be +-1, got {self.sign}")

    def in_slots(self) -> tuple[int, int]:
        return (0, 1) if self.sign > 0 else (0, 3)

    def exit_slot(self, in_slot: int) -> int:
        if in_slot == 0:
            return 2
        if self.sign > 0 and in_slot == 1:
            return 3
        if self.sign < 0 and in_slot == 3:
            return 1
        raise ValueError(f"slot {in_slot} is not an entry slot of this crossing")

    def reversed(self) -> "Crossing":
        # Orientation reversal keeps the plane orientation and the sign;
        # the outgoing under-arc becomes the incoming one.
        a, b, c, d = self.arcs
        return Crossing((c, d, a, b), self.sign)


@dataclass(frozen=True)
class PDDiagram:
    crossings: tuple[Crossing, ...] = ()
    free_loops: int = 0

    def __post_init__(self):
        if self.free_loops < 0:
            raise ValueError("free loop count cannot be negative")
        inflow: dict[int, tuple[int, int]] = {}
        outflow: dict[int, tuple[int, int]] = {}
        for ci, c in enumerate(self.crossings):
            for slot in range(4):
                arc = c.arcs[slot]
                table = inflow if slot in c.in_slots() else outflow
                if arc in table:
                    raise ValueError(f"arc {arc} flows the same way twice")
                table[arc] = (ci, slot)
        if set(inflow) != set(outflow):
            raise ValueError("every arc needs exactly one inflow and one outflow slot")

    @classmethod
    def _derived(cls, crossings: tuple[Crossing, ...], free_loops: int) -> "PDDiagram":
        """A diagram the engine derives from a valid one, built unchecked.

        Switching, smoothing, splitting and bigon cancellation keep every
        arc's one inflow and one outflow, and braid closure produces them
        by construction, so only input from outside goes through
        __post_init__.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "crossings", crossings)
        object.__setattr__(d, "free_loops", free_loops)
        return d

    def _passes(self) -> tuple[list[int], list[int]]:
        """The pass table: the one traversal every walk of the diagram reads.

        Pass 2*ci enters crossing ci on the under-strand, pass 2*ci + 1 on
        the over-strand. arc[p] is the arc pass p enters on and succ[p]
        the next pass along its strand.
        """
        arc: list[int] = []
        out: list[int] = []
        for c in self.crossings:
            a, b, cc, d = c.arcs
            if c.sign > 0:
                arc += (a, b)
                out += (cc, d)
            else:
                arc += (a, d)
                out += (cc, b)
        enter = {a: p for p, a in enumerate(arc)}
        return arc, [enter[a] for a in out]

    def arcs(self) -> list[int]:
        return sorted({a for c in self.crossings for a in c.arcs})

    def components(self) -> int:
        """Closed strand cycles, free loops included."""
        succ = self._passes()[1]
        seen = bytearray(len(succ))
        count = self.free_loops
        for p in range(len(succ)):
            count += not seen[p]
            while not seen[p]:
                seen[p] = 1
                p = succ[p]
        return count

    def switch_crossing(self, index: int) -> "PDDiagram":
        """Exchange over and under at one crossing; everything else unchanged."""
        c = self._get(index)
        a, b, cc, d = c.arcs
        if c.sign > 0:
            new = Crossing((b, cc, d, a), -1)
        else:
            new = Crossing((d, a, b, cc), +1)
        crossings = self.crossings[:index] + (new,) + self.crossings[index + 1 :]
        return PDDiagram._derived(crossings, self.free_loops)

    def smooth_crossing(self, index: int) -> "PDDiagram":
        """Remove one crossing by the orientation-respecting reconnection."""
        c = self._get(index)
        a, b, cc, d = c.arcs
        # Each join glues an incoming arc to an outgoing arc into one arc.
        if c.sign > 0:
            joins = [(a, d), (b, cc)]
        else:
            joins = [(a, b), (d, cc)]
        rest = self.crossings[:index] + self.crossings[index + 1 :]
        return _join_arcs(rest, joins, self.free_loops)

    def relabel(self, mapping: dict[int, int]) -> "PDDiagram":
        return PDDiagram(
            tuple(
                Crossing(tuple(mapping[a] for a in c.arcs), c.sign)
                for c in self.crossings
            ),
            self.free_loops,
        )

    def reversed(self) -> "PDDiagram":
        return PDDiagram(tuple(c.reversed() for c in self.crossings), self.free_loops)

    def canonical_key(self) -> str:
        """Relabeling-invariant code, used to memoize skein recursion.

        Each connected piece is traversed from a starting pass, numbering
        crossings in the order they are first met. Every pass emits one
        int, 4*crossing_number + 2*(entered on the over-strand) +
        (sign > 0); when the traversal has closed a component it emits -1
        and restarts at the earliest-numbered crossing with an unvisited
        pass. The sequence is a signed multi-component Gauss code, so it
        determines the piece up to relabeling. The piece's code is the
        least sequence over every starting pass and both orientations
        (reversal preserves the two-variable invariant); a candidate is
        dropped at its first symbol above the best so far. Piece codes
        are sorted and joined after the free-loop count. Equal keys hold
        exactly for diagrams equal up to relabeling and reversal of
        split pieces.
        """
        codes = sorted(",".join(map(str, _least_code(p))) for p in self._pieces())
        return f"L{self.free_loops}|" + "||".join(codes)

    def _pieces(self) -> list["PDDiagram"]:
        """Split into connected pieces (free loops stay on the parent)."""
        n = len(self.crossings)
        if n == 0:
            return []
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p, q in enumerate(self._passes()[1]):
            parent[find(p >> 1)] = find(q >> 1)
        groups: dict[int, list[Crossing]] = {}
        for ci, c in enumerate(self.crossings):
            groups.setdefault(find(ci), []).append(c)
        return [PDDiagram._derived(tuple(cs), 0) for cs in groups.values()]

    def _get(self, index: int) -> Crossing:
        if not 0 <= index < len(self.crossings):
            raise ValueError(f"no crossing with index {index}")
        return self.crossings[index]

    def to_text(self) -> str:
        lines = [
            f"X {c.arcs[0]} {c.arcs[1]} {c.arcs[2]} {c.arcs[3]} {c.sign:+d}"
            for c in self.crossings
        ]
        lines.extend("loop" for _ in range(self.free_loops))
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> "PDDiagram":
        crossings = []
        loops = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line == "loop":
                loops += 1
                continue
            parts = line.split()
            if parts[0] != "X" or len(parts) != 6:
                raise ParseError(f"bad diagram line {line!r}")
            try:
                a, b, c, d, s = (int(p) for p in parts[1:])
            except ValueError:
                raise ParseError(f"bad diagram line {line!r}") from None
            crossings.append(Crossing((a, b, c, d), s))
        try:
            return cls(tuple(crossings), loops)
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def _join_arcs(crossings, joins, free_loops: int) -> PDDiagram:
    """Glue each (in-arc, out-arc) pair of ``joins`` into one arc.

    Pairs are taken in order, each endpoint read through the renames
    made so far. A pair that is already one arc closes a free loop;
    otherwise the out-arc takes the in-arc's label, so every label stays
    the parent's. The kept crossings are rebuilt once.
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
        Crossing(tuple(rename.get(a, a) for a in c.arcs), c.sign) for c in crossings
    )
    return PDDiagram._derived(kept, free_loops)


def _cancel_bigons(d: PDDiagram) -> PDDiagram:
    """Remove cancelling bigons until none remain.

    A bigon is a pair of crossings x != y joined by one arc that is the
    over-strand at both ends and one that is the under-strand at both
    ends, so the two strands pull apart exactly (the link is unchanged).
    Over passes are scanned in crossing order, and both strands of the
    first bigon found are glued past the pair.
    """
    while True:
        arc, succ = d._passes()
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
            d = _join_arcs(rest, joins, d.free_loops)
            break
        else:
            return d


def _first_violation(d: PDDiagram) -> int | None:
    """Index of the first crossing reached on its under-strand, if any.

    Each component is walked from its least arc, components in order of
    that arc.
    """
    arc, succ = d._passes()
    seen = bytearray(len(succ))
    for p in sorted(range(len(arc)), key=arc.__getitem__):
        while not seen[p]:
            if not p & 1 and not seen[p + 1]:
                return p >> 1
            seen[p] = 1
            p = succ[p]
    return None


def _least_code(d: PDDiagram) -> list[int]:
    """The least traversal code of a connected diagram (see canonical_key)."""
    n = len(d.crossings)
    # low[p] is the part of pass p's symbol that does not depend on
    # numbering. Reversal keeps each pass's strand and sign and walks the
    # passes backwards.
    succ = d._passes()[1]
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


def closure_to_diagram(b: BraidWord) -> PDDiagram:
    """Close a braid: one crossing per letter, strand ends glued around."""
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
    return PDDiagram._derived(crossings, loops)


@dataclass(frozen=True)
class GaussCode:
    """Signed intersection sequence: (pass, label, sign) triples."""

    entries: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self):
        seen: dict[int, list[tuple[str, int]]] = {}
        for kind, label, sign in self.entries:
            if kind not in (OVER, UNDER):
                raise ValueError(f"pass must be O or U, got {kind!r}")
            if sign not in (-1, 1):
                raise ValueError(f"sign must be +-1, got {sign}")
            seen.setdefault(label, []).append((kind, sign))
        for label, passes in seen.items():
            if len(passes) != 2:
                raise ValueError(f"label {label} must occur exactly twice")
            kinds = {k for k, _ in passes}
            if kinds != {OVER, UNDER}:
                raise ValueError(f"label {label} must cross once over and once under")
            if passes[0][1] != passes[1][1]:
                raise ValueError(f"label {label} has conflicting signs")

    def labels(self) -> list[int]:
        return sorted({label for _, label, _ in self.entries})

    def to_text(self) -> str:
        return "".join(
            f"{kind}{label}{'+' if sign > 0 else '-'}"
            for kind, label, sign in self.entries
        )

    def __repr__(self) -> str:
        return f"GaussCode({self.to_text()})"


_GAUSS_TOKEN = re.compile(r"\s*([OUou])\s*(\d+)\s*([+-])")
_GAUSS_TOKEN_UNSIGNED = re.compile(r"\s*([OUou])\s*(\d+)")


def parse_gauss(text: str) -> GaussCode:
    """Parse tokens like "O1+U2-"; validation errors become ParseError."""
    entries = []
    pos = 0
    while pos < len(text):
        m = _GAUSS_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad Gauss code near {text[pos:pos+12]!r}")
            break
        kind, label, sign = m.group(1).upper(), int(m.group(2)), 1 if m.group(3) == "+" else -1
        entries.append((kind, label, sign))
        pos = m.end()
    try:
        return GaussCode(tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_unsigned_gauss(text: str) -> list[tuple[str, int]]:
    """Parse a sign-free sequence like "O1 U2 O3"."""
    out = []
    pos = 0
    while pos < len(text):
        m = _GAUSS_TOKEN_UNSIGNED.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad unsigned code near {text[pos:pos+12]!r}")
            break
        out.append((m.group(1).upper(), int(m.group(2))))
        pos = m.end()
    seen: dict[int, set[str]] = {}
    for kind, label in out:
        seen.setdefault(label, set())
        if kind in seen[label]:
            raise ParseError(f"label {label} crosses {kind} twice")
        seen[label].add(kind)
    for label, kinds in seen.items():
        if len(kinds) != 2:
            raise ParseError(f"label {label} must occur once over and once under")
    return out


def euler_characteristic(code: GaussCode) -> tuple[int, int, int, int]:
    """(vertices, edges, faces, chi) of the carrier surface of a signed code.

    The code's 4-valent graph is embedded on the closed surface spanned
    by its sign-determined rotation system; faces are orbits of the
    rotation composed with the edge-end involution.
    """
    m = len(code.entries)
    c = m // 2
    if m == 0:
        return (0, 0, 2, 2)
    pass_index: dict[tuple[str, int], int] = {}
    for idx, (kind, label, _) in enumerate(code.entries):
        pass_index[(kind, label)] = idx
    # Dart (j, 0) = tail of edge j at pass j; dart (j, 1) = head at pass j+1.
    rotation: dict[tuple[int, int], tuple[int, int]] = {}
    for label in code.labels():
        o = pass_index[(OVER, label)]
        u = pass_index[(UNDER, label)]
        sign = code.entries[o][2]
        u_in, u_out = ((u - 1) % m, 1), (u, 0)
        o_in, o_out = ((o - 1) % m, 1), (o, 0)
        if sign > 0:
            cycle = [u_in, o_in, u_out, o_out]
        else:
            cycle = [u_in, o_out, u_out, o_in]
        for k, dart in enumerate(cycle):
            rotation[dart] = cycle[(k + 1) % 4]
    faces = 0
    seen: set[tuple[int, int]] = set()
    for dart in rotation:
        if dart in seen:
            continue
        faces += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            j, end = cur
            cur = rotation[(j, 1 - end)]
    return (c, m, faces, c - m + faces)


def realizable(code: GaussCode) -> bool:
    """True iff the code comes from an actual planar knot diagram (chi = 2)."""
    return euler_characteristic(code)[3] == 2


def realizable_unsigned(sequence: list[tuple[str, int]]) -> bool:
    """True iff some sign assignment makes the sequence realizable.

    Brute force over all sign patterns, guarded to 16 crossings.
    """
    labels = sorted({label for _, label in sequence})
    if len(labels) > _UNSIGNED_GUARD:
        raise BudgetExceededError(
            f"unsigned realizability is brute force; limit is {_UNSIGNED_GUARD} crossings"
        )
    if not sequence:
        return True
    for mask in range(1 << len(labels)):
        signs = {
            label: 1 if mask & (1 << k) else -1 for k, label in enumerate(labels)
        }
        code = GaussCode(
            tuple((kind, label, signs[label]) for kind, label in sequence)
        )
        if realizable(code):
            return True
    return False


def gauss_from_diagram(d: PDDiagram) -> GaussCode:
    """Traverse a one-component diagram, recording each pass."""
    if not d.crossings:
        if d.free_loops == 1:
            return GaussCode(())
        raise ValueError("Gauss codes require a single-component diagram")
    if d.free_loops or d.components() != 1:
        raise ValueError("Gauss codes require a single-component diagram")
    arc, succ = d._passes()
    start = p = arc.index(min(arc))
    labels: dict[int, int] = {}
    entries = []
    while True:
        ci = p >> 1
        labels.setdefault(ci, len(labels) + 1)
        entries.append((OVER if p & 1 else UNDER, labels[ci], d.crossings[ci].sign))
        p = succ[p]
        if p == start:
            break
    return GaussCode(tuple(entries))


def diagram_from_gauss(code: GaussCode) -> PDDiagram:
    """Rebuild the planar diagram a signed code describes.

    Arc j+1 runs from pass j to pass j+1 (cyclically), which fixes every
    crossing record once the sign places the over-strand's entry slot.
    """
    m = len(code.entries)
    if m == 0:
        return PDDiagram((), 1)
    pass_index: dict[tuple[str, int], int] = {}
    for idx, (kind, label, _) in enumerate(code.entries):
        pass_index[(kind, label)] = idx

    def arc_in(j: int) -> int:
        return (j - 1) % m + 1

    def arc_out(j: int) -> int:
        return j + 1

    crossings = []
    for label in code.labels():
        o = pass_index[(OVER, label)]
        u = pass_index[(UNDER, label)]
        sign = code.entries[o][2]
        if sign > 0:
            arcs = (arc_in(u), arc_in(o), arc_out(u), arc_out(o))
        else:
            arcs = (arc_in(u), arc_out(o), arc_out(u), arc_in(o))
        crossings.append(Crossing(arcs, sign))
    return PDDiagram(tuple(crossings), 0)
