"""Planar diagrams, Gauss codes, and intersection-sequence realizability.

A diagram is its pass table; a crossing record, its text form, stores
the four incident arcs counterclockwise starting at the incoming
under-strand, plus a sign. Signs follow the braid picture
(braid running downward): in a positive crossing the over-strand runs
slot 1 -> slot 3, in a negative crossing slot 3 -> slot 1. Split
unknotted circles (no crossings) are tracked by a free-loop count so
smoothing can disconnect diagrams.

Every builder lays passes through one checked step, _succ, edits splice
the table, and faces and pieces are walks over it; records are read only
by the checked constructor and written only by crossings. Signed and
unsigned Gauss text share one tokenizer and GaussCode's label check;
unsigned realizability is Rosenstiehl's criterion on the labels' order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .braid import _INT, BraidWord, _cycle_count
from .errors import BudgetExceededError, ParseError

OVER = "O"
UNDER = "U"

_UNSIGNED_GUARD = 400


@dataclass(frozen=True)
class Crossing:
    arcs: tuple[int, int, int, int]
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"crossing sign must be +-1, got {self.sign}")


@dataclass(frozen=True, init=False, repr=False)
class PDDiagram:
    """A diagram is ``_signs``, one per crossing, and the pass table
    ``_passes`` = (arc, succ): pass 2*ci enters crossing ci on the
    under-strand, pass 2*ci + 1 on the over-strand, arc[p] is the arc
    pass p enters on and succ[p] the next pass along its strand. Every
    walk reads the table and none writes to its lists; switching,
    smoothing and bigon cancellation build new ones. ``crossings`` is
    written from the table when something first reads it.
    """

    _signs: list[int]
    _passes: tuple[list[int], list[int]]
    free_loops: int

    def __init__(self, crossings: tuple[Crossing, ...] = (), free_loops: int = 0):
        vars(self).update(crossings=crossings, free_loops=free_loops)
        self.__post_init__()

    def __post_init__(self):
        """Read the crossing records into the pass table, checking that
        every arc has exactly one inflow and one outflow."""
        if self.free_loops < 0:
            raise ValueError("free loop count cannot be negative")
        arc: list[int] = []
        out: list[int] = []
        for c in self.crossings:
            a, b, cc, d = c.arcs
            if c.sign < 0:
                b, d = d, b
            arc += (a, b)
            out += (cc, d)
        vars(self).update(_signs=[c.sign for c in self.crossings], _passes=(arc, _succ(arc, out)))

    @classmethod
    def _derived(cls, signs, arc, succ, free_loops: int) -> "PDDiagram":
        """A diagram from its signs and pass table, reading no records:
        switching, smoothing and bigon cancellation keep every arc's one
        inflow and one outflow; every other builder lays passes by _succ."""
        d = object.__new__(cls)
        vars(d).update(_signs=signs, _passes=(arc, succ), free_loops=free_loops)
        return d

    @cached_property
    def crossings(self) -> tuple[Crossing, ...]:
        """The crossing records, the diagram's text form."""
        arc, succ = self._passes
        records = []
        for ci, sign in enumerate(self._signs):
            a, b, c, d = arc[2 * ci], arc[2 * ci + 1], arc[succ[2 * ci]], arc[succ[2 * ci + 1]]
            records.append(Crossing((a, b, c, d) if sign > 0 else (a, d, c, b), sign))
        return tuple(records)

    def __hash__(self):
        return hash((tuple(self._signs), tuple(self._passes[0]), self.free_loops))

    def __repr__(self) -> str:
        return f"PDDiagram(crossings={self.crossings!r}, free_loops={self.free_loops!r})"

    def arcs(self) -> list[int]:
        # Each arc is entered by exactly one pass.
        return sorted(self._passes[0])

    def components(self) -> int:
        """Closed strand cycles, free loops included."""
        # _cycle_count consumes its list; the shared table is read-only.
        return self.free_loops + _cycle_count(list(self._passes[1]))

    def switch_crossing(self, index: int) -> "PDDiagram":
        """Exchange over and under at one crossing: its two passes swap
        numbers and its sign flips; everything else unchanged."""
        u, o = self._pass_pair(index)
        signs, arc, succ = list(self._signs), list(self._passes[0]), list(self._passes[1])
        signs[index] = -signs[index]
        arc[u], arc[o] = arc[o], arc[u]
        # Conjugate succ by the swap: what entered u enters o, and back.
        pu, po = succ.index(u), succ.index(o)
        succ[pu], succ[po] = o, u
        succ[u], succ[o] = succ[o], succ[u]
        return PDDiagram._derived(signs, arc, succ, self.free_loops)

    def smooth_crossing(self, index: int) -> "PDDiagram":
        """Remove one crossing by the orientation-respecting reconnection:
        a strand entering on either pass leaves along the other."""
        u, o = self._pass_pair(index)
        succ = self._passes[1]
        return _splice(self, (index,), {u: succ[o], o: succ[u]})

    def relabel(self, mapping: dict[int, int]) -> "PDDiagram":
        arc = [mapping[a] for a in self._passes[0]]
        out = [arc[q] for q in self._passes[1]]
        return PDDiagram._derived(self._signs, arc, _succ(arc, out), self.free_loops)

    def reversed(self) -> "PDDiagram":
        # Each pass keeps its strand and sign and leaves where it entered.
        arc, succ = self._passes
        out = [arc[q] for q in succ]
        return PDDiagram._derived(self._signs, out, _succ(out, arc), self.free_loops)

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
        split pieces. Pieces are found and walked on this diagram's own
        pass table; no piece diagram is built.
        """
        succ = self._passes[1]
        signs = self._signs
        # low[p] is the part of pass p's symbol that does not depend on
        # numbering. Reversal keeps each pass's strand and sign and walks
        # the passes backwards.
        low = [2 * (p & 1) + (signs[p >> 1] > 0) for p in range(len(succ))]
        pred = [0] * len(succ)
        for p, q in enumerate(succ):
            pred[q] = p
        codes = []
        for piece in _pieces(self):
            # Under-passes of the negative crossings, or of all when none
            # is negative, are a start set that relabeling and reversal
            # preserve.
            starts = [2 * ci for ci in piece if signs[ci] < 0] or [2 * ci for ci in piece]
            best: list[int] = []
            for step in (succ, pred):
                for start in starts:
                    code = _traverse(step, low, start, best, 2 * len(piece))
                    if code is not None:
                        best = code
            codes.append(",".join(map(str, best)))
        return f"L{self.free_loops}|" + "||".join(sorted(codes))

    def _pass_pair(self, index: int) -> tuple[int, int]:
        """The under- and over-pass of crossing ``index``."""
        if not 0 <= index < len(self._signs):
            raise ValueError(f"no crossing with index {index}")
        return 2 * index, 2 * index + 1

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
            if parts[0] != "X" or len(parts) != 6 or not all(map(_INT.fullmatch, parts[1:])):
                raise ParseError(f"bad diagram line {line!r}")
            a, b, c, d, s = map(int, parts[1:])
            try:
                crossings.append(Crossing((a, b, c, d), s))
            except ValueError:
                raise ParseError(f"bad diagram line {line!r}") from None
        try:
            return cls(tuple(crossings), loops)
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def _succ(arc: list[int], out: list[int]) -> list[int]:
    """Each pass's successor, checking every arc has one inflow and one outflow."""
    enter = {a: p for p, a in enumerate(arc)}
    try:
        succ = [enter[a] for a in out]
    except KeyError as exc:
        raise ValueError(f"arc {exc.args[0]} is left but never entered") from None
    if len(enter) < len(arc) or len(set(succ)) < len(succ):
        raise ValueError("an arc is entered twice or left twice")
    return succ


def _pieces(d: PDDiagram) -> list[list[int]]:
    """Each connected piece's crossings, in the order they are reached."""
    succ, seen, pieces = d._passes[1], bytearray(len(d._signs)), []
    for first in range(len(d._signs)):
        if seen[first]:
            continue
        seen[first] = 1
        piece = [first]
        # Strands are cycles of succ, so following succ from both passes
        # of every member reaches the whole piece.
        for ci in piece:
            for q in (succ[2 * ci], succ[2 * ci + 1]):
                if not seen[q >> 1]:
                    seen[q >> 1] = 1
                    piece.append(q >> 1)
        pieces.append(piece)
    return pieces


def _faces(d: PDDiagram) -> int:
    """Faces of the surface the crossings span: orbits of "cross to the
    arc's other end, then take the next slot". Corner 4x+k is slot k of
    crossing x counterclockwise from the under-pass entry; the over-pass
    enters on slot 2 - sign, and a pass leaves opposite its entry."""
    signs, succ = d._signs, d._passes[1]
    entry = [4 * (p >> 1) + (2 - signs[p >> 1] if p & 1 else 0) for p in range(len(succ))]
    step = [0] * (4 * len(signs))
    for p, q in enumerate(succ):
        a, b = entry[p] ^ 2, entry[q]
        step[a], step[b] = b & ~3 | (b + 1) & 3, a & ~3 | (a + 1) & 3
    return _cycle_count(step)


def _splice(d: PDDiagram, gone: tuple[int, ...], jump: dict[int, int]) -> PDDiagram:
    """``d`` without the crossings ``gone``, the others kept in order: a
    strand entering removed pass e continues at jump[e].

    The arc into the next kept pass takes the label of the first removed
    pass entered, so every label stays the parent's, and a cycle made
    only of jumps is a free loop. Consumes ``jump``.
    """
    arc, succ = list(d._passes[0]), list(d._passes[1])
    loops = d.free_loops
    for e in jump:
        k = succ.index(e)
        if k >> 1 not in gone:
            t = jump[e]
            while t >> 1 in gone:
                t = jump[t]
            succ[k], arc[t] = t, arc[e]
    # Jumps that no strand from a kept pass reaches close on themselves.
    while jump:
        e, t = jump.popitem()
        while t in jump:
            t = jump.pop(t)
        loops += t == e
    signs = list(d._signs)
    for x in sorted(gone, reverse=True):
        del signs[x], arc[2 * x : 2 * x + 2], succ[2 * x : 2 * x + 2]
        succ = [s - 2 if s > 2 * x else s for s in succ]
    return PDDiagram._derived(signs, arc, succ, loops)


def _cancel_bigons(d: PDDiagram) -> PDDiagram:
    """Remove cancelling bigons until none remain.

    A bigon is a pair of crossings x != y joined by one arc that is the
    over-strand at both ends and one that is the under-strand at both
    ends, so the two strands pull apart exactly (the link is unchanged).
    Over passes are scanned in crossing order, and both strands of the
    first bigon found skip the pair.
    """
    while True:
        succ = d._passes[1]
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
            d = _splice(d, (x, y), {s: succ[succ[s]] for s in (p, q)})
            break
        else:
            return d


def _reduce(d: PDDiagram) -> PDDiagram:
    """Remove cancelling bigons and kinks until neither is left.

    A kink is a crossing a strand leaves and comes straight back to (a
    Reidemeister-I loop): the strand entering its first pass skips it, so
    the link is unchanged; an isolated 1-crossing circle becomes a free loop.
    """
    while True:
        d = _cancel_bigons(d)
        succ = d._passes[1]
        for e in range(len(succ)):
            if succ[e] == e ^ 1:
                d = _splice(d, (e >> 1,), {e: succ[e ^ 1]})
                break
        else:
            return d


def _first_violation(d: PDDiagram) -> int | None:
    """Index of the first crossing reached on its under-strand, if any.

    Each component is walked from its least arc, components in order of
    that arc.
    """
    arc, succ = d._passes
    seen = bytearray(len(succ))
    for p in sorted(range(len(arc)), key=arc.__getitem__):
        while not seen[p]:
            if not p & 1 and not seen[p + 1]:
                return p >> 1
            seen[p] = 1
            p = succ[p]
    return None


def _traverse(
    step: list[int], low: list[int], start: int, best: list[int], passes: int
) -> list[int] | None:
    """The code of the piece of ``passes`` passes that holds ``start``,
    walked from there (see canonical_key), or None once it exceeds
    ``best``."""
    number = [-1] * (len(step) // 2)
    order: list[int] = []
    seen = bytearray(len(step))
    code: list[int] = []
    tied = bool(best)
    scan = 0
    p = start
    for _ in range(passes):
        if seen[p]:
            # Restart at the earliest-numbered crossing with an unvisited
            # pass; in a piece one exists until its passes are all seen.
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
    """Close a braid: one crossing per letter, strand ends glued around.

    Letter j leaves on arcs n+1+2j and n+2+2j, so one pass over the letters
    gives each strand's bottom arc; the strand starts on it, which glues
    the closure as the passes are laid. The strand from the right passes
    under a positive letter and over a negative one; each leaves on the
    other side. An untouched strand keeps its arc p+1 and is a free
    loop."""
    n = b.strands
    cur = list(range(1, n + 1))
    for j, e in enumerate(b.letters):
        i = abs(e)
        cur[i - 1], cur[i] = n + 1 + 2 * j, n + 2 + 2 * j
    loops = sum(cur[p] == p + 1 for p in range(n))
    arc: list[int] = []
    out: list[int] = []
    for j, e in enumerate(b.letters):
        i = abs(e)
        under, over = (i, i - 1) if e > 0 else (i - 1, i)
        arc += (cur[under], cur[over])
        cur[i - 1], cur[i] = n + 1 + 2 * j, n + 2 + 2 * j
        out += (cur[over], cur[under])
    signs = [1 if e > 0 else -1 for e in b.letters]
    return PDDiagram._derived(signs, arc, _succ(arc, out), loops)


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


_GAUSS_TOKEN = re.compile(r"\s*([OUou])\s*([0-9]+)(?:\s*([+-]))?")


def _parse_code(text: str, signed: bool) -> GaussCode:
    """Tokenize Gauss text (unsigned tokens get sign +1) and validate it.

    A token needs a sign in signed text and may not have one in unsigned
    text: it is reported from its start, or from its sign, respectively.
    """
    entries = []
    pos = 0
    while pos < len(text):
        m = _GAUSS_TOKEN.match(text, pos)
        if m is None or (m[3] is None) == signed:
            bad = pos if m is None or signed else m.end(2)
            if text[bad:].strip():
                what = "Gauss" if signed else "unsigned"
                raise ParseError(f"bad {what} code near {text[bad:bad + 12]!r}")
            break
        entries.append((m[1].upper(), int(m[2]), -1 if m[3] == "-" else 1))
        pos = m.end()
    try:
        return GaussCode(tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_gauss(text: str) -> GaussCode:
    """Parse tokens like "O1+U2-"; validation errors become ParseError."""
    return _parse_code(text, signed=True)


def parse_unsigned_gauss(text: str) -> list[tuple[str, int]]:
    """Parse a sign-free sequence like "O1 U2 O3"."""
    return [(kind, label) for kind, label, _ in _parse_code(text, signed=False).entries]


def euler_characteristic(code: GaussCode) -> tuple[int, int, int, int]:
    """(vertices, edges, faces, chi) of the surface the crossings of
    diagram_from_gauss span (see _faces); the empty code is a sphere."""
    d = diagram_from_gauss(code)
    c, faces = len(d._signs), (_faces(d) if d._signs else 2)
    return (c, 2 * c, faces, faces - c)


def realizable(code: GaussCode) -> bool:
    """True iff the code comes from an actual planar knot diagram (chi = 2)."""
    return euler_characteristic(code)[3] == 2


def realizable_unsigned(sequence: list[tuple[str, int]]) -> bool:
    """True iff some sign assignment makes the sequence realizable.

    A planar curve takes any over/under choice, so only the order of the
    labels matters. Two labels are interlaced when exactly one occurrence
    of one lies between those of the other. By Rosenstiehl's criterion
    (1976; de Fraysseix and Ossona de Mendez 1999) the word is a planar
    curve's iff (i) every label has an even number of interlaced
    neighbours, (ii) every non-interlaced pair shares an even number, and
    (iii) the interlaced pairs sharing an even number form a cut: some
    2-colouring separates exactly those pairs. Guarded to 400 crossings.
    """
    labels = sorted({label for _, label in sequence})
    if len(labels) > _UNSIGNED_GUARD:
        raise BudgetExceededError(
            f"unsigned realizability is limited to {_UNSIGNED_GUARD} crossings"
        )
    # Malformed input raises ValueError from the label check.
    GaussCode(tuple((kind, label, 1) for kind, label in sequence))
    index = {label: k for k, label in enumerate(labels)}
    # nbr[k] is the bitset of labels met an odd number of times between
    # label k's occurrences: a prefix XOR over the word.
    nbr = [0] * len(labels)
    after_first: dict[int, int] = {}
    prefix = 0
    for _, label in sequence:
        k = index[label]
        if k in after_first:
            nbr[k] = prefix ^ after_first[k]
        prefix ^= 1 << k
        after_first.setdefault(k, prefix)
    # Colour each interlacement component from a root, checking every pair
    # (k, j) of a popped label k: (ii) off the graph, (iii) on it. A label
    # is not interlaced with itself and shares all its neighbours with
    # itself, so the pair (k, k) checks (i).
    colour: list[int | None] = [None] * len(labels)
    for root in range(len(labels)):
        if colour[root] is not None:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            k = stack.pop()
            for j in range(len(labels)):
                even = not (nbr[k] & nbr[j]).bit_count() & 1
                if not nbr[k] >> j & 1:
                    if not even:
                        return False
                elif colour[j] is None:
                    colour[j] = colour[k] ^ even
                    stack.append(j)
                elif colour[j] != colour[k] ^ even:
                    return False
    return True


def gauss_from_diagram(d: PDDiagram) -> GaussCode:
    """Traverse a one-component diagram, recording each pass."""
    # A diagram with crossings and a free loop has two components or more.
    if d.components() != 1:
        raise ValueError("Gauss codes require a single-component diagram")
    if not d._signs:
        return GaussCode(())
    arc, succ = d._passes
    start = p = arc.index(min(arc))
    labels: dict[int, int] = {}
    entries = []
    while True:
        ci = p >> 1
        labels.setdefault(ci, len(labels) + 1)
        entries.append((OVER if p & 1 else UNDER, labels[ci], d._signs[ci]))
        p = succ[p]
        if p == start:
            break
    return GaussCode(tuple(entries))


def diagram_from_gauss(code: GaussCode) -> PDDiagram:
    """Rebuild the planar diagram a signed code describes.

    Arc j+1 runs from entry j to entry j+1 (cyclically), and entry j is a
    pass of its label's crossing, crossings numbered in label order.
    """
    m = len(code.entries)
    if m == 0:
        return PDDiagram((), 1)
    rank = {label: r for r, label in enumerate(code.labels())}
    arc, out, signs = [0] * m, [0] * m, [0] * len(rank)
    for j, (kind, label, sign) in enumerate(code.entries):
        p = 2 * rank[label] + (kind == OVER)
        arc[p], out[p] = (j - 1) % m + 1, j + 1
        signs[p >> 1] = sign
    return PDDiagram._derived(signs, arc, _succ(arc, out), 0)
