"""Planarity on the pass table: faces, pieces, the skein's refusal of a
diagram that is not planar, and kink removal by one splice."""

import random

import pytest

from knotqc import diagram
from knotqc.braid import BraidWord, _cycle_count, random_braid
from knotqc.diagram import (
    GaussCode,
    PDDiagram,
    _cancel_bigons,
    _faces,
    _pieces,
    _reduce,
    closure_to_diagram,
    diagram_from_gauss,
    euler_characteristic,
    gauss_from_diagram,
    parse_gauss,
)
from knotqc.skein import DELTA, homfly

from oracle_canonical import pieces

TREFOIL_CODE = "O1+U2+O3+U1+O2+U3+"
INTERLACED = "O1+O2+U1+U2+"


def _smooth_then_drop(d: PDDiagram) -> PDDiagram:
    """Frozen copy of the kink rule that smoothed the kink and dropped the
    free loop the smoothing split off."""
    while True:
        d = _cancel_bigons(d)
        succ = d._passes[1]
        for x in range(len(d._signs)):
            if succ[2 * x] == 2 * x + 1 or succ[2 * x + 1] == 2 * x:
                s = d.smooth_crossing(x)
                d = PDDiagram._derived(s._signs, *s._passes, s.free_loops - 1)
                break
        else:
            return d


def _corner_faces(d: PDDiagram) -> int:
    """Frozen copy of the face walk over crossing records: corners sorted
    by arc pair up as the two ends of each arc."""
    arcs = [a for x in d.crossings for a in x.arcs]
    by_arc = sorted(range(len(arcs)), key=arcs.__getitem__)
    other = [0] * len(arcs)
    for x, y in zip(by_arc[::2], by_arc[1::2]):
        other[x], other[y] = y, x
    return _cycle_count([k - k % 4 + (k + 1) % 4 for k in other])


def _random_code(rng: random.Random) -> GaussCode:
    """A double-occurrence word with random over/under and signs; most
    are not realizable."""
    labels = list(range(1, rng.randrange(2, 10)))
    word = labels + labels
    rng.shuffle(word)
    over = {label: rng.random() < 0.5 for label in labels}
    sign = {label: rng.choice((1, -1)) for label in labels}
    entries = []
    for label in word:
        entries.append(("O" if over[label] else "U", label, sign[label]))
        over[label] = not over[label]
    return GaussCode(tuple(entries))


def _beside(*texts: str) -> PDDiagram:
    """The split union of PD texts, each one's arcs moved past the last's."""
    lines = []
    for k, text in enumerate(texts):
        for line in PDDiagram.parse(text).to_text().splitlines():
            if line == "loop":
                lines.append(line)
                continue
            x, *arcs, sign = line.split()
            lines.append(" ".join([x, *(str(int(a) + 100 * k) for a in arcs), sign]))
    return PDDiagram.parse("\n".join(lines))


def _gauss_text(code: str) -> str:
    return diagram_from_gauss(parse_gauss(code)).to_text()


def _family(rng: random.Random) -> list[PDDiagram]:
    """A seeded closure, its Gauss round trip when it is a knot, and the
    switches and smoothings of both."""
    n = rng.randrange(2, 6)
    d = closure_to_diagram(random_braid(n, rng.randrange(0, 12), rng.randrange(10**9)))
    roots = [d]
    if d.components() == 1 and d._signs:
        roots.append(diagram_from_gauss(gauss_from_diagram(d)))
    family = list(roots)
    for e in roots:
        for k in range(len(e._signs)):
            family += [e.switch_crossing(k), e.smooth_crossing(k)]
    return family


def test_reduce_matches_smooth_then_drop():
    # One splice per kink gives the smoothing rule's diagram, table for
    # table and loop for loop.
    rng = random.Random(2828)
    checked = kinked = gauss = 0
    for _ in range(400):
        family = _family(rng)
        gauss += len(family) > 1 and family[1]._passes != family[0]._passes
        for e in family:
            new, old = _reduce(e), _smooth_then_drop(e)
            assert (new._signs, new._passes, new.free_loops) == (
                old._signs, old._passes, old.free_loops)
            kinked += len(new._signs) < len(_cancel_bigons(e)._signs)
            checked += 1
    assert checked > 3000 and kinked > 1000 and gauss > 50


def test_reduce_removes_kinks_without_smoothing(monkeypatch):
    calls = []
    smooth = PDDiagram.smooth_crossing
    monkeypatch.setattr(PDDiagram, "smooth_crossing", lambda d, x: calls.append(x) or smooth(d, x))
    assert _reduce(closure_to_diagram(BraidWord(4, (1, -2, 3)))) == PDDiagram((), 1)
    assert _reduce(PDDiagram.parse("X 1 2 2 1 +1")) == PDDiagram((), 1)
    assert calls == []


def test_faces_match_the_corner_walk():
    # Random signed codes, most of them not planar, and the closures and
    # edits of _family: the pass-table walk counts the record walk's faces.
    rng = random.Random(3131)
    planar = 0
    for _ in range(3000):
        d = diagram_from_gauss(_random_code(rng))
        assert _faces(d) == _corner_faces(d)
        planar += _faces(d) - len(d._signs) == 2
    for _ in range(100):
        for d in _family(rng):
            assert _faces(d) == _corner_faces(d)
    assert 100 < planar < 2000


def test_faces_read_no_crossing_records(monkeypatch):
    # The face walk reads the pass table: no Crossing is written.
    code = parse_gauss(TREFOIL_CODE)
    monkeypatch.setattr(diagram, "Crossing", None)
    assert euler_characteristic(code) == (3, 6, 5, 2)


def test_pieces_match_the_oracle_split():
    rng = random.Random(77)
    split = 0
    for _ in range(200):
        for e in _family(rng):
            found = _pieces(e)
            assert sorted(x for piece in found for x in piece) == list(range(len(e._signs)))
            assert sorted(map(len, found)) == sorted(len(p._signs) for p in pieces(e))
            split += len(found) > 1
    assert split > 100


@pytest.mark.parametrize("build", [
    lambda: diagram_from_gauss(parse_gauss(INTERLACED)),
    lambda: PDDiagram.parse(_gauss_text(INTERLACED)),
], ids=["gauss", "pd-text"])
def test_interlaced_code_is_refused(build):
    d = build()
    assert _faces(d) - len(d._signs) == 0
    with pytest.raises(ValueError, match="realizable"):
        homfly(d)


def test_trefoil_beside_the_interlaced_code_is_refused():
    # chi is 2 over the whole diagram (2 and 0), but each of its two
    # pieces must span a sphere on its own.
    d = _beside(_gauss_text(TREFOIL_CODE), _gauss_text(INTERLACED))
    assert _faces(d) - len(d._signs) == 2 and len(_pieces(d)) == 2
    with pytest.raises(ValueError, match="realizable"):
        homfly(d)


def test_split_trefoils_and_free_loops_are_accepted():
    trefoil = _gauss_text(TREFOIL_CODE)
    p = homfly(PDDiagram.parse(trefoil))
    assert homfly(_beside(trefoil, trefoil)) == p * p * DELTA
    assert homfly(_beside(trefoil, "loop\nloop")) == p * DELTA * DELTA
    assert homfly(PDDiagram((), 1)) == DELTA ** 0
    assert homfly(PDDiagram((), 3)) == DELTA * DELTA


def test_engine_diagrams_span_a_sphere_per_piece():
    # Closures, Gauss round trips and everything switching, smoothing and
    # _reduce derive from them are planar, so the skein checks none of them.
    rng = random.Random(5151)
    checked = split = 0
    for _ in range(300):
        for e in _family(rng):
            for f in (e, _reduce(e)):
                assert _faces(f) - len(f._signs) == 2 * len(_pieces(f))
                for piece in pieces(f):
                    assert _faces(piece) - len(piece._signs) == 2
                split += len(_pieces(f)) > 1
                checked += 1
    assert checked > 4000 and split > 300
