import random

import pytest

from knotqc.braid import BraidWord, random_braid
from knotqc.diagram import (
    Crossing,
    GaussCode,
    PDDiagram,
    _cancel_bigons,
    _first_violation,
    _reduce,
    closure_to_diagram,
    diagram_from_gauss,
    euler_characteristic,
    gauss_from_diagram,
    parse_gauss,
    parse_unsigned_gauss,
    realizable,
    realizable_unsigned,
)
from knotqc.errors import BudgetExceededError, ParseError
from knotqc.laurent import LaurentPoly2
from knotqc.skein import DELTA, homfly, homfly_with_stats

import oracle_closure
import oracle_traversal
from oracle_canonical import frozen_key, oracle_key, pieces

TREFOIL_CODE = "O1+U2+O3+U1+O2+U3+"
INTERLACED = "O1+O2+U1+U2+"


def trefoil_diagram():
    return closure_to_diagram(BraidWord(2, (1, 1, 1)))


def test_closure_identity_strand():
    d = closure_to_diagram(BraidWord(1))
    assert d.crossings == () and d.free_loops == 1
    assert d.components() == 1


def test_closure_trefoil():
    d = trefoil_diagram()
    assert len(d.crossings) == 3
    assert d.components() == 1
    assert all(c.sign == 1 for c in d.crossings)


def test_closure_counts_random():
    rng = random.Random(17)
    for _ in range(500):
        b = random_braid(rng.randrange(2, 5), rng.randrange(0, 9), rng.randrange(10**9))
        d = closure_to_diagram(b)
        assert len(d.crossings) == len(b.letters)
        assert d.components() == b.closure_components()
        assert [c.sign for c in d.crossings] == [1 if e > 0 else -1 for e in b.letters]
        assert (d.crossings, d.free_loops) == oracle_closure.closure(b)


def test_switch_is_involution_and_local():
    rng = random.Random(23)
    for _ in range(50):
        b = random_braid(3, rng.randrange(1, 9), rng.randrange(10**9))
        d = closure_to_diagram(b)
        k = rng.randrange(len(d.crossings))
        switched = d.switch_crossing(k)
        assert switched.switch_crossing(k) == d
        assert switched.components() == d.components()
        for j in range(len(d.crossings)):
            if j != k:
                assert switched.crossings[j] == d.crossings[j]
        assert switched.crossings[k].sign == -d.crossings[k].sign


def test_switch_unknown_crossing():
    with pytest.raises(ValueError):
        trefoil_diagram().switch_crossing(3)


def test_smooth_trefoil_gives_hopf():
    d = trefoil_diagram()
    sm = d.smooth_crossing(0)
    assert len(sm.crossings) == 2
    assert sm.components() == 2


def test_smooth_single_kink_gives_unlink():
    d = closure_to_diagram(BraidWord(2, (1,)))
    sm = d.smooth_crossing(0)
    assert sm.crossings == ()
    assert sm.free_loops == 2
    assert sm.components() == 2


def test_smooth_counts_and_parity():
    rng = random.Random(31)
    for _ in range(80):
        b = random_braid(3, rng.randrange(1, 9), rng.randrange(10**9))
        d = closure_to_diagram(b)
        k = rng.randrange(len(d.crossings))
        sm = d.smooth_crossing(k)
        assert len(sm.crossings) == len(d.crossings) - 1
        assert abs(sm.components() - d.components()) == 1
        for j, c in enumerate(x for i, x in enumerate(d.crossings) if i != k):
            assert sm.crossings[j].sign == c.sign


def test_canonical_key_relabel_invariance():
    rng = random.Random(41)
    for _ in range(30):
        b = random_braid(3, rng.randrange(1, 8), rng.randrange(10**9))
        d = closure_to_diagram(b)
        arcs = d.arcs()
        images = rng.sample(range(1000, 2000), len(arcs))
        relabeled = d.relabel(dict(zip(arcs, images)))
        assert relabeled.canonical_key() == d.canonical_key()


def test_canonical_key_distinguishes():
    d1 = trefoil_diagram()
    d2 = closure_to_diagram(BraidWord(3, (1, -2, 1, -2)))
    assert d1.canonical_key() != d2.canonical_key()
    # same crossing number, different sign pattern
    d3 = closure_to_diagram(BraidWord(2, (1, 1, -1)))
    assert d1.canonical_key() != d3.canonical_key()


def test_canonical_key_unknot_constant():
    assert PDDiagram((), 1).canonical_key() == "L1|"


def _relabel_and_shuffle(d, rng):
    arcs = d.arcs()
    mapping = dict(zip(arcs, rng.sample(range(1000, 1000 + 3 * len(arcs)), len(arcs))))
    crossings = list(d.relabel(mapping).crossings)
    rng.shuffle(crossings)
    return PDDiagram(tuple(crossings), d.free_loops)


def _reverse_some_pieces(d, rng):
    crossings = []
    for piece in pieces(d):
        crossings.extend((piece.reversed() if rng.random() < 0.5 else piece).crossings)
    return PDDiagram(tuple(crossings), d.free_loops)


def test_canonical_key_matches_oracle_partition():
    # Braid closures, their switches and smoothings (split pieces, free
    # loops), and relabeled, reordered and partly reversed copies: the key
    # and the reference string encoder must group them identically.
    rng = random.Random(2024)
    corpus = []
    while len(corpus) < 600:
        b = random_braid(rng.randrange(2, 6), rng.randrange(0, 10), rng.randrange(10**9))
        family = [closure_to_diagram(b)]
        for _ in range(2):
            d = family[-1]
            if d.crossings:
                k = rng.randrange(len(d.crossings))
                family += [d.switch_crossing(k), d.smooth_crossing(k)]
        for d in family:
            corpus += [d, d.reversed(), _relabel_and_shuffle(d, rng)]
            corpus.append(_relabel_and_shuffle(_reverse_some_pieces(d, rng), rng))
    new_to_old: dict[str, str] = {}
    old_to_new: dict[str, str] = {}
    for d in corpus:
        new, old = d.canonical_key(), oracle_key(d)
        assert new_to_old.setdefault(new, old) == old
        assert old_to_new.setdefault(old, new) == new
    assert len(new_to_old) < len(corpus) // 2
    assert any(len(pieces(d)) > 1 for d in corpus)
    assert any(d.free_loops and d.crossings for d in corpus)


def test_canonical_key_equals_frozen_copy():
    # Pieces are found on the diagram's own pass table; the key must be
    # the string the per-piece diagrams gave, on closures of 1-5 strands,
    # their switches, smoothings and bigon reductions, and relabeled and
    # reordered copies.
    rng = random.Random(1010)
    checked = split = loops = 0
    while checked < 6000:
        n = rng.randrange(1, 6)
        length, seed = rng.randrange(0, 12), rng.randrange(10**9)
        d = closure_to_diagram(random_braid(n, length, seed) if n > 1 else BraidWord(1))
        family = [d]
        for k in range(len(d.crossings)):
            family += [d.switch_crossing(k), d.smooth_crossing(k)]
        family += [_cancel_bigons(e) for e in family]
        family += [_relabel_and_shuffle(rng.choice(family), rng)]
        for e in family:
            assert e.canonical_key() == frozen_key(e)
            split += len(pieces(e)) > 1
            loops += bool(e.free_loops and e.crossings)
            checked += 1
    assert split > 500 and loops > 500


@pytest.mark.parametrize(
    "word",
    [BraidWord(4, (1, 3, 1, -3, 1)), BraidWord(3, (1, -1, 1))],
    ids=["split", "free-loop"],
)
def test_canonical_key_constructs_no_diagram(monkeypatch, word):
    # Pieces are found and walked on the diagram's own pass table: a key
    # builds no diagram, checked or derived, and writes no records.
    expected = frozen_key(closure_to_diagram(word))
    d = closure_to_diagram(word)
    built = []
    monkeypatch.setattr(PDDiagram, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr(PDDiagram, "_derived", classmethod(lambda cls, *a: built.append(a)))
    assert d.canonical_key() == expected
    assert built == [] and "crossings" not in vars(d)


def _rebuilt(d: PDDiagram) -> PDDiagram:
    """The same fields through the checked public constructor."""
    return PDDiagram(d.crossings, d.free_loops)


def test_derived_diagrams_pass_the_checked_constructor():
    # Switches, smoothings and bigon cancellations are built without
    # validation, and closures through the same checks as records; each,
    # and each piece, must be one the checked constructor accepts.
    rng = random.Random(4041)
    derived = split = multi = cancelled = 0
    for _ in range(240):
        n = rng.randrange(2, 6)
        gens = rng.sample(range(1, n), rng.randrange(1, n))
        letters = tuple(
            rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 11))
        )
        d = closure_to_diagram(BraidWord(n, letters))
        family = [d]
        for k in range(len(d.crossings)):
            family += [d.switch_crossing(k), d.smooth_crossing(k)]
        for e in list(family):
            reduced = _cancel_bigons(e)
            cancelled += len(reduced.crossings) < len(e.crossings)
            family += [reduced, *pieces(reduced), *pieces(e)]
        for e in family:
            assert _rebuilt(e) == e
            derived += 1
        split += len(pieces(d)) + d.free_loops > 1
        multi += d.components() > 1
    assert derived > 2000
    assert split and multi and cancelled


def _same_table(new: PDDiagram, old: PDDiagram) -> None:
    assert new._signs == old._signs and new._passes == old._passes
    assert new.free_loops == old.free_loops and new.crossings == old.crossings


def _random_signed_code(rng: random.Random) -> GaussCode:
    """A double-occurrence word with random over/under, signs and sparse
    labels; most are not realizable."""
    labels = rng.sample(range(1, 1000), rng.randrange(1, 9))
    word = labels + labels
    rng.shuffle(word)
    over = {label: rng.random() < 0.5 for label in labels}
    sign = {label: rng.choice((1, -1)) for label in labels}
    entries = []
    for label in word:
        entries.append(("O" if over[label] else "U", label, sign[label]))
        over[label] = not over[label]
    return GaussCode(tuple(entries))


def test_laid_builders_match_record_oracle():
    # Gauss input, relabeling and reversal lay passes directly; each must
    # give the record-level builders' diagram table for table, on closures
    # and their relabelings and reversals, Gauss round trips, and random
    # signed codes, realizable or not.
    rng = random.Random(1919)
    round_trips = unrealizable = 0
    for _ in range(3000):
        n = rng.randrange(2, 6)
        d = closure_to_diagram(random_braid(n, rng.randrange(0, 12), rng.randrange(10**9)))
        arcs = d.arcs()
        mapping = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs) + 10), len(arcs))))
        _same_table(d.relabel(mapping), oracle_traversal.relabel(d, mapping))
        _same_table(d.reversed(), oracle_traversal.reverse(d))
        assert d.reversed().reversed() == d
        if d.components() == 1 and d.crossings:
            code = gauss_from_diagram(d)
            _same_table(diagram_from_gauss(code), oracle_traversal.diagram_from_gauss(code))
            round_trips += 1
    for _ in range(4000):
        code = _random_signed_code(rng)
        d = diagram_from_gauss(code)
        _same_table(d, oracle_traversal.diagram_from_gauss(code))
        _same_table(d.reversed(), oracle_traversal.reverse(d))
        unrealizable += not realizable(code)
    assert round_trips > 500 and unrealizable > 2000
    d = trefoil_diagram()
    arcs = d.arcs()
    with pytest.raises(ValueError):
        d.relabel({a: min(a, arcs[1]) for a in arcs})


def test_pass_table_traversals_match_slot_oracle():
    # The family of the test above, plus relabeled and reordered copies
    # (base points follow arc labels): every walk over the pass table
    # must agree with the slot-based walks it replaced. Bigon
    # cancellation may pick an isomorphic pair in another order, so its
    # result is compared up to the canonical key.
    rng = random.Random(4041)
    checked = one_component = cancelled = 0
    for _ in range(240):
        n = rng.randrange(2, 6)
        gens = rng.sample(range(1, n), rng.randrange(1, n))
        letters = tuple(
            rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 11))
        )
        d = closure_to_diagram(BraidWord(n, letters))
        family = [d]
        for k in range(len(d.crossings)):
            family += [d.switch_crossing(k), d.smooth_crossing(k)]
        for e in list(family):
            family += [_cancel_bigons(e), *pieces(e)]
        family += [_relabel_and_shuffle(e, rng) for e in family]
        for e in family:
            assert _first_violation(e) == oracle_traversal._first_violation(e)
            components = oracle_traversal.components(e)
            assert e.components() == components
            if components == 1:
                assert gauss_from_diagram(e) == oracle_traversal.gauss_from_diagram(e)
                one_component += 1
            assert e._passes == _rebuilt(e)._passes
            new, old = _cancel_bigons(e), oracle_traversal._cancel_bigons(e)
            assert len(new.crossings) == len(old.crossings)
            assert new.free_loops == old.free_loops
            assert new == old or new.canonical_key() == old.canonical_key()
            cancelled += len(new.crossings) < len(e.crossings)
            checked += 1
    assert checked > 15000 and one_component > 4000 and cancelled > 8000


def test_pass_edits_match_record_oracle():
    # Arc labels pick the skein engine's base points, and crossing order
    # its violation and bigon choices, so switching, smoothing and bigon
    # cancellation on the pass table must give the record-level oracle's
    # diagrams record for record and loop for loop, on closures and their
    # reversed, relabeled and Gauss round-trip copies.
    rng = random.Random(4041)
    checked = split = loops = cancelled = gauss = 0
    for _ in range(240):
        n = rng.randrange(2, 6)
        gens = rng.sample(range(1, n), rng.randrange(1, n))
        letters = tuple(
            rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 11))
        )
        d = closure_to_diagram(BraidWord(n, letters))
        family = [d, d.reversed(), _relabel_and_shuffle(d, rng)]
        if d.components() == 1 and d.crossings:
            family.append(diagram_from_gauss(gauss_from_diagram(d)))
            gauss += 1
        for e in family:
            for k in range(len(e.crossings)):
                for new, old in (
                    (e.switch_crossing(k), oracle_traversal.switch_crossing(e, k)),
                    (e.smooth_crossing(k), oracle_traversal.smooth_crossing(e, k)),
                    (_cancel_bigons(e.smooth_crossing(k)),
                     oracle_traversal.cancel_bigons(oracle_traversal.smooth_crossing(e, k))),
                ):
                    assert (new.crossings, new.free_loops) == (old.crossings, old.free_loops)
                    assert new == old
                    checked += 1
            new, old = _cancel_bigons(e), oracle_traversal.cancel_bigons(e)
            assert (new.crossings, new.free_loops) == (old.crossings, old.free_loops)
            cancelled += len(new.crossings) < len(e.crossings)
            split += len(pieces(e)) > 1
            loops += bool(e.free_loops and e.crossings)
    assert checked > 12000 and cancelled > 500 and gauss > 40
    assert split > 50 and loops > 300


# Seven crossings whose bigon cancellations end on kinks of opposite sign.
BIGON_TRAP = """X 20 5 6 18 -1
X 19 9 10 5 -1
X 6 11 12 16 -1
X 10 13 14 11 -1
X 12 14 15 16 +1
X 15 13 17 18 +1
X 17 9 19 20 +1"""


def test_bigon_cancellation_of_trap_diagram_is_pinned():
    # _cancel_bigons takes over passes in crossing order and keeps its
    # record-level result; the slot oracle's grouping order ends on the
    # opposite kink, which is the same unknot.
    d = PDDiagram.parse(BIGON_TRAP)
    ours, slot = _cancel_bigons(d), oracle_traversal._cancel_bigons(d)
    assert ours == oracle_traversal.cancel_bigons(d)
    assert ours.to_text() == "X 16 15 15 16 +1"
    assert slot.to_text() == "X 13 13 14 14 -1"
    assert homfly(ours) == homfly(slot) == homfly(d) == LaurentPoly2.one()


def _closure(n, letters):
    return closure_to_diagram(BraidWord(n, letters))


@pytest.mark.parametrize("text", ["X 1 2 2 1 +1", "X 1 1 2 2 -1"])
def test_reduce_turns_a_kinked_unknot_into_a_loop(text):
    # A 1-crossing circle of either sign is one free loop.
    d = PDDiagram.parse(text)
    assert _cancel_bigons(d) == d
    assert _reduce(d) == PDDiagram((), 1)
    assert homfly(d) == LaurentPoly2.one()


@pytest.mark.parametrize("kink", [2, -2])
def test_reduce_removes_a_kink_and_keeps_the_rest(kink):
    # The last letter is a kink of either sign on the trefoil, whose loop
    # runs from the over-pass back to the under-pass (sigma_2) or from
    # the under-pass back to the over-pass (sigma_2^-1): removing it
    # leaves the trefoil's three crossings, their signs and their arcs.
    d = _closure(3, (1, 1, 1, kink))
    under_then_over, over_then_under = d._passes[1][6] == 7, d._passes[1][7] == 6
    assert (under_then_over, over_then_under) == (kink < 0, kink > 0)
    r = _reduce(d)
    assert r._signs == [1, 1, 1] and r.free_loops == 0
    assert set(r._passes[0]) <= set(d._passes[0])
    assert r.canonical_key() == _closure(2, (1, 1, 1)).canonical_key()
    assert homfly(r) == homfly(d)


def test_reduce_removes_a_chain_of_kinks():
    # Only the outer letters are kinks at first; each removal makes the
    # next crossing one, until the unknot is a free loop.
    d = _closure(4, (1, -2, 3))
    succ = d._passes[1]
    assert [x for x in range(3) if succ[2 * x] == 2 * x + 1 or succ[2 * x + 1] == 2 * x] == [0, 2]
    assert _cancel_bigons(d) == d
    assert _reduce(d) == PDDiagram((), 1)


def test_reduce_cancels_the_bigon_a_kink_hid():
    # sigma_1 is a kink, and once it is gone sigma_2^-1 sigma_2 is a
    # cancelling bigon: the negative Hopf link sigma_3^-2 and a split
    # unknot are left.
    d = _closure(4, (-3, -3, -2, 1, 2))
    assert _cancel_bigons(d) == d
    r = _reduce(d)
    assert r._signs == [-1, -1] and r.free_loops == 1
    assert r.canonical_key() == _closure(2, (-1, -1)).canonical_key().replace("L0", "L1")
    assert homfly(r) == homfly(d) == homfly(_closure(2, (-1, -1))) * DELTA


def test_reduce_turns_a_split_kinked_circle_into_a_loop():
    # Strands 3 and 4 close into a 1-crossing circle beside the trefoil.
    d = _closure(4, (1, 1, 1, 3))
    r = _reduce(d)
    assert r._signs == [1, 1, 1] and r.free_loops == 1
    assert r.canonical_key() == _closure(3, (1, 1, 1)).canonical_key()
    assert homfly(r) == homfly(d)


@pytest.mark.parametrize("sign", ["2", "0"])
def test_bad_crossing_sign_is_a_parse_error(sign):
    with pytest.raises(ParseError, match="bad diagram line"):
        PDDiagram.parse(f"X 1 2 2 1 {sign}")


def test_pd_text_round_trip():
    d = trefoil_diagram()
    assert PDDiagram.parse(d.to_text()) == d
    d2 = PDDiagram((), 2)
    assert PDDiagram.parse(d2.to_text()) == d2
    with pytest.raises(ParseError):
        PDDiagram.parse("X 1 2 3")
    with pytest.raises(ParseError):
        PDDiagram.parse("X 1 2 3 4 +1\n")  # arc seen once
    # Integers are ASCII decimal with an optional sign: not "١", not "1_0".
    assert PDDiagram.parse("X +1 2 2 1 +1") == PDDiagram.parse("X 1 2 2 1 1")
    for bad in ("X ١ 2 2 1 +1", "X 1 2 2 1_0 +1", "X 1 2 2 1 +١"):
        with pytest.raises(ParseError, match="bad diagram line"):
            PDDiagram.parse(bad)


def test_diagram_validation():
    with pytest.raises(ValueError):
        PDDiagram((Crossing((1, 2, 3, 4), 1),))
    with pytest.raises(ValueError):
        Crossing((1, 2, 3, 4), 2)


# Each malformed diagram breaks two flow rules at once, since every
# crossing has two in-slots and two out-slots.
MALFORMED = {
    "arc 1 entered twice": "X 1 1 1 2 +1",
    "arc 1 left twice": "X 1 2 1 1 +1",
    "arc 3 entered but never left": "X 1 2 4 1 +1\nX 3 2 4 4 -1",
    "arcs 3 and 4 left but never entered": "X 1 2 3 4 +1",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_diagrams_refused(text):
    crossings = tuple(
        Crossing(tuple(map(int, line.split()[1:5])), int(line.split()[5]))
        for line in text.splitlines()
    )
    with pytest.raises(ValueError):
        PDDiagram(crossings)
    with pytest.raises(ParseError):
        PDDiagram.parse(text)


def test_negative_free_loops_refused():
    # Diagram text counts loops by lines, so only the constructor can
    # be handed a negative count.
    with pytest.raises(ValueError, match="negative"):
        PDDiagram((), -1)


@pytest.mark.parametrize("text", ["X 1 2 2 1 +1", ""])
def test_kink_and_empty_diagram_accepted(text):
    d = PDDiagram.parse(text)
    assert d.components() == 1 - (not text)
    assert d == PDDiagram(d.crossings, d.free_loops)


def test_skein_request_reads_records_once_at_its_root(monkeypatch):
    # Every diagram below the root is spliced from its parent's pass
    # table: records become passes once, at a diagram root and never for a
    # braid, and no node writes records back.
    word = random_braid(4, 12, 5)
    text = closure_to_diagram(word).to_text()
    read, written = [], []
    check, write = PDDiagram.__post_init__, vars(PDDiagram)["crossings"].func

    def reading(self):
        read.append(self)
        check(self)

    def writing(self):
        written.append(self)
        return write(self)

    monkeypatch.setattr(PDDiagram, "__post_init__", reading)
    monkeypatch.setattr(vars(PDDiagram)["crossings"], "func", writing)
    _, stats = homfly_with_stats(word)
    assert read == [] and stats.nodes > 10
    _, stats = homfly_with_stats(PDDiagram.parse(text))
    assert len(read) == 1 and stats.nodes > 10
    assert written == []


def test_parse_gauss_trefoil():
    code = parse_gauss(TREFOIL_CODE)
    assert len(code.entries) == 6
    assert code.to_text() == TREFOIL_CODE
    assert parse_gauss("") == GaussCode(())


def test_parse_gauss_errors():
    with pytest.raises(ParseError):
        parse_gauss("O1+O1+")
    with pytest.raises(ParseError):
        parse_gauss("O1+U1-")
    with pytest.raises(ParseError):
        parse_gauss("O1+U1+O2+")
    with pytest.raises(ParseError):
        parse_gauss("Q1+")
    # Labels are ASCII decimal: "١" is Arabic-Indic one.
    assert parse_gauss("O1+U1+") == GaussCode((("O", 1, 1), ("U", 1, 1)))
    for bad in ("O١+U١+", "O1+U١+"):
        with pytest.raises(ParseError):
            parse_gauss(bad)


def test_realizable_trefoil():
    code = parse_gauss(TREFOIL_CODE)
    vertices, edges, faces, chi = euler_characteristic(code)
    assert (vertices, edges, faces, chi) == (3, 6, 5, 2)
    assert realizable(code)


def test_realizable_interlaced():
    code = parse_gauss(INTERLACED)
    assert euler_characteristic(code)[3] == 0
    assert not realizable(code)


def test_realizable_empty():
    assert realizable(GaussCode(()))


def test_realizable_invariance():
    code = parse_gauss(TREFOIL_CODE)
    entries = code.entries
    rng = random.Random(51)
    for _ in range(6):
        shift = rng.randrange(len(entries))
        rotated = GaussCode(entries[shift:] + entries[:shift])
        assert realizable(rotated)
        relabel = dict(zip(code.labels(), rng.sample(range(10, 99), len(code.labels()))))
        renamed = GaussCode(
            tuple((k, relabel[label], s) for k, label, s in entries)
        )
        assert realizable(renamed)
    bad = parse_gauss(INTERLACED)
    for shift in range(4):
        rotated = GaussCode(bad.entries[shift:] + bad.entries[:shift])
        assert not realizable(rotated)


def test_realizable_unsigned():
    assert realizable_unsigned(parse_unsigned_gauss("O1 U2 O3 U1 O2 U3"))
    assert not realizable_unsigned(parse_unsigned_gauss("O1 O2 U1 U2"))
    assert realizable_unsigned([])
    with pytest.raises(BudgetExceededError):
        realizable_unsigned(
            [(kind, label) for label in range(1, 402) for kind in ("O", "U")]
        )
    with pytest.raises(ParseError):
        parse_unsigned_gauss("O1 O1")


def test_gauss_from_diagram():
    assert gauss_from_diagram(PDDiagram((), 1)) == GaussCode(())
    code = gauss_from_diagram(trefoil_diagram())
    assert code.to_text() == TREFOIL_CODE
    with pytest.raises(ValueError):
        gauss_from_diagram(closure_to_diagram(BraidWord(2, (1, 1))))


def test_gauss_round_trip_realizable():
    rng = random.Random(61)
    produced = 0
    while produced < 200:
        b = random_braid(rng.randrange(2, 5), rng.randrange(1, 9), rng.randrange(10**9))
        if b.closure_components() != 1:
            continue
        produced += 1
        code = gauss_from_diagram(closure_to_diagram(b))
        assert realizable(code)


def test_diagram_from_gauss_round_trip():
    code = parse_gauss(TREFOIL_CODE)
    d = diagram_from_gauss(code)
    assert len(d.crossings) == 3
    assert d.components() == 1
    # the regenerated code is the same up to starting point and labels
    again = gauss_from_diagram(d)
    assert len(again.entries) == 6
    assert realizable(again)
    assert diagram_from_gauss(GaussCode(())) == PDDiagram((), 1)


def test_diagram_from_gauss_matches_closure_structure():
    rng = random.Random(71)
    done = 0
    while done < 40:
        b = random_braid(rng.randrange(2, 4), rng.randrange(1, 8), rng.randrange(10**9))
        if b.closure_components() != 1:
            continue
        done += 1
        d = closure_to_diagram(b)
        rebuilt = diagram_from_gauss(gauss_from_diagram(d))
        assert rebuilt.canonical_key() == d.canonical_key()
