import random

import pytest

from knotqc.braid import BraidWord, random_braid
from knotqc.diagram import (
    Crossing,
    GaussCode,
    PDDiagram,
    _first_violation,
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
from knotqc.skein import _cancel_bigons, homfly_with_stats

import oracle_traversal
from oracle_canonical import oracle_key

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
    for piece in d._pieces():
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
    assert any(len(d._pieces()) > 1 for d in corpus)
    assert any(d.free_loops and d.crossings for d in corpus)


def _rebuilt(d: PDDiagram) -> PDDiagram:
    """The same fields through the checked public constructor."""
    return PDDiagram(d.crossings, d.free_loops)


def test_derived_diagrams_pass_the_checked_constructor():
    # Closures, switches, smoothings, bigon cancellations and pieces are
    # built without validation; each must be one the checks accept.
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
            family += [reduced, *reduced._pieces(), *e._pieces()]
        for e in family:
            assert _rebuilt(e) == e
            derived += 1
        split += len(d._pieces()) + d.free_loops > 1
        multi += d.components() > 1
    assert derived > 2000
    assert split and multi and cancelled


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
            family += [_cancel_bigons(e), *e._pieces()]
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


def test_pd_text_round_trip():
    d = trefoil_diagram()
    assert PDDiagram.parse(d.to_text()) == d
    d2 = PDDiagram((), 2)
    assert PDDiagram.parse(d2.to_text()) == d2
    with pytest.raises(ParseError):
        PDDiagram.parse("X 1 2 3")
    with pytest.raises(ParseError):
        PDDiagram.parse("X 1 2 3 4 +1\n")  # arc seen once


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


def test_pass_table_is_built_once_per_diagram(monkeypatch):
    prop = vars(PDDiagram)["_passes"]
    built = []

    def counting(self, build=prop.func):
        built.append(self)
        return build(self)

    monkeypatch.setattr(prop, "func", counting)
    homfly_with_stats(closure_to_diagram(random_braid(4, 12, 5)))
    assert len(built) > 20
    assert len({id(d) for d in built}) == len(built)


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
            [(kind, label) for label in range(1, 18) for kind in ("O", "U")]
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
