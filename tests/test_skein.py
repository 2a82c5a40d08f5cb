import itertools
import random
import re
import time

import pytest

from knotqc.braid import BraidWord, random_braid
from knotqc.diagram import (
    PDDiagram,
    _cancel_bigons,
    _reduce,
    closure_to_diagram,
    diagram_from_gauss,
    gauss_from_diagram,
    parse_gauss,
)
from knotqc.errors import BudgetExceededError
from knotqc.laurent import LaurentPoly1, LaurentPoly2
from knotqc import skein
from knotqc.skein import (
    DELTA,
    SkeinBudget,
    SkeinStats,
    homfly,
    homfly_braid,
    homfly_coeff,
    homfly_with_stats,
    jones,
    jones_at,
)

from helpers import (
    far_commutativity_variants,
    insert_cancelling_pair,
    yang_baxter_variants,
)
import oracle_skein
from oracle_canonical import pieces
from oracle_skein import HOPF_POSITIVE, TREFOIL, UNKNOT, UNLINK2
from test_diagram import BIGON_TRAP

UNKNOT_WORD = BraidWord(1)
UNLINK2_WORD = BraidWord(2)
HOPF_WORD = BraidWord(2, (1, 1))
TREFOIL_WORD = BraidWord(2, (1, 1, 1))
FIGURE_TWO = BraidWord(3, (1, -2, 1, -2, 2, -1, 2))
FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))


def test_golden_values_match_oracle_and_literals():
    assert homfly_braid(UNKNOT_WORD) == UNKNOT == LaurentPoly2.one()
    assert homfly_braid(UNLINK2_WORD) == UNLINK2 == DELTA
    assert (
        homfly_braid(HOPF_WORD)
        == HOPF_POSITIVE
        == LaurentPoly2({(-1, -1): 1, (-3, -1): -1, (-1, 1): 1})
    )
    assert (
        homfly_braid(TREFOIL_WORD)
        == TREFOIL
        == LaurentPoly2({(-4, 0): -1, (-2, 0): 2, (-2, 2): 1})
    )


def test_torus_family_matches_oracle():
    from oracle_skein import torus_closure_value

    for k in range(-6, 7):
        word = BraidWord(2, (1 if k > 0 else -1,) * abs(k))
        assert homfly_braid(word) == torus_closure_value(k)


def test_homfly_braid_free_reduces():
    assert homfly_braid(FIGURE_TWO) == DELTA


def test_jones_values():
    assert jones(UNKNOT_WORD) == LaurentPoly1.one()
    assert jones(TREFOIL_WORD) == LaurentPoly1({8: -1, 6: 1, 2: 1})
    assert jones(UNLINK2_WORD) == LaurentPoly1({1: -1, -1: -1})
    assert jones(FIGURE_EIGHT) == LaurentPoly1({4: 1, 2: -1, 0: 1, -2: -1, -4: 1})


def test_jones_accepts_diagrams():
    assert jones(closure_to_diagram(TREFOIL_WORD)) == jones(TREFOIL_WORD)


def test_engine_entry_takes_a_braid_or_its_closure():
    # A braid and the closure of its free reduction give one value and
    # the same node and memo-hit counts.
    for word in (FIGURE_TWO, FIGURE_EIGHT, random_braid(4, 12, 3)):
        assert homfly_with_stats(word) == homfly_with_stats(
            closure_to_diagram(word.free_reduce())
        )


def test_free_reduction_changes_nothing_the_skein_computes():
    # _reduce cancels a freely cancelling pair as a bigon, so the closure
    # of a braid and of its free reduction give one value, node count and
    # memo-hit count: the engine frees braids only to size them early.
    rng = random.Random(33)
    unreduced = 0
    for _ in range(300):
        n = rng.randrange(2, 6)
        gens = rng.sample(range(1, n), rng.randrange(1, n))
        letters = tuple(
            rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 17))
        )
        b = BraidWord(n, letters)
        reduced = b.free_reduce()
        unreduced += reduced != b
        assert homfly_with_stats(closure_to_diagram(b)) == homfly_with_stats(
            closure_to_diagram(reduced)
        )
    assert unreduced > 150


@pytest.mark.parametrize("obj", ["1 1 1", (1, 1, 1), None, TREFOIL])
def test_engine_entry_refuses_other_inputs(obj):
    for call in (homfly_with_stats, homfly, jones, lambda o: jones_at(o, 1j),
                 lambda o: homfly_coeff(o, 0)):
        with pytest.raises(TypeError, match="expected a braid word or diagram"):
            call(obj)


def test_engine_entry_refuses_a_diagram_without_components():
    # No crossings and no free loops: the unknot normalization has nothing
    # to divide, so the entry refuses before any arithmetic.
    for call in (homfly_with_stats, homfly, jones):
        with pytest.raises(ValueError, match="no components"):
            call(PDDiagram.parse(""))


def test_jones_five_crossing_knots_match_tables():
    # closures of sigma_1^5 and of (1,-2,-1,-1,-1,-2): the two knots with
    # five crossings; published one-variable values (t = s^2)
    cinq = BraidWord(2, (1, 1, 1, 1, 1))
    assert jones(cinq) == LaurentPoly1({14: -1, 12: 1, 10: -1, 8: 1, 4: 1})
    twist = BraidWord(3, (1, -2, -1, -1, -1, -2))
    assert jones(twist) == LaurentPoly1(
        {-2: 1, -4: -1, -6: 2, -8: -1, -10: 1, -12: -1}
    )


def test_jones_at_one_is_unit_on_knots():
    # exhaustive over all 2-strand words of length <= 7
    for length in range(8):
        for letters in itertools.product((1, -1), repeat=length):
            b = BraidWord(2, letters)
            if b.closure_components() != 1:
                continue
            assert abs(jones_at(b, 1) - 1) < 1e-9
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        b = random_braid(3, rng.randrange(0, 8), rng.randrange(10**9))
        if b.closure_components() != 1:
            continue
        checked += 1
        assert abs(jones_at(b, 1) - 1) < 1e-9


def test_jones_at_one_on_links():
    rng = random.Random(6)
    for _ in range(40):
        b = random_braid(rng.randrange(2, 5), rng.randrange(0, 8), rng.randrange(10**9))
        m = b.closure_components()
        assert abs(jones_at(b, 1) - (-2) ** (m - 1)) < 1e-9


def test_jones_at_trefoil_root_of_unity():
    import cmath, math

    t = cmath.exp(2j * math.pi / 5)
    s = cmath.sqrt(t)
    expected = -(s**8) + s**6 + s**2
    assert abs(jones_at(TREFOIL_WORD, t) - expected) < 1e-12
    with pytest.raises(ValueError):
        jones_at(TREFOIL_WORD, 0)


def test_homfly_coeff():
    assert homfly_coeff(UNKNOT_WORD, 0) == LaurentPoly1.one()
    assert homfly_coeff(TREFOIL_WORD, 2) == LaurentPoly1({-2: 1})
    assert homfly_coeff(TREFOIL_WORD, 1) == LaurentPoly1.zero()


def test_z_exponent_parity():
    rng = random.Random(7)
    for _ in range(40):
        b = random_braid(rng.randrange(2, 5), rng.randrange(0, 8), rng.randrange(10**9))
        m = b.closure_components()
        p = homfly_braid(b)
        for j in p.z_exponents():
            assert (j - (m - 1)) % 2 == 0


def test_markov_invariance():
    rng = random.Random(11)
    memo = {}
    for _ in range(60):
        n = rng.randrange(2, 5)
        b = random_braid(n, rng.randrange(0, 9), rng.randrange(10**9))
        base = homfly_braid(b, memo=memo)
        assert homfly_braid(b.stabilize(), memo=memo) == base
        g = random_braid(n, rng.randrange(1, 5), rng.randrange(10**9))
        assert homfly_braid(b.conjugate(g), memo=memo) == base


def test_relation_invariance():
    rng = random.Random(13)
    memo = {}
    for _ in range(40):
        n = rng.randrange(2, 5)
        b = random_braid(n, rng.randrange(0, 8), rng.randrange(10**9))
        base = homfly_braid(b, memo=memo)
        assert homfly_braid(insert_cancelling_pair(b, rng), memo=memo) == base
        yb = yang_baxter_variants(b, rng)
        if yb:
            assert homfly_braid(yb[0], memo=memo) == homfly_braid(yb[1], memo=memo)
        fc = far_commutativity_variants(b, rng)
        if fc:
            assert homfly_braid(fc[0], memo=memo) == homfly_braid(fc[1], memo=memo)


def test_skein_identity_at_random_crossings():
    rng = random.Random(17)
    a_pos = LaurentPoly2.monomial(1, 1, 0)
    a_neg = LaurentPoly2.monomial(1, -1, 0)
    z = LaurentPoly2.monomial(1, 0, 1)
    memo = {}
    for _ in range(50):
        b = random_braid(rng.randrange(2, 4), rng.randrange(1, 8), rng.randrange(10**9))
        d = closure_to_diagram(b)
        k = rng.randrange(len(d.crossings))
        if d.crossings[k].sign > 0:
            plus, minus = d, d.switch_crossing(k)
        else:
            plus, minus = d.switch_crossing(k), d
        smooth = plus.smooth_crossing(k)
        lhs = a_pos * homfly(plus, memo=memo) - a_neg * homfly(minus, memo=memo)
        rhs = z * homfly(smooth, memo=memo)
        assert lhs == rhs


def test_mirror_property():
    rng = random.Random(19)
    for _ in range(25):
        b = random_braid(rng.randrange(2, 4), rng.randrange(0, 8), rng.randrange(10**9))
        mirror = BraidWord(b.strands, tuple(-e for e in b.letters))
        p = homfly_braid(b)
        q = homfly_braid(mirror)
        # (a, z) -> (-a^-1, z)
        mapped = LaurentPoly2(
            {(-i, j): c * (-1) ** i for (i, j), c in p.terms.items()}
        )
        assert q == mapped


def test_braid_symmetries_give_the_table_its_values():
    # The identities `knotqc table` reads a class's value from: the
    # reversed word and the flipped word (+-i -> +-(n - i)) close to the
    # same link up to reversing every component, and the negated word to
    # the mirror image, P(-a^-1, z), whose Jones is V(s^-1).
    rng = random.Random(21)
    split = multi = 0
    for _ in range(240):
        n = rng.randrange(2, 6)
        gens = rng.sample(range(1, n), rng.randrange(1, n))
        letters = tuple(
            rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 13))
        )
        p = homfly_braid(BraidWord(n, letters))
        flipped = tuple(n - e if e > 0 else -n - e for e in letters)
        negated = BraidWord(n, tuple(-e for e in letters))
        assert homfly_braid(BraidWord(n, letters[::-1])) == p
        assert homfly_braid(BraidWord(n, flipped)) == p
        assert homfly_braid(negated) == p.mirror()
        v = jones(BraidWord(n, letters))
        assert jones(negated) == LaurentPoly1({-e: c for e, c in v.terms.items()})
        d = closure_to_diagram(BraidWord(n, letters).free_reduce())
        split += len(pieces(d)) + d.free_loops > 1
        multi += d.components() > 1
    assert split > 20 and multi > 20


def test_memo_and_plain_agree():
    rng = random.Random(23)
    for _ in range(15):
        b = random_braid(rng.randrange(2, 4), rng.randrange(0, 8), rng.randrange(10**9))
        d = closure_to_diagram(b)
        memo_poly, memo_stats = homfly_with_stats(d)
        plain_poly, plain_stats = homfly_with_stats(d, SkeinBudget(memo_enabled=False))
        assert memo_poly == plain_poly
        assert memo_stats.nodes <= plain_stats.nodes


def test_budget_errors():
    with pytest.raises(BudgetExceededError):
        homfly_braid(TREFOIL_WORD, SkeinBudget(max_crossings=2))
    with pytest.raises(BudgetExceededError):
        homfly_braid(BraidWord(2, (1,) * 6), SkeinBudget(max_nodes=2))
    with pytest.raises(ValueError):
        SkeinBudget(max_crossings=0)


def test_free_loops_count_against_crossing_budget():
    # Three crossings on strands 1-2 plus one free loop per untouched strand.
    budget = SkeinBudget(max_crossings=5)
    assert homfly_braid(BraidWord(4, (1, 1, 1)), budget) == TREFOIL * DELTA**2
    with pytest.raises(BudgetExceededError, match="3 crossings and 3 free loops"):
        homfly_braid(BraidWord(5, (1, 1, 1)), budget)
    # A diagram is sized the same way, by its crossings and free loops.
    with pytest.raises(BudgetExceededError, match="3 crossings and 3 free loops"):
        homfly(closure_to_diagram(BraidWord(5, (1, 1, 1))), budget)


def _kinks(count: int) -> str:
    """The unknot with ``count`` kinks, as a signed Gauss code."""
    return "".join(f"O{i}+U{i}+" for i in range(1, count + 1))


def test_diagram_is_sized_after_its_kinks_and_bigons_are_removed():
    # 70 crossings are over the default 64, but _reduce leaves one free loop.
    assert homfly(diagram_from_gauss(parse_gauss(_kinks(70)))) == UNKNOT
    # The trefoil closure with 70 kinks appended reduces to its 3 crossings.
    trefoil = gauss_from_diagram(closure_to_diagram(BraidWord(2, (1, 1, 1)))).to_text()
    kinked = trefoil + "".join(f"O{i}+U{i}+" for i in range(4, 74))
    assert homfly(diagram_from_gauss(parse_gauss(kinked))) == TREFOIL


def test_raw_diagram_cap_bounds_reduction_time():
    cap = skein.MAX_RAW_CROSSINGS
    # At the cap: a torus knot of 501 crossings after 499 kinks, which
    # _reduce takes back to the 501 crossings, refused by the budget after.
    torus = gauss_from_diagram(closure_to_diagram(BraidWord(2, (1,) * 501))).to_text()
    shifted = re.sub(r"\d+", lambda m: str(int(m[0]) + cap - 501), torus)
    worst = diagram_from_gauss(parse_gauss(_kinks(cap - 501) + shifted))
    assert len(worst._signs) == cap
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="501 crossings and 0 free loops"):
        homfly(worst)
    assert time.perf_counter() - t0 < 2.0
    # One past the cap is refused before any reduction.
    over = diagram_from_gauss(parse_gauss(_kinks(cap + 1)))
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"{cap + 1} crossings before"):
        homfly(over)
    assert time.perf_counter() - t0 < 0.1


def test_unmemoized_node_bound_on_torus_words():
    for c in range(2, 15):
        d = closure_to_diagram(BraidWord(2, (1,) * c))
        _, stats = homfly_with_stats(d, SkeinBudget(memo_enabled=False))
        assert stats.nodes <= 2**c


def test_skein_fingerprint_is_pinned():
    # Node and memo-hit counts of the memoized recursion; a canonical key
    # that merged or split memo classes differently, or a reduction that
    # removed other kinks or bigons, would move them.
    cases = [
        (BraidWord(2, (1,) * 30), (59, 28)),
        (BraidWord(3, (1, -2) * 8), (397, 188)),
        (BraidWord(3, (1, 2) * 10), (747, 362)),
        (random_braid(5, 22, 11), (217, 98)),
    ]
    for word, expected in cases:
        _, stats = homfly_with_stats(closure_to_diagram(word.free_reduce()))
        assert (stats.nodes, stats.memo_hits) == expected


def test_post_order_loop_matches_frame_oracle():
    # The post-order loop against the frame machine it replaced, with the
    # memo on, off, and shared across braids as a table request shares it:
    # equal values, counts, and memo contents in insertion order. Words
    # run to 13 letters, so that with kinks removed the shared memo still
    # holds over a hundred diagrams.
    rng = random.Random(8)
    budget = SkeinBudget()
    shared, shared_oracle = {}, {}
    split = multi = mixed = 0
    for _ in range(220):
        n = rng.randrange(2, 6)
        gens = rng.sample(range(1, n), rng.randrange(1, n))
        letters = tuple(
            rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 14))
        )
        d = closure_to_diagram(BraidWord(n, letters).free_reduce())
        for memo, oracle_memo in (({}, {}), (None, None), (shared, shared_oracle)):
            stats, oracle_stats = SkeinStats(), SkeinStats()
            value = skein._evaluate(d, budget, memo, stats)
            assert value == oracle_skein._evaluate(d, budget, oracle_memo, oracle_stats, _reduce)
            assert stats == oracle_stats
            if memo is not None:
                assert list(memo.items()) == list(oracle_memo.items())
        split += len(pieces(d)) + d.free_loops > 1
        multi += d.components() > 1
        mixed += min(letters, default=0) < 0 < max(letters, default=0)
    assert split > 20 and multi > 20 and mixed > 20
    assert len(shared) > 100


def test_kink_removal_keeps_values_and_never_adds_nodes():
    # Against the bigon-only recursion the engine ran before kinks were
    # removed: equal values, and no more nodes, on closures of 2-6 strands,
    # their Gauss round trips and the bigon trap diagram.
    rng = random.Random(20)
    budget = SkeinBudget()
    inputs = [PDDiagram.parse(BIGON_TRAP)]
    for _ in range(480):
        n = rng.randrange(2, 7)
        gens = rng.sample(range(1, n), rng.randrange(1, n))
        letters = tuple(
            rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 17))
        )
        d = closure_to_diagram(BraidWord(n, letters))
        inputs.append(d)
        if d.components() == 1 and d._signs:
            inputs.append(diagram_from_gauss(gauss_from_diagram(d)))
    split = multi = loops = fewer = 0
    for d in inputs:
        value, stats = homfly_with_stats(d)
        oracle_stats = SkeinStats()
        assert value == oracle_skein._evaluate(d, budget, {}, oracle_stats, _cancel_bigons)
        assert stats.nodes <= oracle_stats.nodes
        fewer += stats.nodes < oracle_stats.nodes
        split += len(pieces(d)) + d.free_loops > 1
        multi += d.components() > 1
        loops += bool(d.free_loops and d._signs)
    assert len(inputs) - 481 > 60
    assert split > 100 and multi > 100 and loops > 50 and fewer > 200
