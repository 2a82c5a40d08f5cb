import itertools
import random
import time

import pytest

from knotqc.braid import BraidWord, Permutation, parse_braid, random_braid
from knotqc.errors import ParseError

from helpers import split_words

FIGURE_TWO = BraidWord(3, (1, -2, 1, -2, 2, -1, 2))


def test_parse_basic():
    b = parse_braid("1 1 1")
    assert b.strands == 2 and b.letters == (1, 1, 1)
    assert parse_braid("") == BraidWord(1)
    assert parse_braid("n=3") == BraidWord(3)
    assert parse_braid("n=4 1 -2").strands == 4


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_braid("0")
    with pytest.raises(ParseError):
        parse_braid("n=2 2")
    with pytest.raises(ParseError):
        parse_braid("1 x")
    with pytest.raises(ParseError):
        parse_braid("n=0 ")


def test_integers_are_ascii_decimal():
    # int() would read "1_0" as 10 and "٣" (Arabic-Indic three) as 3.
    assert parse_braid("n=+3 +1 -2") == BraidWord(3, (1, -2))
    for bad in ("1_0", "٣", "n=٣ 1", "n=3_0 1", "1 ²"):
        with pytest.raises(ParseError):
            parse_braid(bad)


def test_text_round_trip():
    rng = random.Random(0)
    for _ in range(20):
        b = random_braid(rng.randrange(2, 6), rng.randrange(0, 10), rng.randrange(99))
        assert parse_braid(b.to_text()) == b


def test_free_reduce():
    assert BraidWord(2, (1, -1)).free_reduce() == BraidWord(2)
    assert FIGURE_TWO.free_reduce() == BraidWord(3, (1,))
    already = BraidWord(3, (1, 2, 1))
    assert already.free_reduce() == already


def test_free_reduce_idempotent_and_shrinking():
    rng = random.Random(4)
    for _ in range(50):
        b = random_braid(3, rng.randrange(0, 12), rng.randrange(10**6))
        r = b.free_reduce()
        assert len(r) <= len(b)
        assert r.free_reduce() == r


def test_pieces_cut_at_absent_and_once_used_generators():
    assert BraidWord(1).pieces() == ([], 0)
    assert BraidWord(4, (1, 2, 3)).pieces() == ([], 0)
    assert BraidWord(5, (1, 3, -1, 3)).pieces() == ([BraidWord(2, (1, 1))], 3)
    # 2 is used once: rotated to the front and dropped, it leaves
    # 1 3 -1 1 1 3, whose letters below 2 reduce to 1 1.
    assert BraidWord(4, (1, 3, 2, 1, 3, -1, 1)).pieces() == (
        [BraidWord(2, (1, 1)), BraidWord(2, (1, 1))],
        0,
    )
    assert BraidWord(6, (1, 1, 2, -1, 4, 4, 4, 2)).pieces() == (
        [BraidWord(3, (1, 1, 2, -1, 2)), BraidWord(2, (1, 1, 1))],
        2,
    )


def test_every_piece_is_reduced_and_uses_each_generator_twice():
    for word in split_words(300, 5, 9, 20):
        pieces, splits = word.pieces()
        assert splits >= 0
        for piece in pieces:
            assert piece.letters and piece == piece.free_reduce()
            uses = [sum(abs(e) == g for e in piece.letters) for g in range(1, piece.strands)]
            assert min(uses) >= 2, (word, piece)


def test_pieces_of_a_thousand_strands_are_quick():
    for word, want in (
        (BraidWord(1000, tuple(range(1, 1000))), ([], 0)),
        (BraidWord(1000), ([], 999)),
    ):
        t0 = time.perf_counter()
        assert word.pieces() == want
        assert time.perf_counter() - t0 < 1.0


def test_permutation_examples():
    assert BraidWord(3).permutation() == Permutation((1, 2, 3))
    assert BraidWord(2, (1, 1, 1)).permutation() == Permutation((2, 1))
    assert FIGURE_TWO.permutation() == Permutation((2, 1, 3))
    assert FIGURE_TWO.permutation() == FIGURE_TWO.free_reduce().permutation()


def test_permutation_homomorphism():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(2, 6)
        u = random_braid(n, rng.randrange(0, 8), rng.randrange(10**6))
        v = random_braid(n, rng.randrange(0, 8), rng.randrange(10**6))
        assert (u * v).permutation() == u.permutation().then(v.permutation())


def test_relations_map_to_permutation_identities():
    for n in range(2, 9):
        for i in range(1, n - 1):
            lhs = BraidWord(n, (i, i + 1, i)).permutation()
            rhs = BraidWord(n, (i + 1, i, i + 1)).permutation()
            assert lhs == rhs
        for i in range(1, n):
            for j in range(i + 2, n):
                for ei, ej in itertools.product((1, -1), repeat=2):
                    lhs = BraidWord(n, (ei * i, ej * j)).permutation()
                    rhs = BraidWord(n, (ej * j, ei * i)).permutation()
                    assert lhs == rhs


def test_is_pure():
    assert BraidWord(2, (1, 1)).is_pure()
    assert not BraidWord(2, (1,)).is_pure()
    rng = random.Random(2)
    for _ in range(20):
        b = random_braid(3, rng.randrange(0, 8), rng.randrange(10**6))
        assert (b * b.inverse()).is_pure()


def test_closure_components():
    assert BraidWord(2, (1, 1, 1)).closure_components() == 1
    assert BraidWord(3).closure_components() == 3
    assert FIGURE_TWO.closure_components() == 2


def test_writhe():
    assert BraidWord(2, (1, 1, 1)).writhe() == 3
    assert FIGURE_TWO.writhe() == 1
    assert BraidWord(4).writhe() == 0


def test_stabilize():
    assert BraidWord(2, (1,)).stabilize() == BraidWord(3, (1, 2))
    assert BraidWord(1).stabilize() == BraidWord(2, (1,))
    assert BraidWord(1).stabilize().closure_components() == 1


def test_markov_moves_preserve_closure_components():
    # exhaustively over short words
    for n in (2, 3):
        alphabet = [e for i in range(1, n) for e in (i, -i)]
        for length in range(4):
            for letters in itertools.product(alphabet, repeat=length):
                b = BraidWord(n, letters)
                assert b.stabilize().closure_components() == b.closure_components()
    rng = random.Random(8)
    for _ in range(30):
        b = random_braid(3, rng.randrange(0, 8), rng.randrange(10**6))
        g = random_braid(3, rng.randrange(0, 5), rng.randrange(10**6))
        assert b.conjugate(g).closure_components() == b.closure_components()


def test_conjugate():
    b = BraidWord(3, (1, 2))
    assert b.conjugate(BraidWord(3)) == b
    with pytest.raises(ValueError):
        b.conjugate(BraidWord(4))
    rng = random.Random(3)
    for _ in range(20):
        g = random_braid(3, 4, rng.randrange(10**6))
        conj = b.conjugate(g)
        # conjugate permutations share a cycle structure
        assert conj.permutation().cycle_count() == b.permutation().cycle_count()


def test_cable():
    b = BraidWord(2, (1,))
    assert b.cable(1) == b
    assert BraidWord(3).cable(4) == BraidWord(12)
    c = b.cable(2)
    assert c.strands == 4
    assert len(c.letters) == 4
    assert c.permutation() == Permutation((3, 4, 1, 2))
    with pytest.raises(ValueError):
        b.cable(0)


def test_cable_writhe_scaling():
    rng = random.Random(12)
    for _ in range(15):
        b = random_braid(3, rng.randrange(0, 8), rng.randrange(10**6))
        for r in (2, 3):
            assert b.cable(r).writhe() == r * r * b.writhe()


def test_cable_block_permutation():
    rng = random.Random(13)
    for _ in range(10):
        b = random_braid(3, rng.randrange(0, 6), rng.randrange(10**6))
        r = rng.randrange(2, 4)
        fine = b.cable(r).permutation()
        coarse = b.permutation()
        for strand in range(1, b.strands + 1):
            for off in range(r):
                assert fine.of((strand - 1) * r + off + 1) == (
                    coarse.of(strand) - 1
                ) * r + off + 1


def test_cable_closure_components_scale():
    rng = random.Random(14)
    for _ in range(15):
        b = random_braid(3, rng.randrange(0, 7), rng.randrange(10**6))
        for r in (2, 3):
            assert b.cable(r).closure_components() == r * b.closure_components()


def test_random_braid():
    assert random_braid(3, 20, 5) == random_braid(3, 20, 5)
    assert random_braid(4, 0, 1) == BraidWord(4)
    big = random_braid(5, 10**4, 9)
    assert all(1 <= abs(e) <= 4 and e != 0 for e in big.letters)
    counted = {e for e in big.letters}
    assert counted == {e for i in range(1, 5) for e in (i, -i)}
    with pytest.raises(ValueError):
        random_braid(1, 5, 0)
