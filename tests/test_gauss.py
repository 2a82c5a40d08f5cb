"""Gauss codes against the reference in oracle_gauss.

The library builds one diagram per signed code and counts its faces,
tokenizes both kinds of text with one pattern, and decides unsigned
realizability with Rosenstiehl's criterion; the oracle walks its own
dart rotation, has a pattern per parser and tries every sign pattern.
"""

import random
import time

import pytest

from knotqc.braid import random_braid
from knotqc.diagram import (
    OVER,
    UNDER,
    GaussCode,
    closure_to_diagram,
    euler_characteristic,
    gauss_from_diagram,
    parse_gauss,
    parse_unsigned_gauss,
    realizable_unsigned,
)
from knotqc.errors import ParseError

import oracle_gauss

# The oracle tries up to 2^k sign patterns; past this many labels a test
# checks answers by certificate instead (see test_braid_closure_words).
ORACLE_LABELS = 12


def _words(n):
    """Every double-occurrence word on labels 1..n, labels first met in
    increasing order, each first occurrence over."""
    word = [None] * (2 * n)

    def fill(label):
        if label > n:
            yield list(word)
            return
        first = word.index(None)
        word[first] = (OVER, label)
        for second in range(first + 1, 2 * n):
            if word[second] is None:
                word[second] = (UNDER, label)
                yield from fill(label + 1)
                word[second] = None
        word[first] = None

    yield from fill(1)


def _random_word(rng, n):
    """A double-occurrence word on n labels with random O/U per label."""
    labels = [label for label in range(1, n + 1) for _ in range(2)]
    rng.shuffle(labels)
    over_first = {label: rng.random() < 0.5 for label in range(1, n + 1)}
    seen = set()
    word = []
    for label in labels:
        first = label not in seen
        seen.add(label)
        word.append((OVER if first == over_first[label] else UNDER, label))
    return word


def _near_miss(rng, word):
    """The word with one seeded pair of adjacent entries of distinct labels
    swapped; it toggles whether the two labels are interlaced."""
    spots = [i for i in range(len(word) - 1) if word[i][1] != word[i + 1][1]]
    i = rng.choice(spots)
    return word[:i] + [word[i + 1], word[i]] + word[i + 2 :]


def _interlace_counts(word):
    """For each label, the labels met exactly once between its occurrences."""
    where = {}
    for j, (_, label) in enumerate(word):
        where.setdefault(label, []).append(j)
    return {
        a: sum((i < where[b][0] < j) != (i < where[b][1] < j) for b in where)
        for a, (i, j) in where.items()
    }


def test_unsigned_matches_oracle_on_every_small_word():
    total = realizable = 0
    wrong = []
    for n in range(7):
        for word in _words(n):
            total += 1
            expected = oracle_gauss.realizable_unsigned(word)
            realizable += expected
            if realizable_unsigned(word) != expected:
                wrong.append(word)
    assert (total, realizable) == (11_465, 739)
    assert not wrong, f"{len(wrong)} disagreements, first {wrong[0]}"


def test_unsigned_matches_oracle_on_seeded_words():
    rng = random.Random(9001)
    for n in range(7, ORACLE_LABELS + 1):
        for _ in range(2):
            word = _random_word(rng, n)
            for w in (word, _near_miss(rng, word)):
                assert realizable_unsigned(w) == oracle_gauss.realizable_unsigned(w), w


def test_braid_closure_words():
    """Closure words are realizable; an adjacent swap gives a near miss.

    Up to ORACLE_LABELS crossings both answers are the oracle's. Past it
    the oracle's 2^k search is too slow, so the closure word is certified
    by the oracle's Euler characteristic of its own signed code, and the
    near miss by Gauss's parity condition: the swapped labels are now
    interlaced with an odd number of labels.
    """
    rng = random.Random(4242)
    sizes = {}
    while sum(sizes.values()) < 60:
        b = random_braid(rng.randrange(2, 6), rng.randrange(7, 17), rng.randrange(10**9))
        if b.closure_components() != 1 or sizes.get(len(b.letters), 0) >= 6:
            continue
        sizes[len(b.letters)] = sizes.get(len(b.letters), 0) + 1
        code = gauss_from_diagram(closure_to_diagram(b))
        word = [(kind, label) for kind, label, _ in code.entries]
        miss = _near_miss(rng, word)
        assert realizable_unsigned(word)
        assert not realizable_unsigned(miss)
        if len(b.letters) <= ORACLE_LABELS:
            assert oracle_gauss.realizable_unsigned(word)
            assert not oracle_gauss.realizable_unsigned(miss)
        else:
            assert oracle_gauss.realizable(code)
            assert any(count % 2 for count in _interlace_counts(miss).values())
    assert max(sizes) == 16


def _random_code(rng, n):
    word = _random_word(rng, n)
    if n and rng.random() < 0.3:
        # a kink: one label's two passes next to each other
        label = n + 1
        j = rng.randrange(len(word) + 1)
        word[j:j] = [(OVER, label), (UNDER, label)][:: rng.choice((1, -1))]
    signs = {label: rng.choice((1, -1)) for _, label in word}
    return GaussCode(tuple((kind, label, signs[label]) for kind, label in word))


def test_euler_characteristic_matches_oracle():
    rng = random.Random(7331)
    chis = set()
    for _ in range(2_500):
        code = _random_code(rng, rng.randrange(0, 10))
        got = euler_characteristic(code)
        assert got == oracle_gauss.euler_characteristic(code), code
        chis.add(got[3])
    # realizable and unrealizable codes were both met
    assert 2 in chis and min(chis) < 0


def _fuzz_text(rng):
    if rng.random() < 0.5:
        code = _random_code(rng, rng.randrange(0, 5))
        tokens = [
            f"{kind.lower() if rng.random() < 0.2 else kind}"
            f"{' ' * rng.randrange(2)}{label}"
            f"{' ' * rng.randrange(2)}{'+' if sign > 0 else '-'}"
            for kind, label, sign in code.entries
        ]
        if rng.random() < 0.5:
            tokens = [t[:-1] for t in tokens]
        if tokens and rng.random() < 0.5:
            j = rng.randrange(len(tokens))
            flipped = tokens[j] + rng.choice("+-")
            tokens[j] = tokens[j][:-1] if tokens[j][-1] in "+-" else flipped
        return rng.choice(("", " ", "\t")).join(tokens) + rng.choice(("", " ", "\n", "x"))
    return "".join(rng.choice("OUou0123+- \tx") for _ in range(rng.randrange(0, 16)))


def _outcome(parser, text):
    try:
        return "ok", parser(text)
    except ParseError as exc:
        return "error", str(exc)


def test_parsers_match_oracle_on_fuzz():
    rng = random.Random(5150)
    accepted = {"signed": 0, "unsigned": 0}
    for _ in range(5_000):
        text = _fuzz_text(rng)
        got = _outcome(parse_gauss, text)
        assert got == _outcome(oracle_gauss.parse_gauss, text), text
        accepted["signed"] += got[0] == "ok"
        got = _outcome(parse_unsigned_gauss, text)
        expected = _outcome(oracle_gauss.parse_unsigned_gauss, text)
        if expected[0] == "error" and not expected[1].startswith("bad unsigned"):
            # label errors are worded by GaussCode's check
            assert got[0] == "error", text
        else:
            assert got == expected, text
        accepted["unsigned"] += got[0] == "ok"
        if got[0] == "ok":
            assert realizable_unsigned(got[1]) == oracle_gauss.realizable_unsigned(got[1])
    assert min(accepted.values()) > 500


def test_malformed_unsigned_input_is_a_value_error():
    for bad in ([(OVER, 1), (OVER, 1)], [(OVER, 1)], [("o", 1), (UNDER, 1)]):
        for decide in (realizable_unsigned, oracle_gauss.realizable_unsigned):
            with pytest.raises(ValueError):
                decide(bad)


def test_interlaced_word_at_the_guard_is_fast():
    text = " ".join(f"O{k} O{k + 1} U{k} U{k + 1}" for k in range(1, 17, 2))
    word = parse_unsigned_gauss(text)
    assert len({label for _, label in word}) == 16
    t0 = time.perf_counter()
    assert realizable_unsigned(word) is False
    assert time.perf_counter() - t0 < 0.1
