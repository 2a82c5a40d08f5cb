"""The census behind `knotqc table`: braid closures grouped by Jones polynomial.

A word that is not freely reduced has the key of its free reduction, a shorter
word met at an earlier length, so only reduced words count. A knot's strand
order is an n-cycle, of sign (-1)^(n-1), and a word of length L has sign
(-1)^L, so only lengths of the parity of n - 1 can hold a knot
(`_knot_lengths`); the word budget counts those lengths alone. Rotation keeps
the closure, so each rotation class is met once, as the first of its words in
lexicographic order (`_knot_classes`); keys have their word's length, so they
never recur across lengths. The Hecke engine (`hecke.homfly`, with one
trace dict per request, and `budget.max_nodes` bounding the terms each call
writes) runs once per orbit of a class under three symmetries that keep
length, free reduction and the knot test: reversal and the flip i -> n - i
close to the link turned by pi about the plane's horizontal and vertical
axes (reversal also reverses the knot, which HOMFLY does not see), and the
mirror, every letter negated, closes to the mirror image, whose HOMFLY is
P(-a^-1, z). An evaluated class is the first of its orbit, so the orbit's
other classes, at most seven, are met later and take their value from
`pending`; every class still joins its group in order. Each distinct HOMFLY
value of a request is specialized to Jones once.
"""

from __future__ import annotations

import functools
import itertools

from . import hecke, skein
from .braid import BraidWord, _cycle_count
from .errors import BudgetExceededError, ParseError
from .laurent import specialize_jones

_TABLE_MAX_STRANDS = 4
_TABLE_MAX_LEN = 10
_TABLE_MAX_WORDS = 200_000


def _knot_lengths(n: int, maxlen: int) -> range:
    """The word lengths up to maxlen that can hold a knot on n strands."""
    return range((n - 1) % 2, maxlen + 1, 2)


def _table_word_count(n: int, maxlen: int) -> int:
    """Reduced words of the lengths `_knot_lengths` visits: 2(n-1) first letters, 2n-3 next."""
    return sum(2 * (n - 1) * (2 * n - 3) ** (k - 1) if k else 1 for k in _knot_lengths(n, maxlen))


@functools.cache  # built on first use, not at import
def _strand_steps(n: int) -> tuple[list[list[int]], list[bool]]:
    """The strand orders of n strands, numbered with the identity as 0:
    steps[s][i] is the order that order s goes to under generator i + 1,
    which swaps strands i and i + 1 whichever its sign, and knots[s] says
    whether order s is one n-cycle."""
    orders = list(itertools.permutations(range(n)))
    number = {order: s for s, order in enumerate(orders)}
    steps = [[number[o[:i] + (o[i + 1], o[i]) + o[i + 2:]] for i in range(n - 1)] for o in orders]
    return steps, [_cycle_count(list(o)) == 1 for o in orders]


def _knot_classes(n: int, length: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(first word, key) for each rotation class of the freely reduced words
    of one length on n strands whose closure is a knot, ordered by first
    word, lexicographic in the alphabet 1, -1, 2, -2, ...

    The key is the class's least rotation (`_rotation_key`). Classes are
    generated once each, as necklaces in that alphabet, by the recursion
    of Fredricksen, Kessler and Maiorana (Ruskey, Savage and Wang, J.
    Algorithms 1992): a[1..t] is a prefix of a necklace whose least
    period is p, and letter j extends it when j >= a[t+1-p]. A class
    holds a freely reduced word only when its cyclic word has at most one
    cancelling pair, so a prefix with two is not extended. The first word
    is then the necklace itself, or with one pair the one rotation that
    splits it."""
    letters = [e for i in range(1, n) for e in (i, -i)]  # j and j ^ 1 cancel
    steps, knots = _strand_steps(n)
    a = [0] * (length + 1)
    found = []

    def extend(t, p, order, cut):
        # a[1..t-1] is set; cut is the t of its one cancelling pair's second
        # letter, or 0
        row = steps[order]
        for j in range(a[t - p], len(letters)):
            cancels = t > 1 and a[t - 1] ^ 1 == j
            if cancels and cut:
                continue
            a[t] = j
            q = p if j == a[t - p] else t
            if t < length:
                extend(t + 1, q, row[j >> 1], t if cancels else cut)
            elif not length % q and knots[row[j >> 1]]:
                finish(t if cancels else cut)

    def finish(cut):
        if cut and a[length] ^ 1 == a[1]:
            return
        s = cut or 1
        found.append(a[s:] + a[1:s])

    if length:
        extend(1, 1, 0, 0)
    found.sort()
    words = [tuple(map(letters.__getitem__, word)) for word in found]
    return [(word, _rotation_key(word)) for word in words]


def _rotation_key(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The least cyclic shift of a word, found among the shifts that start
    at its least letter."""
    low = min(letters)
    return min(letters[k:] + letters[:k] for k, e in enumerate(letters) if e == low)


def _symmetric_words(n: int, letters: tuple[int, ...]):
    """(word, mirrored) for the eight images of a word on n strands under
    reversal, the flip +-i -> +-(n - i) and the mirror, which negates every
    letter; `mirrored` says whether the closure is the mirror image."""
    flip = tuple(n - e if e > 0 else -n - e for e in letters)
    for word in (letters, flip):
        for image in (word, word[::-1]):
            yield image, False
            yield tuple(-e for e in image), True


def census(n: int, maxlen: int, budget: skein.SkeinBudget | None = None) -> list[tuple]:
    """(Jones polynomial, size, first BraidWord) of each Jones group of the knot
    closures of reduced words on n strands up to length maxlen, sorted by the
    first word's text length, then the polynomial's text."""
    if n < 2:
        raise ParseError("table needs at least 2 strands")
    if maxlen < 0:
        raise ParseError("table maxlen cannot be negative")
    if n > _TABLE_MAX_STRANDS or maxlen > _TABLE_MAX_LEN:
        raise BudgetExceededError(
            f"table guard: strands <= {_TABLE_MAX_STRANDS}, maxlen <= {_TABLE_MAX_LEN}"
        )
    count = _table_word_count(n, maxlen)
    if count > _TABLE_MAX_WORDS:
        raise BudgetExceededError(
            f"table of {n} strands up to length {maxlen} has {count} reduced words, "
            f"budget allows {_TABLE_MAX_WORDS}"
        )
    trace: dict = {}
    group_of: dict = {}  # HOMFLY value -> its group
    groups: dict[str, list] = {}  # Jones text -> [Jones, size, rep]
    for length in _knot_lengths(n, maxlen):
        pending: dict = {}
        for letters, key in _knot_classes(n, length):
            value = pending.pop(key, None)
            if value is None:
                value = hecke.homfly(BraidWord(n, letters), budget, trace)
                mirror = value.mirror()
                for image, mirrored in _symmetric_words(n, letters):
                    pending[_rotation_key(image)] = mirror if mirrored else value
            group = group_of.get(value)
            if group is None:
                poly = specialize_jones(value)
                group = group_of[value] = groups.setdefault(
                    poly.to_text(), [poly, 0, BraidWord(n, letters)]
                )
            group[1] += 1
    order = sorted(groups, key=lambda text: (len(groups[text][2].to_text()), text))
    return [tuple(groups[text]) for text in order]
