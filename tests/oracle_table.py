"""Reference table, the all-words breadth-first enumeration.

Every word of every length up to maxlen is generated, level by level in
alphabet order, and keyed by the least rotation of its free reduction;
the first word of each key whose closure is a knot joins the group of
its Jones polynomial. `knotqc table` meets only the rotation classes
of freely reduced knot words, so tests compare its output with this one
byte for byte.

`knot_classes` is the word enumeration `knotqc table` used before it
generated classes as necklaces: every freely reduced knot word in
lexicographic order, deduplicated by least rotation.
"""

from knotqc import skein
from knotqc.braid import BraidWord, _cycle_count
from knotqc.laurent import specialize_jones
from knotqc.skein import SkeinBudget


def _reduced_words(alphabet: list[int], length: int):
    """Freely reduced words of one length, lexicographic in alphabet order."""
    if length == 0:
        yield ()
        return
    for prefix in _reduced_words(alphabet, length - 1):
        last = prefix[-1] if prefix else 0
        for e in alphabet:
            if e != -last:
                yield prefix + (e,)


def _knot_words(n: int, length: int):
    """The words of `_reduced_words` of one length on n strands whose
    closure is a knot, in the same order."""
    if length == 0:
        return
    alphabet = [e for i in range(1, n) for e in (i, -i)]
    for prefix in _reduced_words(alphabet, length - 1):
        at = BraidWord(n, prefix)._strand_at()
        last = prefix[-1] if prefix else 0
        for e in alphabet:
            if e != -last:
                i = abs(e) - 1
                order = at.copy()
                order[i], order[i + 1] = order[i + 1], order[i]
                if _cycle_count(order) == 1:
                    yield prefix + (e,)


def knot_classes(n: int, length: int) -> list[tuple[tuple, tuple]]:
    """(first word, least rotation) per rotation class of the reduced knot
    words of one length, in the order the enumeration meets them."""
    classes = {}
    for letters in _knot_words(n, length):
        key = min(letters[k:] + letters[:k] for k in range(len(letters)))
        classes.setdefault(key, letters)
    return [(letters, key) for key, letters in classes.items()]


def _reduced_conjugacy_key(word: BraidWord) -> tuple:
    letters = word.free_reduce().letters
    if not letters:
        return (word.strands,)
    rotations = [
        letters[k:] + letters[:k] for k in range(len(letters))
    ]
    return (word.strands,) + min(rotations)


def oracle_table(n: int, maxlen: int) -> str:
    """The standard output of `knotqc table --strands n --maxlen maxlen`."""
    budget = SkeinBudget()
    alphabet = [e for i in range(1, n) for e in (i, -i)]
    memo: dict = {}
    seen: set[tuple] = set()
    groups: dict[str, list[str]] = {}
    words = [()]
    for _ in range(maxlen + 1):
        next_words = []
        for letters in words:
            word = BraidWord(n, letters)
            key = _reduced_conjugacy_key(word)
            if key not in seen:
                seen.add(key)
                if word.closure_components() == 1:
                    poly = specialize_jones(
                        skein.homfly_braid(word, budget, memo)
                    ).to_text("s")
                    groups.setdefault(poly, []).append(word.to_text())
            if len(letters) < maxlen:
                next_words.extend(letters + (e,) for e in alphabet)
        words = next_words
    lines = [f"strands={n}", f"maxlen={maxlen}", f"groups={len(groups)}"]
    for poly in sorted(groups, key=lambda p: (len(groups[p][0]), p)):
        members = groups[poly]
        lines.append(f"group jones={poly!r} size={len(members)} rep={members[0]!r}")
    return "\n".join(lines) + "\n"
