"""Reference table, the all-words breadth-first enumeration.

Every word of every length up to maxlen is generated, level by level in
alphabet order, and keyed by the least rotation of its free reduction;
the first word of each key whose closure is a knot joins the group of
its Jones polynomial. `knotqc table` enumerates only freely reduced
words, so tests compare its output with this one byte for byte.
"""

from knotqc import skein
from knotqc.braid import BraidWord
from knotqc.laurent import specialize_jones
from knotqc.skein import SkeinBudget


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
