"""Reference Gauss-code parsing and realizability, one rule per routine.

The signed and unsigned parsers each have their own token pattern and
label check. The Euler characteristic walks the dart rotation system it
builds from the code's signs, and unsigned realizability tries every
sign pattern (2^k codes for k labels). Tests hold knotqc.diagram's
shared tokenizer, its face count of the built diagram and its
Rosenstiehl criterion against these.
"""

import re

from knotqc.diagram import OVER, UNDER, GaussCode
from knotqc.errors import BudgetExceededError, ParseError

_UNSIGNED_GUARD = 16

_GAUSS_TOKEN = re.compile(r"\s*([OUou])\s*(\d+)\s*([+-])")
_GAUSS_TOKEN_UNSIGNED = re.compile(r"\s*([OUou])\s*(\d+)")


def parse_gauss(text: str) -> GaussCode:
    """Parse tokens like "O1+U2-"; validation errors become ParseError."""
    entries = []
    pos = 0
    while pos < len(text):
        m = _GAUSS_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad Gauss code near {text[pos:pos+12]!r}")
            break
        kind, label, sign = m.group(1).upper(), int(m.group(2)), 1 if m.group(3) == "+" else -1
        entries.append((kind, label, sign))
        pos = m.end()
    try:
        return GaussCode(tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_unsigned_gauss(text: str) -> list[tuple[str, int]]:
    """Parse a sign-free sequence like "O1 U2 O3"."""
    out = []
    pos = 0
    while pos < len(text):
        m = _GAUSS_TOKEN_UNSIGNED.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad unsigned code near {text[pos:pos+12]!r}")
            break
        out.append((m.group(1).upper(), int(m.group(2))))
        pos = m.end()
    seen: dict[int, set[str]] = {}
    for kind, label in out:
        seen.setdefault(label, set())
        if kind in seen[label]:
            raise ParseError(f"label {label} crosses {kind} twice")
        seen[label].add(kind)
    for label, kinds in seen.items():
        if len(kinds) != 2:
            raise ParseError(f"label {label} must occur once over and once under")
    return out


def euler_characteristic(code: GaussCode) -> tuple[int, int, int, int]:
    """(vertices, edges, faces, chi) of the carrier surface of a signed code.

    The code's 4-valent graph is embedded on the closed surface spanned
    by its sign-determined rotation system; faces are orbits of the
    rotation composed with the edge-end involution.
    """
    m = len(code.entries)
    c = m // 2
    if m == 0:
        return (0, 0, 2, 2)
    pass_index: dict[tuple[str, int], int] = {}
    for idx, (kind, label, _) in enumerate(code.entries):
        pass_index[(kind, label)] = idx
    # Dart (j, 0) = tail of edge j at pass j; dart (j, 1) = head at pass j+1.
    rotation: dict[tuple[int, int], tuple[int, int]] = {}
    for label in code.labels():
        o = pass_index[(OVER, label)]
        u = pass_index[(UNDER, label)]
        sign = code.entries[o][2]
        u_in, u_out = ((u - 1) % m, 1), (u, 0)
        o_in, o_out = ((o - 1) % m, 1), (o, 0)
        if sign > 0:
            cycle = [u_in, o_in, u_out, o_out]
        else:
            cycle = [u_in, o_out, u_out, o_in]
        for k, dart in enumerate(cycle):
            rotation[dart] = cycle[(k + 1) % 4]
    faces = 0
    seen: set[tuple[int, int]] = set()
    for dart in rotation:
        if dart in seen:
            continue
        faces += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            j, end = cur
            cur = rotation[(j, 1 - end)]
    return (c, m, faces, c - m + faces)


def realizable(code: GaussCode) -> bool:
    """True iff the code comes from an actual planar knot diagram (chi = 2)."""
    return euler_characteristic(code)[3] == 2


def realizable_unsigned(sequence: list[tuple[str, int]]) -> bool:
    """True iff some sign assignment makes the sequence realizable.

    Brute force over all sign patterns, guarded to 16 crossings.
    """
    labels = sorted({label for _, label in sequence})
    if len(labels) > _UNSIGNED_GUARD:
        raise BudgetExceededError(
            f"unsigned realizability is brute force; limit is {_UNSIGNED_GUARD} crossings"
        )
    if not sequence:
        return True
    for mask in range(1 << len(labels)):
        signs = {
            label: 1 if mask & (1 << k) else -1 for k, label in enumerate(labels)
        }
        code = GaussCode(
            tuple((kind, label, signs[label]) for kind, label in sequence)
        )
        if realizable(code):
            return True
    return False
