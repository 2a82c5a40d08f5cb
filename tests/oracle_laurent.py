"""Reference Jones specialization and polynomial text parser.

Each HOMFLY term c a^i z^j is multiplied out as c s^(-2i) times
(s - s^-1) raised to a power by repeated multiplication, and negative
z-exponents are cleared by one exact division, so tests can compare the
binomial expansion in knotqc.laurent against it.

parse1 and parse2 read polynomial text with a frozen copy of the
character-by-character term scanner that knotqc.laurent's regex grammar
replaced, each with the key rule its class had then, so tests can hold
LaurentPoly1.parse and LaurentPoly2.parse to the language it accepted.
"""

from knotqc.errors import ParseError
from knotqc.laurent import LaurentPoly1, LaurentPoly2, exact_div

# z -> s - s^-1 under the Jones substitution.
_S_MINUS_SINV = LaurentPoly1({1: 1, -1: -1})


def specialize_jones(p: LaurentPoly2) -> LaurentPoly1:
    """Substitute a -> s^-2, z -> s - s^-1 (i.e. a -> t^-1, z -> t^1/2 - t^-1/2).

    Negative z-exponents are cleared by one exact division at the end;
    for invariant values of links the division always succeeds.
    """
    if not p:
        return LaurentPoly1.zero()
    shift = min(0, min(j for (_, j) in p.terms))
    num = LaurentPoly1.zero()
    for (i, j), c in p.terms.items():
        num = num + LaurentPoly1.monomial(c, -2 * i) * _S_MINUS_SINV ** (j - shift)
    if shift == 0:
        return num
    return exact_div(num, _S_MINUS_SINV ** (-shift))


def parse1(text: str) -> LaurentPoly1:
    """One-variable text; any single letter may be the variable."""
    terms: dict[int, int] = {}
    seen_var = None
    for coeff, factors in _scan_terms(text):
        exp = 0
        for v, e in factors:
            if seen_var is None:
                seen_var = v
            elif v != seen_var:
                raise ParseError(f"mixed variables {seen_var!r} and {v!r} in one-variable polynomial")
            exp += e
        terms[exp] = terms.get(exp, 0) + coeff
    return LaurentPoly1(terms)


def parse2(text: str) -> LaurentPoly2:
    """Two-variable text in the letters a and z."""
    terms: dict[tuple[int, int], int] = {}
    for coeff, factors in _scan_terms(text):
        a_exp = z_exp = 0
        for v, e in factors:
            if v == "a":
                a_exp += e
            elif v == "z":
                z_exp += e
            else:
                raise ParseError(f"unknown variable {v!r}, expected a or z")
        key = (a_exp, z_exp)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly2(terms)


_DIGITS = "0123456789"


def _scan_terms(text: str):
    """Yield (coefficient, [(var, exp), ...]) for each term of the grammar.

    Integers are ASCII decimal digits only: str.isdigit also admits
    characters such as superscripts that int() rejects.
    """
    i, n = 0, len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_int(i):
        j = i
        if j < n and text[j] == "-":
            j += 1
        if j >= n or text[j] not in _DIGITS:
            raise ParseError(f"expected integer at position {i} in {text!r}")
        while j < n and text[j] in _DIGITS:
            j += 1
        return int(text[i:j]), j

    i = skip_ws(i)
    first = True
    while i < n:
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise ParseError(f"expected '+' or '-' at position {i} in {text!r}")
        first = False
        coeff = None
        factors: list[tuple[str, int]] = []
        while i < n:
            ch = text[i]
            if ch in _DIGITS:
                value, i = read_int(i)
                coeff = value if coeff is None else coeff * value
            elif ch.isalpha():
                var = ch
                i += 1
                exp = 1
                if i < n and text[i] == "^":
                    exp, i = read_int(i + 1)
                factors.append((var, exp))
            else:
                break
            i = skip_ws(i)
            if i < n and text[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or not (text[i] in _DIGITS or text[i].isalpha()):
                    raise ParseError(f"dangling '*' in {text!r}")
        if coeff is None and not factors:
            raise ParseError(f"empty term in {text!r}")
        yield sign * (1 if coeff is None else coeff), factors
        i = skip_ws(i)
