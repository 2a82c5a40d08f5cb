"""Exact sparse Laurent polynomial arithmetic over the integers.

Invariant values live in two rings: one-variable Laurent polynomials
(exponents count powers of s, with s**2 = t, so half-integer powers of t
stay integral) and two-variable Laurent polynomials in the pair (a, z).
Coefficients are Python ints, so recursion on large diagrams never
overflows.

Text form: "-a^-4 + 2*a^-2 + a^-2*z^2". One-variable polynomials print
highest exponent first; two-variable polynomials print in ascending
(a-exponent, z-exponent) order. Both parse back through one grammar:

    poly   := [ [sign] term (sign term)* ]
    term   := factor ( ["*"] factor )*
    factor := integer | letter [ "^" ["-"] integer ]
    sign   := "+" | "-"

An integer is ASCII decimal digits and a letter is one character for
which str.isalpha holds. Whitespace (str.isspace) may stand between
tokens, but not inside "letter^-integer". A term is its sign times the
product of its factors, so "2 3 s" is 6*s and "s^2*s^-2" is 1; blank
text is zero. LaurentPoly1 takes any one letter as its variable,
LaurentPoly2 the letters a and z. Any other text is a ParseError.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import ParseError


class _Laurent:
    """Ring operations shared by both polynomial types.

    A subclass fixes the shape of the keys of ``terms`` (one exponent, or
    an (a, z) exponent pair), names the key of the constant term in
    ``_UNIT`` and supplies its own product, monomials and text form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in dict(terms or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {self._UNIT: 1}

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are only defined for monomials")
        out = self.one()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"


class LaurentPoly1(_Laurent):
    """One-variable Laurent polynomial, stored as {exponent: coefficient}."""

    __slots__ = ()
    _UNIT = 0

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> "LaurentPoly1":
        return cls({exp: coeff})

    def __mul__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly1(out)

    def shift(self, k: int) -> "LaurentPoly1":
        """Multiply by the variable to the k-th power."""
        return LaurentPoly1({e + k: c for e, c in self.terms.items()})

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def evaluate(self, x: complex) -> complex:
        """Evaluate at a nonzero complex point."""
        if x == 0:
            raise ValueError("evaluation point must be nonzero (negative exponents)")
        return sum(c * x**e for e, c in self.terms.items()) + 0j

    def to_text(self, var: str = "s") -> str:
        items = [
            (c, _factor_text(var, e))
            for e, c in sorted(self.terms.items(), key=lambda kv: -kv[0])
        ]
        return _render_terms(items)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly1":
        """Parse the canonical text form; any single letter may be the variable."""
        terms: dict[int, int] = {}
        letters: set[str] = set()
        for coeff, powers in _scan_terms(text):
            letters.update(powers)
            if len(letters) > 1:
                raise ParseError(f"mixed variables {sorted(letters)} in one-variable polynomial")
            exp = sum(powers.values())
            terms[exp] = terms.get(exp, 0) + coeff
        return cls(terms)


class LaurentPoly2(_Laurent):
    """Two-variable Laurent polynomial in (a, z), stored as {(a_exp, z_exp): coeff}."""

    __slots__ = ()
    _UNIT = (0, 0)

    @classmethod
    def monomial(cls, coeff: int, a_exp: int = 0, z_exp: int = 0) -> "LaurentPoly2":
        return cls({(a_exp, z_exp): coeff})

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out: dict[tuple[int, int], int] = {}
        for (a1, z1), c1 in self.terms.items():
            for (a2, z2), c2 in other.terms.items():
                k = (a1 + a2, z1 + z2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

    def evaluate(self, a: complex, z: complex) -> complex:
        if a == 0 or z == 0:
            raise ValueError("evaluation point must be nonzero (negative exponents)")
        return sum(c * a**i * z**j for (i, j), c in self.terms.items()) + 0j

    def mirror(self) -> "LaurentPoly2":
        """P(-a^-1, z), the value of the mirror image: a^i z^j -> (-1)^i a^-i z^j."""
        return LaurentPoly2({(-i, j): -c if i % 2 else c for (i, j), c in self.terms.items()})

    def coeff_z(self, k: int) -> LaurentPoly1:
        """The a-polynomial multiplying z**k; zero polynomial if absent."""
        return LaurentPoly1({i: c for (i, j), c in self.terms.items() if j == k})

    def z_exponents(self) -> list[int]:
        return sorted({j for (_, j) in self.terms})

    def to_text(self) -> str:
        items = []
        for (i, j), c in sorted(self.terms.items()):
            fa = _factor_text("a", i)
            fz = _factor_text("z", j)
            body = "*".join(f for f in (fa, fz) if f)
            items.append((c, body))
        return _render_terms(items)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly2":
        terms: dict[tuple[int, int], int] = {}
        for coeff, powers in _scan_terms(text):
            if not powers.keys() <= {"a", "z"}:
                raise ParseError(f"unknown variable in {sorted(powers)}, expected a or z")
            key = (powers.get("a", 0), powers.get("z", 0))
            terms[key] = terms.get(key, 0) + coeff
        return cls(terms)


def _factor_text(var: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return var
    return f"{var}^{exp}"


def _render_terms(items) -> str:
    if not items:
        return "0"
    parts = []
    for n, (coeff, body) in enumerate(items):
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if n == 0:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {text}")
    return " ".join(parts)


# A factor is an ASCII integer, or a letter with an optional exponent.
# [^\W\d_] also admits numerals that are not letters, such as "²", so the
# scanner checks str.isalpha on each letter it reads.
_FACTOR = re.compile(r"([0-9]+)|([^\W\d_])(?:\^(-?[0-9]+))?")
_TERM = re.compile(r"([+-]?)\s*((?:{0})(?:\s*\*?\s*(?:{0}))*)\s*".format(_FACTOR.pattern))


def _scan_terms(text: str):
    """Yield (coefficient, {letter: exponent}) for each term of the grammar.

    _TERM takes every factor that follows, so each later term starts at
    its sign.
    """
    text, pos = text.strip(), 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:
            raise ParseError(f"bad polynomial term at {text[pos:]!r} in {text!r}")
        coeff, powers = -1 if m[1] == "-" else 1, {}
        for digits, letter, exp in _FACTOR.findall(m[2]):
            if digits:
                coeff *= int(digits)
            elif letter.isalpha():
                powers[letter] = powers.get(letter, 0) + int(exp or 1)
            else:
                raise ParseError(f"{letter!r} is not a letter in {text!r}")
        yield coeff, powers
        pos = m.end()


def exact_div(num: LaurentPoly1, den: LaurentPoly1) -> LaurentPoly1:
    """Exact one-variable division; raises ValueError on a nonzero remainder."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly1.zero()
    # Shift both to ordinary polynomials, divide, shift back.
    nv, dv = num.valuation(), den.valuation()
    rem = dict(num.shift(-nv).terms)
    d = den.shift(-dv).terms
    d_deg = max(d)
    d_lead = d[d_deg]
    quot: dict[int, int] = {}
    while rem:
        r_deg = max(rem)
        if r_deg < d_deg:
            raise ValueError("polynomials do not divide exactly")
        lead = rem[r_deg]
        q, r = divmod(lead, d_lead)
        if r != 0:
            raise ValueError("polynomials do not divide exactly")
        shift = r_deg - d_deg
        quot[shift] = q
        for e, c in d.items():
            k = e + shift
            v = rem.get(k, 0) - q * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return LaurentPoly1(quot).shift(nv - dv)


@functools.lru_cache(maxsize=64)
def _z_power(m: int) -> tuple[tuple[int, int], ...]:
    """(s - s^-1)^m, the image of z^m under the Jones substitution, as
    (exponent, coefficient) pairs: sum over k of C(m, k) (-1)^k s^(m - 2k)."""
    return tuple((m - 2 * k, (-1) ** k * math.comb(m, k)) for k in range(m + 1))


def specialize_jones(p: LaurentPoly2) -> LaurentPoly1:
    """Substitute a -> s^-2, z -> s - s^-1 (i.e. a -> t^-1, z -> t^1/2 - t^-1/2).

    Each term expands by the binomial theorem. Negative z-exponents are
    cleared by one exact division at the end; for invariant values of
    links the division always succeeds.
    """
    if not p:
        return LaurentPoly1.zero()
    shift = min(0, min(j for (_, j) in p.terms))
    terms: dict[int, int] = {}
    for (i, j), c in p.terms.items():
        for e, b in _z_power(j - shift):
            terms[e - 2 * i] = terms.get(e - 2 * i, 0) + c * b
    num = LaurentPoly1(terms)
    if shift == 0:
        return num
    return exact_div(num, LaurentPoly1(dict(_z_power(-shift))))


coeff_z = LaurentPoly2.coeff_z
