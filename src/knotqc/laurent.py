"""Exact sparse Laurent polynomial arithmetic over the integers.

Invariant values live in two rings: one-variable Laurent polynomials
(exponents count powers of s, with s**2 = t, so half-integer powers of t
stay integral) and two-variable Laurent polynomials in the pair (a, z).
Coefficients are Python ints, so recursion on large diagrams never
overflows.

Text form: "-a^-4 + 2*a^-2 + a^-2*z^2". One-variable polynomials print
highest exponent first; two-variable polynomials print in ascending
(a-exponent, z-exponent) order. The same grammar parses back.
"""

from __future__ import annotations

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


def _scan_terms(text: str):
    """Yield (coefficient, [(var, exp), ...]) for each term of the grammar."""
    i, n = 0, len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_int(i):
        j = i
        if j < n and text[j] == "-":
            j += 1
        if j >= n or not text[j].isdigit():
            raise ParseError(f"expected integer at position {i} in {text!r}")
        while j < n and text[j].isdigit():
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
            if ch.isdigit():
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
                if i >= n or not (text[i].isdigit() or text[i].isalpha()):
                    raise ParseError(f"dangling '*' in {text!r}")
        if coeff is None and not factors:
            raise ParseError(f"empty term in {text!r}")
        yield sign * (1 if coeff is None else coeff), factors
        i = skip_ws(i)


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


coeff_z = LaurentPoly2.coeff_z
