"""Reference Jones specialization, one power of (s - s^-1) per term.

Each HOMFLY term c a^i z^j is multiplied out as c s^(-2i) times
(s - s^-1) raised to a power by repeated multiplication, and negative
z-exponents are cleared by one exact division, so tests can compare the
binomial expansion in knotqc.laurent against it.
"""

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
