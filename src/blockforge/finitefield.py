"""Finite field extensions GF(p^f) and reduction of cyclotomic integers
given by their integer coordinates.

The field GF(p^f) is presented as polynomials over GF(p) modulo the
lexicographically smallest monic irreducible of degree f, where
polynomials are compared by their coefficient tuples read from the
highest non-leading power down to the constant (equivalently, by the
integer whose base-p digits are the coefficients); that modulus is
all the package keeps of a field (``residue_field``).  Every residue
value in the package is a plain coefficient tuple, constant term
first, and that integer is its encoding.

The package tests values for zero with ``any`` and adds them modulo p
coefficient by coefficient; its one product of two values is
``mul_coeffs``, the schoolbook product reduced by the modulus through
``cyclotomic.divide_monic``, with no log or Zech table, so GF(3^12)
and GF(2^23) work like GF(4), at about f^2 integer operations per
product.  The hot loop, ``ReductionMap.reduce``, adds integer multiples
of coefficient tuples into one integer list and reduces it modulo p
once.  The element arithmetic the package does without (inverses,
orders, every element of a field) lives in ``tests/oracles.py``
(``ResidueField``), which checks these routines.

A ReductionMap fixes, once per (conductor, prime) pair, the maximal
ideal above p used to reduce algebraic integers of Q(zeta_e): the
p-power part of a root of unity collapses to 1, and zeta of the p'-part
e' goes to u, the first element of exact order e' that a walk of the
encodings meets (``element_of_order``).  Any such u serves, since the
blocks do not depend on the ideal (Osima's criterion), up to the caveat
on defect groups ``ReductionMap`` names.  Each modulus is found once
per (p, f) (``residue_field``), and u with its powers once per map.

A value is read in the character table's one representation
(``CharacterTable.coords``): its integer coordinates on the power
basis of a conductor o dividing e, which is an integral basis of
Z[zeta_o], so the coordinates of an algebraic integer are integers.
"""

from functools import lru_cache

from .arith import is_prime, multiplicative_order, p_part, prime_factors, vp
from .cyclotomic import cyclotomic_polynomial, divide_monic
from .errors import DomainError, InternalCheckError


def _digits(code, p, f):
    """The f base-p digits of code, least significant first."""
    out = []
    for _ in range(f):
        out.append(code % p)
        code //= p
    return tuple(out)


def mul_coeffs(a, b, p, modulus):
    """The product of two coefficient tuples in GF(p)[t] modulo the
    monic t^f + modulus(t), reduced modulo p."""
    f = len(a)
    raw = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                raw[i + j] += x * y
    return tuple(c % p for c in divide_monic(raw, (*modulus, 1))[1])


def _power(a, n, p, modulus):
    """a^n for n >= 1, by square and multiply with ``mul_coeffs`` from
    the leading bit of n down, so no product has a factor 1."""
    out = a
    for bit in bin(n)[3:]:
        out = mul_coeffs(out, out, p, modulus)
        if bit == "1":
            out = mul_coeffs(out, a, p, modulus)
    return out


def element_of_order(p, f, n):
    """The first element of exact multiplicative order n in GF(p^f) that
    a walk of the encodings meets, as a coefficient tuple.

    GF(q)* is cyclic of order q - 1, so y -> y^h with h = (q - 1)/n
    maps it onto its subgroup of order n, the x with x^n = 1.  The
    encodings y are walked in order up to the first whose image w has
    exact order n: w^n = 1 always holds, so it suffices that
    w^(n/r) != 1 for each prime r dividing n.  Any such w serves a
    reduction map, up to the caveat ``ReductionMap`` names."""
    modulus = residue_field(p, f)
    h, rest = divmod(p**f - 1, n)
    if rest:
        raise DomainError("order does not divide the group order")
    one = (1,) + (0,) * (f - 1)
    cofactors = [n // r for r in prime_factors(n)]
    for code in range(1, p**f):
        w = _power(_digits(code, p, f), h, p, modulus)
        if all(_power(w, c, p, modulus) != one for c in cofactors):
            return w
    field = f"GF({p}^{f})" if f > 1 else f"GF({p})"
    raise InternalCheckError(f"no element of order {n} found in {field}")


def _smallest_irreducible(p, f):
    """Monic irreducible of degree f over GF(p) with the smallest
    coefficient encoding; constant term first, leading 1 omitted."""
    if f == 1:
        return (0,)
    for code in range(p**f):
        coeffs = _digits(code, p, f)
        if _is_irreducible(coeffs, p, f):
            return coeffs
    raise InternalCheckError(
        f"no irreducible polynomial of degree {f} found over GF({p})"
    )


def _is_irreducible(coeffs, p, f):
    if coeffs[0] == 0:
        return False
    full = (*coeffs, 1)
    for deg in range(1, f // 2 + 1):
        for code in range(p**deg):
            _, remainder = divide_monic(full, (*_digits(code, p, deg), 1))
            if not any(c % p for c in remainder):
                return False
    return True


@lru_cache(maxsize=None)
def residue_field(p, f):
    """The modulus of GF(p^f), searched for once per (p, f): the smallest
    monic irreducible of degree f over GF(p), constant term first,
    leading 1 omitted."""
    if not is_prime(p):
        raise DomainError("characteristic must be prime")
    if f < 1:
        raise DomainError("extension degree must be positive")
    return _smallest_irreducible(p, f)


class ReductionMap:
    """Reduction of algebraic integers in Q(zeta_e) modulo a fixed
    maximal ideal above p, landing in GF(p^f).

    f is the order of p modulo the p'-part e' of e, zeta_e' goes to u,
    the first element of exact order e' that ``element_of_order`` meets,
    and roots of unity of p-power order go to 1.  Any such u serves: the
    blocks do not depend on the ideal (Osima's criterion).  Caveat: the
    defect group ``blocks`` returns comes from the first p-regular class
    K with lambda_B(K^) != 0, and F21's central-character value
    (-1 + sqrt(-7))/2 has norm 2, so it lies in one ideal above 2 only;
    another root could pick a conjugate D and renumber N_G(D)'s blocks.
    """

    def __init__(self, e, p):
        if e < 1:
            raise DomainError("conductor must be positive")
        if not is_prime(p):
            raise DomainError("reduction prime must be prime")
        self.e = e
        self.p = p
        self.e_prime = e // p_part(e, p)
        self.f = multiplicative_order(p, self.e_prime)
        self.modulus = residue_field(p, self.f)
        self.u = element_of_order(p, self.f, self.e_prime)
        self._u_powers = powers = [(1,) + (0,) * (self.f - 1)]
        for _ in range(self.e_prime - 1):
            powers.append(mul_coeffs(powers[-1], self.u, p, self.modulus))
        self.alpha = pow(p ** vp(e, p), -1, self.e_prime) if self.e_prime > 1 else 0

    def reduce(self, coords, o):
        """Image of the algebraic integer with integer coordinates coords
        on the power basis of conductor o, where o divides e, as a
        coefficient tuple.

        zeta_o^j maps to u^(alpha j e/o); the coordinates weight those
        powers' coefficient tuples in one integer list, reduced modulo p
        once.  The map is linear, so a factor folded into the integer
        coordinates comes out of the reduction as its residue mod p."""
        if self.e % o:
            raise DomainError("value lies outside the source field")
        if len(coords) != len(cyclotomic_polynomial(o)) - 1:
            raise DomainError("coordinate count does not match the conductor")
        step = self.alpha * (self.e // o)
        powers = self._u_powers
        total = [0] * self.f
        for j, c in enumerate(coords):
            if not c:
                continue
            if c.denominator != 1:
                raise DomainError("cannot reduce a non-integral value")
            c = c.numerator
            for i, a in enumerate(powers[j * step % self.e_prime]):
                total[i] += c * a
        p = self.p
        return tuple(t % p for t in total)

    def __repr__(self):
        return f"ReductionMap(e={self.e}, p={self.p}, f={self.f})"


@lru_cache(maxsize=None)
def build_reduction(e, p):
    """Construct the reduction map for conductor e above p, and prove it
    is a ring homomorphism.

    u has exact order e' when u^e' = 1 and u^(e'/r) != 1 for each prime
    r dividing e', read off the table of its powers u^0, ..., u^(e'-1).
    Then ``reduce`` is linear in the power-basis coordinates and sends
    zeta_c to u_bar^(e/c) for every c dividing e, where u_bar = u^alpha
    is the image of zeta_e.  It is therefore the restriction of the ring
    homomorphism Z[zeta_e] = Z[x]/(Phi_e) -> GF(p^f), x -> u_bar, which
    exists exactly when Phi_e(u_bar) = 0, evaluated by Horner's rule.
    That one evaluation also implies that the p-power part of zeta_e
    maps to 1.
    """
    rmap = ReductionMap(e, p)
    n, modulus, powers = rmap.e_prime, rmap.modulus, rmap._u_powers
    one = powers[0]
    if mul_coeffs(powers[-1], rmap.u, p, modulus) != one or any(
        powers[n // r] == one for r in prime_factors(n)
    ):
        raise InternalCheckError(
            f"root image has the wrong order for conductor {e} at p = {p}"
        )
    u_bar = powers[rmap.alpha]
    value = (0,) * rmap.f
    for c in reversed(cyclotomic_polynomial(e)):
        value = mul_coeffs(value, u_bar, p, modulus)
        value = ((value[0] + c) % p,) + value[1:]
    if any(value):
        raise InternalCheckError(
            f"the image of zeta_{e} is not a root of Phi_{e} mod {p}"
        )
    return rmap
