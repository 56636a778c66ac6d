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
e' goes to u, the encoding-smallest element of exact multiplicative
order e'.  u is found without a scan of the field: the first encoding
whose ((q - 1)/e')-th power has exact order e' gives a generator of the
e'-th roots of unity, and u is the smallest of its phi(e') generating
powers (``element_of_order``).  Each modulus is found once per (p, f)
(``residue_field``), and u with its powers once per (p, e')
(``_root_image``), so conductors with the same p'-part share them.

A value is read in the character table's one representation
(``CharacterTable.coords``): its integer coordinates on the power
basis of a conductor o dividing e, which is an integral basis of
Z[zeta_o], so the coordinates of an algebraic integer are integers.
"""

from functools import lru_cache
from math import gcd

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


def _field_name(p, f):
    return f"GF({p}^{f})" if f > 1 else f"GF({p})"


def _power(a, n, p, modulus):
    """a^n for n >= 0, by square and multiply with ``mul_coeffs``."""
    out = (1,) + (0,) * (len(a) - 1)
    while n:
        if n & 1:
            out = mul_coeffs(out, a, p, modulus)
        a = mul_coeffs(a, a, p, modulus)
        n >>= 1
    return out


def element_of_order(p, f, n):
    """The encoding-smallest element of exact multiplicative order n in
    GF(p^f), as a coefficient tuple.

    GF(q)* is cyclic of order q - 1, so the elements x with x^n = 1
    form its cyclic subgroup of order n, and y -> y^h with
    h = (q - 1)/n maps GF(q)* onto that subgroup.  The encodings are
    walked in order, one element per code, up to the first y whose
    image w has exact order n: w^n = 1 holds for every y, so it
    suffices that w^(n/r) != 1 for each prime r dividing n.  Such a
    w generates the subgroup, and the elements of exact order n in
    a cyclic group <w> of order n are exactly the powers w^k with
    gcd(k, n) = 1.  Those phi(n) powers are therefore every element
    of exact order n in the field, and their encoding-smallest one
    is the element a scan of all encodings returns.

    Gate: the phi(n) powers must be distinct, as they are when w has
    exact order n; equal powers mean w's order was misjudged."""
    modulus = residue_field(p, f)
    size = p**f
    if (size - 1) % n:
        raise DomainError("order does not divide the group order")
    h = (size - 1) // n
    one = (1,) + (0,) * (f - 1)
    cofactors = [n // r for r in prime_factors(n)]
    for code in range(1, size):
        w = _power(_digits(code, p, f), h, p, modulus)
        if all(_power(w, c, p, modulus) != one for c in cofactors):
            break
    else:
        raise InternalCheckError(f"no element of order {n} found in {_field_name(p, f)}")
    generators = []
    power = one
    for k in range(n):
        if gcd(k, n) == 1:
            generators.append(power)
        power = mul_coeffs(power, w, p, modulus)
    if len(set(generators)) != len(generators):
        raise InternalCheckError(
            f"the {len(generators)} generating powers of an element of"
            f" order {n} in {_field_name(p, f)} are not distinct"
        )
    # the encoding reads the digits from the highest power down
    return min(generators, key=lambda c: c[::-1])


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


@lru_cache(maxsize=None)
def _root_image(p, n):
    """The root image u of exact order n in characteristic p, in the
    smallest field holding it, and its powers u^0, ..., u^(n-1); built
    once per (p, n)."""
    f = multiplicative_order(p, n)
    modulus = residue_field(p, f)
    u = element_of_order(p, f, n)
    powers = [(1,) + (0,) * (f - 1)]
    for _ in range(n - 1):
        powers.append(mul_coeffs(powers[-1], u, p, modulus))
    return u, tuple(powers)


class ReductionMap:
    """Reduction of algebraic integers in Q(zeta_e) modulo a fixed
    maximal ideal above p, landing in GF(p^f).

    f is the multiplicative order of p modulo the p'-part e' of e; the
    chosen root image u is the encoding-smallest element of exact order
    e'.  Roots of unity of p-power order collapse to 1.
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
        self.u, self._u_powers = _root_image(p, self.e_prime)
        a = vp(e, p)
        self.alpha = pow(p**a, -1, self.e_prime) if self.e_prime > 1 else 0

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
