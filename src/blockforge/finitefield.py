"""Finite field extensions GF(p^f) and reduction of cyclotomic integers
given by their integer coordinates.

The field GF(p^f) is presented as polynomials over GF(p) modulo the
lexicographically smallest monic irreducible of degree f, where
polynomials are compared by their coefficient tuples read from the
highest non-leading power down to the constant (equivalently, by the
integer whose base-p digits are the coefficients).  Elements are
coefficient tuples, constant term first, and that integer is an
element's encoding.

Every field size takes one arithmetic path: a product is the schoolbook
product of two coefficient tuples reduced by the modulus
(``mul_coeffs``).  There is no log or Zech table, so GF(3^12) and
GF(2^23) work like GF(4), at about f^2 integer operations per product.
The hot loop, ``ReductionMap.reduce``, adds integer multiples of
coefficient tuples into one integer list, reduces it modulo p once and
builds one element.

A ReductionMap fixes, once per (conductor, prime) pair, the maximal
ideal above p used to reduce algebraic integers of Q(zeta_e): the
p-power part of a root of unity collapses to 1, and zeta of the p'-part
e' goes to u, the encoding-smallest element of exact multiplicative
order e'.  u is found without a scan of the field: the first encoding
whose ((q - 1)/e')-th power has exact order e' gives a generator of the
e'-th roots of unity, and u is the smallest of its phi(e') generating
powers (``FiniteField.element_of_order``).  Each field is built once
per (p, f) (``residue_field``), and u with its powers once per (p, e')
(``_root_image``), so conductors with the same p'-part share them.

A value is read in the character table's one representation
(``CharacterTable.coords``): its integer coordinates on the power
basis of a conductor o dividing e, which is an integral basis of
Z[zeta_o], so the coordinates of an algebraic integer are integers.
"""

from functools import lru_cache
from math import gcd

from .arith import is_prime, multiplicative_order, p_part, prime_factors, vp
from .cyclotomic import cyclotomic_polynomial
from .errors import DomainError, InternalCheckError


class FiniteField:
    """GF(p^f) with a deterministic modulus polynomial."""

    def __init__(self, p, f):
        if not is_prime(p):
            raise DomainError("characteristic must be prime")
        if f < 1:
            raise DomainError("extension degree must be positive")
        self.p = p
        self.f = f
        self.size = p**f
        self.modulus = _smallest_irreducible(p, f)
        self.zero = FFElement(self, (0,) * f)
        self.one = FFElement(self, (1,) + (0,) * (f - 1))

    def from_integer(self, n):
        return FFElement(self, (n % self.p,) + (0,) * (self.f - 1))

    def elements(self):
        """Every element, in encoding order."""
        return [
            FFElement(self, _digits(code, self.p, self.f))
            for code in range(self.size)
        ]

    def element_of_order(self, n):
        """The encoding-smallest element of exact multiplicative order n.

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
        if (self.size - 1) % n:
            raise DomainError("order does not divide the group order")
        h = (self.size - 1) // n
        cofactors = [n // r for r in prime_factors(n)]
        for code in range(1, self.size):
            w = FFElement(self, _digits(code, self.p, self.f)) ** h
            if all(w ** c != self.one for c in cofactors):
                break
        else:
            raise InternalCheckError(f"no element of order {n} found in {self!r}")
        generators = []
        power = self.one.coeffs
        for k in range(n):
            if gcd(k, n) == 1:
                generators.append(power)
            power = mul_coeffs(power, w.coeffs, self.p, self.modulus)
        if len(set(generators)) != len(generators):
            raise InternalCheckError(
                f"the {len(generators)} generating powers of an element of"
                f" order {n} in {self!r} are not distinct"
            )
        # the encoding reads the digits from the highest power down
        return FFElement(self, min(generators, key=lambda c: c[::-1]))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.p, self.f))

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"


class FFElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, FFElement) or other.field != self.field:
            raise DomainError("elements belong to different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            return FFElement(
                self.field, tuple(a * other % p for a in self.coeffs)
            )
        self._check(other)
        field = self.field
        return FFElement(
            field, mul_coeffs(self.coeffs, other.coeffs, field.p, field.modulus)
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        if self == self.field.zero:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.size - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def multiplicative_order(self):
        if self.is_zero():
            raise DomainError("zero has no multiplicative order")
        n = self.field.size - 1
        for q in prime_factors(n):
            while n % q == 0 and self ** (n // q) == self.field.one:
                n //= q
        return n

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.f, self.coeffs))

    def __str__(self):
        if self.field.f == 1:
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FFElement({self.field!r}, {self})"


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
    for k in range(2 * f - 2, f - 1, -1):
        c = raw[k] % p
        if c:
            for i, m in enumerate(modulus):
                raw[k - f + i] -= c * m
    return tuple(raw[i] % p for i in range(f))


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
    full = list(coeffs) + [1]
    for deg in range(1, f // 2 + 1):
        for code in range(p**deg):
            if _poly_divides(list(_digits(code, p, deg)) + [1], full, p):
                return False
    return True


def _poly_divides(div, poly, p):
    rem = list(poly)
    dd = len(div) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k] % p
        if c:
            for i in range(dd + 1):
                rem[k - dd + i] = (rem[k - dd + i] - c * div[i]) % p
    return not any(c % p for c in rem)


@lru_cache(maxsize=None)
def residue_field(p, f):
    """GF(p^f), built (and its modulus searched for) once per (p, f)."""
    return FiniteField(p, f)


@lru_cache(maxsize=None)
def _root_image(p, n):
    """The root image u of exact order n in characteristic p, in the
    smallest field holding it, and the coefficient tuples of its powers
    u^0, ..., u^(n-1); built once per (p, n)."""
    field = residue_field(p, multiplicative_order(p, n))
    u = field.element_of_order(n)
    powers = [field.one.coeffs]
    for _ in range(n - 1):
        powers.append(mul_coeffs(powers[-1], u.coeffs, p, field.modulus))
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
        self.field = residue_field(p, self.f)
        self.u, self._u_powers = _root_image(p, self.e_prime)
        a = vp(e, p)
        self.alpha = pow(p**a, -1, self.e_prime) if self.e_prime > 1 else 0

    def reduce(self, coords, o):
        """Image of the algebraic integer with integer coordinates coords
        on the power basis of conductor o, where o divides e.

        zeta_o^j maps to u^(alpha j e/o); the coordinates weight those
        powers' coefficient tuples in one integer list, reduced modulo p
        once."""
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
        return FFElement(self.field, tuple(t % p for t in total))

    def __repr__(self):
        return f"ReductionMap(e={self.e}, p={self.p}, field={self.field!r})"


def build_reduction(e, p):
    """Construct the reduction map for conductor e above p, and prove it
    is a ring homomorphism.

    Once u is checked to have exact order e', ``reduce`` is linear in the
    power-basis coordinates and sends zeta_c to u_bar^(e/c) for every c
    dividing e, where u_bar = u^alpha is the image of zeta_e.  It is therefore the restriction of the ring
    homomorphism Z[zeta_e] = Z[x]/(Phi_e) -> GF(p^f), x -> u_bar, which
    exists exactly when Phi_e(u_bar) = 0.  That one evaluation also
    implies that the p-power part of zeta_e maps to 1.
    """
    rmap = ReductionMap(e, p)
    if rmap.e_prime > 1 and rmap.u.multiplicative_order() != rmap.e_prime:
        raise InternalCheckError(
            f"root image has the wrong order for conductor {e} at p = {p}"
        )
    u_bar = FFElement(rmap.field, rmap._u_powers[rmap.alpha])
    value = rmap.field.zero
    for c in reversed(cyclotomic_polynomial(e)):
        value = value * u_bar + rmap.field.from_integer(c)
    if not value.is_zero():
        raise InternalCheckError(
            f"the image of zeta_{e} is not a root of Phi_{e} mod {p}"
        )
    return rmap
