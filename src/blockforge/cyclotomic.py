"""Exact values in cyclotomic fields Q(zeta_e).

Values are stored on the power basis 1, z, ..., z^(phi(e)-1) of the
field with the smallest possible conductor e, with Fraction
coordinates.  Keeping every value at its true conductor makes equality
structural: two equal values always have the same conductor and the
same coordinate tuple, so values can be hashed and sorted
deterministically.

Values are built by one reduction mod Phi_e (``reduce_mod_cyclotomic``):
a sum of roots of unity with integer coefficients reduces in integers.
Power-basis coordinates are unique, so a result with no coordinate past
the first is rational and is stored as it is; Fraction arithmetic is
used only to canonicalize irrational values.

The minimal conductor is found by descending through the divisors of
the working conductor in increasing order; the first divisor d whose
field contains the value is its conductor, because the set of such
divisors is closed under gcd (Q(zeta_a) with Q(zeta_b) intersect in
Q(zeta_gcd(a,b))).
"""

from fractions import Fraction
from functools import lru_cache

from .arith import solve_rational
from .errors import DomainError


@lru_cache(maxsize=None)
def euler_phi(n):
    out = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficients of the e-th cyclotomic polynomial, low degree
    first, computed by exact division of x^e - 1 by the proper-divisor
    factors."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e):
        if d == e:
            continue
        poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def reduce_mod_cyclotomic(poly, e):
    """The polynomial poly in zeta_e (low degree first, at least phi(e)
    coefficients) reduced mod Phi_e: its power-basis coordinates.  Phi_e
    is monic, so integer coefficients stay integers."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    poly = poly[:]
    for t in range(len(poly) - 1, d - 1, -1):
        c = poly[t]
        if c:
            for i, f in enumerate(phi):
                poly[t - d + i] -= c * f
    return poly[:d]


def _polydiv_exact(num, den):
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coefficient, remainder = divmod(num[shift + len(den) - 1], den[-1])
        if remainder:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = coefficient
        for i, c in enumerate(den):
            num[shift + i] -= coefficient * c
    if any(num):
        raise ArithmeticError("nonzero polynomial remainder")
    return out


@lru_cache(maxsize=None)
def _power_basis(e):
    """Coordinates of z^k for k = 0..e-1 on the power basis mod the
    cyclotomic polynomial, as tuples of Fractions."""
    return tuple(
        tuple(map(Fraction, reduce_mod_cyclotomic([int(t == k) for t in range(e)], e)))
        for k in range(e)
    )


class Cyclotomic:
    """An exact element of a cyclotomic field, at its minimal conductor."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor, coords, normalized=False):
        if normalized:
            self.conductor = conductor
            self.coords = coords
            return
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != euler_phi(conductor):
            raise DomainError("coordinate count does not match the conductor")
        conductor, coords = _canonical(conductor, coords)
        self.conductor = conductor
        self.coords = coords

    def rational_value(self):
        if self.conductor != 1:
            raise DomainError("value is irrational")
        return self.coords[0]

    def integer_value(self):
        q = self.rational_value()
        if q.denominator != 1:
            raise DomainError("value is not an integer")
        return q.numerator

    def lift_coords(self, e):
        """Coordinates of this value on the power basis of conductor e."""
        if e % self.conductor:
            raise DomainError("conductor does not divide the requested one")
        if self.conductor == 1:
            return self.coords + (0,) * (euler_phi(e) - 1)
        if e == self.conductor:
            return self.coords
        step = e // self.conductor
        poly = [0] * e
        for j, c in enumerate(self.coords):
            poly[j * step] = c
        return tuple(reduce_mod_cyclotomic(poly, e))

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coords == other.coords

    def __hash__(self):
        return hash((self.conductor, self.coords))

    def sort_key(self):
        """Total order key for deterministic row sorting; 1 sorts first."""
        if self.conductor == 1 and self.coords[0] == 1:
            return (0,)
        return (1, self.conductor) + self.coords

    def __str__(self):
        if self.conductor == 1:
            return str(self.coords[0])
        parts = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            if k == 0:
                parts.append((c < 0, str(abs(c))))
            else:
                parts.append((c < 0, f"{abs(c)}*z({self.conductor})^{k}"))
        pieces = []
        for negative, text in parts:
            if not pieces:
                pieces.append(("-" if negative else "") + text)
            else:
                pieces.append(("- " if negative else "+ ") + text)
        return " ".join(pieces)

    def __repr__(self):
        return f"Cyclotomic({self})"


def _canonical(e, coords):
    """Rewrite the value at its minimal conductor."""
    if all(c == 0 for c in coords[1:]):
        return 1, (coords[0],)
    basis = _power_basis(e)
    for d in divisors(e):
        if d == e:
            break
        step = e // d
        columns = [basis[(j * step) % e] for j in range(euler_phi(d))]
        solution = solve_rational(columns, coords)
        if solution is not None:
            return d, tuple(solution)
    return e, coords


def rational(q):
    """The rational number q as a cyclotomic value."""
    return Cyclotomic(1, (Fraction(q),), normalized=True)


ONE = rational(1)


def from_root_combination(e, coefficients):
    """The value sum_t coefficients[t] * zeta_e^t, t read mod e, by one
    reduction mod Phi_e.  A rational result is stored as it is; only an
    irrational one is canonicalized."""
    poly = [0] * e
    for t, c in enumerate(coefficients):
        if c:
            poly[t % e] += c
    coords = reduce_mod_cyclotomic(poly, e)
    if any(coords[1:]):
        return Cyclotomic(e, coords)
    return rational(coords[0])
