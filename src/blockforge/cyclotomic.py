"""Exact values in cyclotomic fields Q(zeta_e).

Values are stored on the power basis 1, z, ..., z^(phi(e)-1) of the
field with the smallest possible conductor e, with the coordinates they
are given: ints for every value the package builds, as character values
are algebraic integers, and a power basis of Z[zeta_e] is an integral
basis.  Keeping every value at its true conductor makes equality
structural: two equal values always have the same conductor and equal
coordinate tuples, so values can be hashed and sorted deterministically.

Values are built by one reduction mod Phi_e (``reduce_mod_cyclotomic``):
a sum of roots of unity with integer coefficients reduces in integers.
Power-basis coordinates are unique, so a result with no coordinate past
the first is rational and is stored as it is.  An irrational value
descends to its minimal conductor one prime at a time (``_descend``),
in the coordinates' own arithmetic: integers stay integers.

For a prime r with e = r m, the value lies in Q(zeta_m) exactly when
one coefficient test on its coordinates passes (``_down``), and the
same identity that gives the test gives its coordinates there.  The
conductors whose field holds the value are closed under gcd (Q(zeta_a)
and Q(zeta_b) intersect in Q(zeta_gcd(a,b))), so a conductor from which
no prime descends is the minimal one.  The same identities build
Phi_e: Phi_e(x) = Phi_m(x^r) when r divides m, and Phi_m(x^r) / Phi_m(x)
when it does not.

Both the reduction and that quotient are one division by a monic
polynomial (``divide_monic``), which also builds the reduction map's
table of the powers of x mod Phi_e' (``finitefield``).
"""

from functools import lru_cache

from .arith import prime_factors
from .errors import DomainError


def divide_monic(poly, monic):
    """Quotient and remainder of poly (at least deg(monic) coefficients)
    by a monic polynomial, all low degree first.  Each quotient
    coefficient stays in place of the leading term it cancels, so the
    quotient is the top of the worked list and the remainder its bottom
    deg(monic) coefficients.  Integers stay integers, and reduced mod p
    they give the division over GF(p)."""
    d = len(monic) - 1
    poly = list(poly)
    for t in range(len(poly) - 1, d - 1, -1):
        c = poly[t]
        if c:
            for i in range(d):
                poly[t - d + i] -= c * monic[i]
    return poly[d:], poly[:d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficients of the e-th cyclotomic polynomial, low degree
    first, from Phi_m with e = r m for the smallest prime r of e; the
    division by Phi_m must be exact."""
    if e == 1:
        return (-1, 1)
    r = prime_factors(e)[0]
    m = e // r
    inner = cyclotomic_polynomial(m)
    spread = [0] * (r * (len(inner) - 1) + 1)
    spread[::r] = inner
    if m % r == 0:
        return tuple(spread)
    quotient, remainder = divide_monic(spread, inner)
    if any(remainder):
        raise ArithmeticError("nonzero polynomial remainder")
    return tuple(quotient)


def reduce_mod_cyclotomic(poly, e):
    """The polynomial poly in zeta_e (low degree first, at least phi(e)
    coefficients) reduced mod Phi_e: its power-basis coordinates.  Phi_e
    is monic, so integer coefficients stay integers."""
    return divide_monic(poly, cyclotomic_polynomial(e))[1]


class Cyclotomic:
    """An exact element of a cyclotomic field, at its minimal conductor.

    Cyclotomic(e, coords) takes coordinates on the power basis of
    conductor e and stores them, as given, at the minimal conductor:
    integer input stays int, and rational input works alike."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor, coords):
        if len(coords) != len(cyclotomic_polynomial(conductor)) - 1:
            raise DomainError("coordinate count does not match the conductor")
        if any(coords[1:]):
            conductor, coords = _descend(conductor, coords)
        else:
            conductor, coords = 1, coords[:1]
        self.conductor = conductor
        self.coords = tuple(coords)

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


def _descend(e, coords):
    """The value with coordinates coords at conductor e, rewritten at its
    minimal conductor: descend by any prime that leaves it in the smaller
    field, until none does."""
    while True:
        for r in prime_factors(e):
            down = _down(e, r, coords)
            if down is not None:
                e, coords = e // r, down
                break
        else:
            return e, coords


def _down(e, r, coords):
    """The value's coordinates at conductor m = e / r for a prime r, or
    None when it does not lie in Q(zeta_m).

    When r divides m, Phi_e(x) = Phi_m(x^r), so zeta_e^(r j + i) =
    zeta_m^j zeta_e^i for i < r, and 1, zeta_e, ..., zeta_e^(r-1) is a
    basis over Q(zeta_m): the value lies there exactly when only the
    coordinates at multiples of r are nonzero.  Otherwise zeta_e^t =
    zeta_r^x zeta_m^y with t = m x + r y mod e (CRT), which splits the
    value as the sum over x of zeta_r^x w_x, w_x in Q(zeta_m); as
    zeta_r^(r-1) = -(1 + ... + zeta_r^(r-2)) and 1, ..., zeta_r^(r-2) is
    a basis over Q(zeta_m), the value lies there exactly when
    w_1 = ... = w_(r-1), and is then w_0 - w_1."""
    m = e // r
    if m % r == 0:
        if any(c for t, c in enumerate(coords) if t % r):
            return None
        return coords[::r]
    to_x, to_y = pow(m, -1, r), pow(r, -1, m)
    split = [[0] * m for _ in range(r)]
    for t, c in enumerate(coords):
        if c:
            split[t * to_x % r][t * to_y % m] += c
    w = [reduce_mod_cyclotomic(poly, m) for poly in split]
    if any(wx != w[1] for wx in w[2:]):
        return None
    return [a - b for a, b in zip(w[0], w[1])]


def rational(q):
    """The rational number q as a cyclotomic value."""
    return Cyclotomic(1, (q,))


ONE = rational(1)
