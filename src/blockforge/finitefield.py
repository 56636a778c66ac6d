"""Reduction of cyclotomic integers, given by their integer coordinates,
into R = GF(p)[x]/(Phi_e'), the product of the residue fields above p.

e' is the p'-part of the conductor e, so Phi_e' is separable mod p and,
by the Chinese remainder theorem, R is the product of the fields
GF(p)[x]/(g), one per irreducible factor g of Phi_e' mod p: one per
maximal ideal above p.  No field is built and no root is chosen: x is a
root of Phi_e' in every factor at once.  A value of R is a coefficient
tuple of width phi(e'), constant term first, added mod p and tested for
zero with ``any``; the package takes no product of two of them.  Element
arithmetic and the residue fields themselves live in ``tests/oracles.py``
(``ResidueField``, ``fields_above``), which checks these routines.

The blocks, read off reduced central characters, do not depend on the
ideal (Osima's criterion; Navarro, *Characters and Blocks of Finite
Groups*, ch. 3), and each way the package reads R is exact:

- Equality in R is equality in every residue field; for central
  characters that is the block relation, which names no ideal.
- An induced central character is compared with a block's in every
  field at once, so a disagreement in any one raises
  ``InternalCheckError`` and never passes.
- A value is nonzero in R when it is nonzero in some residue field, and
  this leaves the defect group unchanged up to conjugacy.  Take sigma
  with sigma(P) = P'.  Then chi(x) lies outside P' exactly when chi(x^k)
  lies outside P, where sigma^-1(zeta) = zeta^k.  For a height-zero chi,
  omega_chi(K^) is a p-adic unit times chi(x_K), as the defect class
  search requires |C_G(x_K)|_p = p^d.  So a defect class for P' gives
  one for P, the class of x^k, with the same centralizer.

A value is read as integer coordinates on the power basis of a conductor
o dividing e, an integral basis of Z[zeta_o] (``CharacterTable.coords``);
each map reduces each distinct value once (``ReductionMap.reduce``).
"""

from functools import lru_cache

from .arith import is_prime, p_part, prime_factors, vp
from .cyclotomic import cyclotomic_polynomial, divide_monic
from .errors import DomainError, InternalCheckError


class ReductionMap:
    """Reduction of algebraic integers in Q(zeta_e) into R, memoized.

    zeta_e goes to x^alpha, alpha the inverse of the p-part q of e mod
    e', so zeta_e^q goes to x and roots of unity of p-power order to 1.
    The powers x^0, ..., x^e' are coefficient tuples of width phi(e'),
    each one division by Phi_e' from the last."""

    def __init__(self, e, p):
        if e < 1:
            raise DomainError("conductor must be positive")
        if not (type(p) is int and is_prime(p)):
            raise DomainError(f"{p!r} is not prime")
        self.e = e
        self.p = p
        self.e_prime = n = e // p_part(e, p)
        modulus = cyclotomic_polynomial(n)
        self.width = len(modulus) - 1
        self.powers = powers = [(1,) + (0,) * (self.width - 1)]
        for _ in range(n):
            _, remainder = divide_monic((0, *powers[-1]), modulus)
            powers.append(tuple(c % p for c in remainder))
        self.alpha = pow(p ** vp(e, p), -1, n)
        self._images = {}

    def reduce(self, coords, o):
        """Image of the algebraic integer with integer coordinates coords
        on the power basis of conductor o, where o divides e, as a
        coefficient tuple.

        zeta_o^j maps to x^(alpha j e/o); the coordinates weight those
        powers' coefficient tuples in one integer list, reduced modulo p
        once.  The map is linear, so a factor folded into the integer
        coordinates comes out of the reduction as its residue mod p.
        Each distinct (o, coordinates) is checked and weighed once per
        map, and its image kept in ``_images``; one that raises is not."""
        key = o, tuple(coords)
        if key not in self._images:
            if self.e % o:
                raise DomainError("value lies outside the source field")
            if len(coords) != len(cyclotomic_polynomial(o)) - 1:
                raise DomainError("coordinate count does not match the conductor")
            self._images[key] = self._weigh(coords, self.alpha * (self.e // o))
        return self._images[key]

    def _weigh(self, coords, step):
        """The sum of c_j x^(j step) over the coordinates c_j, in R."""
        powers = self.powers
        total = [0] * self.width
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
        return f"ReductionMap(e={self.e}, p={self.p}, width={self.width})"


@lru_cache(maxsize=None, typed=True)
def build_reduction(e, p):
    """Construct the reduction map for conductor e above p, and prove it
    is a ring homomorphism.

    x has exact order e' when x^e' = 1 and x^(e'/r) != 1 for each prime
    r dividing e', read off the table of its powers.  Then ``reduce`` is
    linear and sends zeta_c to x^(alpha e/c) for every c dividing e: the
    restriction of the ring homomorphism Z[zeta_e] = Z[y]/(Phi_e) -> R,
    y -> x^alpha, which exists exactly when Phi_e(x^alpha) = 0, summed
    from the same power table.  That sum also sends the p-power part of
    zeta_e to 1.  The cache is typed, so p = 2.0 meets no map built at 2.
    """
    rmap = ReductionMap(e, p)
    n, powers = rmap.e_prime, rmap.powers
    one = powers[0]
    if powers[n] != one or any(powers[n // r] == one for r in prime_factors(n)):
        raise InternalCheckError(
            f"root image has the wrong order for conductor {e} at p = {p}"
        )
    if any(rmap._weigh(cyclotomic_polynomial(e), rmap.alpha)):
        raise InternalCheckError(
            f"the image of zeta_{e} is not a root of Phi_{e} mod {p}"
        )
    return rmap
