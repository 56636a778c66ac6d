import random
from fractions import Fraction
from math import gcd

import pytest

from blockforge import cyclotomic
from blockforge.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    divide_monic,
    rational,
    reduce_mod_cyclotomic,
)
from blockforge.errors import DomainError
from blockforge.finitefield import build_reduction

from oracles import (
    canonical_by_solves,
    combination,
    complex_conjugate,
    fields_above,
    from_root_combination,
    from_root_combination_by_power_basis,
    galois,
    is_algebraic_integer,
    plus,
    power_basis_coords,
    roots,
    times,
    zeta,
)
from conftest import random_value


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_e_minus_1():
    # x^e - 1 is the product of Phi_d over the divisors d of e, multiplied
    # out here with no code shared with the recursion that builds each Phi_d
    for e in range(1, 301):
        product = [1]
        for d in range(1, e + 1):
            if e % d:
                continue
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(product) + len(phi) - 1)
            for i, a in enumerate(product):
                if a:
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
            product = out
        assert product == [-1] + [0] * (e - 1) + [1], e


def _product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_divide_monic_rebuilds_the_dividend():
    # poly = q monic + r, with r of exactly deg(monic) coefficients, for
    # every Phi_e with e <= 60 and the moduli of the residue fields
    # above 2, 3, 5 and 7 in Q(zeta_e) for e prime to p up to 21
    rng = random.Random(41)
    moduli = [cyclotomic_polynomial(e) for e in range(1, 61)]
    moduli += [
        (*F.modulus, 1)
        for p in (2, 3, 5, 7)
        for e in range(1, 22)
        if e % p
        for F in fields_above(build_reduction(e, p))
    ]
    for monic in moduli:
        d = len(monic) - 1
        for _ in range(5):
            poly = [rng.randint(-9, 9) for _ in range(d + rng.randint(0, 2 * d + 3))]
            q, r = divide_monic(poly, monic)
            assert len(r) == d, (monic, poly)
            rebuilt = _product(q, monic) if q else [0] * d
            for i, c in enumerate(r):
                rebuilt[i] += c
            assert rebuilt == poly, (monic, poly)


def test_cyclotomic_polynomial_rejects_an_inexact_division(monkeypatch):
    # Phi_6 = Phi_3(x^2) / Phi_3(x); forged Phi_3 = x^2 + 1 leaves
    # x^4 + 1 = (x^2 - 1)(x^2 + 1) + 2
    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", lambda m: (1, 0, 1))
    with pytest.raises(ArithmeticError, match="nonzero polynomial remainder"):
        cyclotomic_polynomial.__wrapped__(6)


def test_phi():
    phi = [len(cyclotomic_polynomial(n)) - 1 for n in range(1, 13)]
    assert phi == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta3_sum_is_minus_one():
    assert plus(zeta(3), zeta(3, 2)) == rational(-1)


def test_zeta4_squared_is_minus_one():
    assert times(zeta(4), zeta(4)) == rational(-1)


def test_self_conjugate_value():
    x = plus(rational(1), zeta(5), zeta(5, 4))
    assert complex_conjugate(x) == x


def test_conjugate_inverts_root():
    for e in (3, 4, 5, 8, 12):
        assert complex_conjugate(zeta(e)) == zeta(e, e - 1)
        assert times(zeta(e), complex_conjugate(zeta(e))) == rational(1)


def test_conductor_is_minimal():
    assert zeta(6).conductor == 3
    assert zeta(4, 2).conductor == 1
    assert zeta(8, 4) == rational(-1)
    assert plus(zeta(5), zeta(5, 2), zeta(5, 3), zeta(5, 4)).conductor == 1
    assert plus(zeta(8), zeta(8, 7)).conductor == 8


def test_galois_automorphism():
    x = combination([(1, zeta(5)), (2, zeta(5, 2))])
    y = galois(x, 2)
    assert y == combination([(1, zeta(5, 2)), (2, zeta(5, 4))])
    with pytest.raises(DomainError):
        galois(zeta(6), 3)


def test_is_algebraic_integer():
    assert not is_algebraic_integer(rational(Fraction(1, 2)))
    assert is_algebraic_integer(plus(zeta(8), zeta(8, 7)))
    assert is_algebraic_integer(rational(-1))
    assert not is_algebraic_integer(combination([(Fraction(1, 2), zeta(3))]))


def test_rational_extraction():
    assert plus(zeta(3), zeta(3, 2)).rational_value() == -1
    assert plus(zeta(3), zeta(3, 2)).integer_value() == -1
    with pytest.raises(DomainError):
        zeta(3).rational_value()
    with pytest.raises(DomainError):
        rational(Fraction(1, 2)).integer_value()


def test_field_axioms_on_random_samples():
    rng = random.Random(19)

    for e in (6, 8, 12):
        for _ in range(25):
            a, b, c = (random_value(rng, e, 2, 3) for _ in range(3))
            assert plus(plus(a, b), c) == plus(a, plus(b, c))
            assert plus(a, b) == plus(b, a)
            assert times(a, b) == times(b, a)
            assert times(times(a, b), c) == times(a, times(b, c))
            assert times(a, plus(b, c)) == plus(times(a, b), times(a, c))
            assert plus(a, rational(0)) == a
            assert times(a, rational(1)) == a


def test_canonical_form_idempotent():
    rng = random.Random(29)
    for _ in range(40):
        e = rng.choice((6, 8, 12, 30))
        phi = len(cyclotomic_polynomial(e)) - 1
        coords = [Fraction(rng.randrange(-3, 4)) for _ in range(phi)]
        x = Cyclotomic(e, tuple(coords))
        y = Cyclotomic(x.conductor, x.coords)
        assert y.conductor == x.conductor
        assert y.coords == x.coords


def test_lift_and_mixed_conductor_arithmetic():
    x = zeta(3)
    y = zeta(4)
    z = times(x, y)
    assert z.conductor == 12
    assert z == zeta(12, 7)
    assert plus(zeta(3), zeta(4)) == plus(zeta(4), zeta(3))
    # z12^4 = z12^2 - 1 on the power basis of Q(zeta_12), as Phi_12 = x^4 - x^2 + 1
    assert x.lift_coords(12) == (-1, 0, 1, 0)


def _root_coefficients(rng, e, kind):
    """Seeded root coefficients for zeta_e: random, longer than e (they
    wrap), or a function of gcd(t, e), which the Galois group fixes, so
    the value is rational."""
    if kind == "random":
        return [rng.randrange(-3, 4) for _ in range(e)]
    if kind == "long":
        return [rng.randrange(-3, 4) for _ in range(2 * e + rng.randrange(1, 5))]
    by_gcd = {d: rng.randrange(-3, 4) for d in range(1, e + 1) if e % d == 0}
    return [by_gcd[gcd(t, e)] for t in range(e)]


def test_root_combination_matches_the_power_basis_oracle():
    rng = random.Random(22)
    for e in range(1, 25):
        for kind in ("random", "long", "invariant") * 4:
            ints = _root_coefficients(rng, e, kind)
            den = rng.randrange(2, 6)
            for coefficients in (ints, [Fraction(c, den) for c in ints]):
                got = from_root_combination(e, coefficients)
                want = from_root_combination_by_power_basis(e, coefficients)
                assert (got.conductor, got.coords) == want, e
                if coefficients is ints:
                    assert all(type(c) is int for c in got.coords), e
                if kind == "invariant":
                    assert got.conductor == 1, (e, coefficients)


def test_descent_matches_the_solve_oracle():
    # One value from each subfield Q(zeta_d), d | e, lifted to e, for every
    # e <= 120 and for 210 and 420 (the exponent of A7); the package gets
    # its integer coordinates and the same divided by a denominator, and
    # the oracle's answer for the first, divided likewise, must match both.
    rng = random.Random(24)
    for e in (*range(1, 121), 210, 420):
        for d in (d for d in range(1, e + 1) if e % d == 0):
            roots = [0] * e
            for j in range(len(cyclotomic_polynomial(d)) - 1):
                roots[j * (e // d)] = rng.randrange(-3, 4)
            ints = reduce_mod_cyclotomic(roots, e)
            conductor, coords = canonical_by_solves(e, ints)
            assert d % conductor == 0, (e, d)
            den = rng.randrange(2, 6)
            fractions = [Fraction(c, den) for c in ints]
            for scale, raw in ((1, ints), (den, fractions)):
                got = Cyclotomic(e, raw)
                want = (conductor, tuple(c / scale for c in coords))
                assert (got.conductor, got.coords) == want, (e, d, scale)
                if raw is ints:
                    assert all(type(c) is int for c in got.coords), (e, d)


def test_lift_coords_match_the_power_basis_oracle():
    rng = random.Random(41)
    for e in (1, 2, 3, 4, 5, 6, 8, 12, 15, 20, 24):
        for _ in range(6):
            q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
            assert rational(q).lift_coords(e) == power_basis_coords(e, [q]), (e, q)
        for c in (d for d in range(2, e + 1) if e % d == 0):
            x = random_value(rng, c, 3, 4)
            assert x.lift_coords(e) == power_basis_coords(e, roots(x, e)), (e, x)


def test_values_carry_no_arithmetic():
    # equality holds between values only: a value never equals an int
    assert rational(1) == rational(1)
    assert rational(1) != 1 and not rational(0) == 0
    with pytest.raises(TypeError):
        rational(1) + rational(1)
    with pytest.raises(TypeError):
        2 * rational(1)


def test_serialization_strings():
    assert str(rational(-1)) == "-1"
    assert str(rational(Fraction(3, 2))) == "3/2"
    assert str(plus(zeta(8), zeta(8, 7))) == "1*z(8)^1 - 1*z(8)^3"
    assert str(plus(rational(1), zeta(5))) == "1 + 1*z(5)^1"
    assert str(rational(0)) == "0"


def test_sort_key_puts_one_first():
    values = [zeta(3), rational(-1), rational(1), zeta(5), rational(2)]
    ordered = sorted(values, key=lambda v: v.sort_key())
    assert ordered[0] == rational(1)


def test_sort_key_is_deterministic_total_order():
    values = [zeta(3), zeta(3, 2), rational(0), zeta(8), zeta(8, 3), rational(5)]
    keys = [v.sort_key() for v in values]
    assert len(set(keys)) == len(values)
    assert sorted(keys) == sorted(keys, reverse=False)


def test_sum_of_all_roots_vanishes():
    for e in (3, 4, 5, 6, 8, 12):
        assert plus(*(zeta(e, k) for k in range(e))) == rational(0)
