import random
import re
import time
from fractions import Fraction

import pytest

from blockforge import finitefield
from blockforge.blocks import block_data
from blockforge.cyclotomic import rational
from blockforge.errors import DomainError, InternalCheckError
from blockforge.finitefield import FFElement, FiniteField, ReductionMap, build_reduction
from blockforge.modular import ModularData

from conftest import dihedral, random_value
from oracles import element_of_order_by_scan, plus, times, zeta


@pytest.fixture
def fresh_fields():
    """Empty the field and root caches before and after the test, so a
    monkeypatched field is consulted and no root it made outlives it."""
    finitefield.residue_field.cache_clear()
    finitefield._root_image.cache_clear()
    yield
    finitefield.residue_field.cache_clear()
    finitefield._root_image.cache_clear()


def reduce(rmap, x):
    """A cyclotomic integer reduced from its coordinates at its own
    conductor."""
    return rmap.reduce(x.coords, x.conductor)


def test_gf4_modulus_and_elements():
    F = FiniteField(2, 2)
    assert F.modulus == (1, 1)
    assert len(F.elements()) == 4
    t = FFElement(F, (0, 1))
    assert t * t == t + F.one


def test_gf8_modulus_is_x3_plus_x_plus_1():
    F = FiniteField(2, 3)
    assert F.modulus == (1, 1, 0)


def test_gf9_arithmetic():
    F = FiniteField(3, 2)
    elems = F.elements()
    nonzero = [x for x in elems if not x.is_zero()]
    for x in nonzero:
        assert x * x.inverse() == F.one
        assert (F.size - 1) % x.multiplicative_order() == 0
    orders = sorted(x.multiplicative_order() for x in nonzero)
    assert orders.count(8) == 4


def test_prime_field():
    F = FiniteField(5, 1)
    assert F.from_integer(7) == FFElement(F, (2,))
    assert FFElement(F, (3,)) * FFElement(F, (4,)) == FFElement(F, (2,))


def test_element_of_order_is_encoding_smallest():
    F = FiniteField(2, 2)
    u = F.element_of_order(3)
    assert u == FFElement(F, (0, 1))
    F9 = FiniteField(3, 2)
    u8 = F9.element_of_order(8)
    assert u8.multiplicative_order() == 8
    candidates = [x for x in F9.elements() if not x.is_zero() and x.multiplicative_order() == 8]
    assert u8 == candidates[0]


def test_element_of_order_matches_scan_oracle():
    # every n dividing q - 1 on every GF(p^f) with q <= 1024
    cases = 0
    for p in (2, 3, 5, 7):
        f = 1
        while p**f <= 1024:
            F = FiniteField(p, f)
            for n in range(1, F.size):
                if (F.size - 1) % n == 0:
                    want = element_of_order_by_scan(F, n)
                    assert F.element_of_order(n) == want, (p, f, n)
                    cases += 1
            f += 1
    assert cases == 144


def test_element_of_order_in_gf3_12_is_the_scanned_one():
    # the element the full scan of GF(3^12) returns for n = 140
    u = FiniteField(3, 12).element_of_order(140)
    assert str(u) == "2 + t + t^2 + 2*t^3 + t^5 + t^8"


def test_large_fields_build_without_a_scan(fresh_fields):
    # GF(2^23) has 8.4 M elements, GF(3^12) 531441: neither is walked
    start = time.process_time()
    rmap = build_reduction(94, 2)
    took = time.process_time() - start
    assert rmap.f == 23 and rmap.e_prime == 47
    assert rmap.u.multiplicative_order() == 47
    assert took < 1.0, took
    start = time.process_time()
    rmap = build_reduction(420, 3)
    took = time.process_time() - start
    assert rmap.f == 12 and rmap.e_prime == 140
    assert took < 0.5, took


def test_d46_modular_data_takes_one_elimination():
    # D46 at 2 (23 classes, residue field GF(2^11)): with its blocks
    # built, the Brauer characters and the decomposition matrix take one
    # elimination; a fresh exact solve per candidate and per ordinary
    # character took over twice this bound
    blockset = block_data(dihedral(23), 2)
    start = time.process_time()
    ModularData(blockset)
    took = time.process_time() - start
    assert took < 0.3, took


def test_field_axioms_random():
    rng = random.Random(13)
    F = FiniteField(3, 3)
    elems = F.elements()
    for _ in range(60):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == F.zero


def test_reduction_gf4_example():
    rmap = build_reduction(3, 2)
    assert rmap.f == 2
    assert rmap.field == FiniteField(2, 2)
    u = reduce(rmap, zeta(3))
    assert u * u + u + rmap.field.one == rmap.field.zero
    assert reduce(rmap, plus(zeta(3), zeta(3, 2))) == rmap.field.one


def test_reduction_kills_p_power_roots():
    rmap = build_reduction(8, 2)
    assert reduce(rmap, zeta(8)) == rmap.field.one
    assert reduce(rmap, plus(zeta(8), zeta(8, 7))) == rmap.field.zero


def test_reduce_integer_is_mod_p():
    rmap = build_reduction(12, 3)
    for m in range(-5, 10):
        assert reduce(rmap, rational(m)) == rmap.field.from_integer(m)
        assert rmap.reduce((m,), 1) == rmap.field.from_integer(m)


def test_reduce_rejects_non_integers():
    rmap = build_reduction(3, 2)
    with pytest.raises(DomainError):
        rmap.reduce((Fraction(1, 2),), 1)


def test_reduce_rejects_foreign_conductor():
    rmap = build_reduction(3, 2)
    with pytest.raises(DomainError):
        reduce(rmap, zeta(5))
    with pytest.raises(DomainError, match="coordinate count"):
        rmap.reduce((0, 1, 0), 3)


def test_reduce_reads_coordinates_at_any_dividing_conductor():
    # a value of Q(zeta_o) reduces to the same element from its
    # coordinates at o and at every multiple of o dividing e
    rng = random.Random(7)
    for e, p in ((12, 2), (30, 3), (84, 7)):
        rmap = build_reduction(e, p)
        for o in (d for d in range(1, e + 1) if e % d == 0):
            x = random_value(rng, o, 3, 4)
            want = reduce(rmap, x)
            for m in range(o, e + 1, o):
                if e % m == 0:
                    assert rmap.reduce(x.lift_coords(m), m) == want, (e, p, o, m)


def test_reduction_is_ring_homomorphism_on_many_samples():
    rng = random.Random(101)
    for e, p in ((12, 2), (12, 3), (30, 2), (20, 5)):
        rmap = build_reduction(e, p)

        for _ in range(250):
            x, y = random_value(rng, e, 3, 4), random_value(rng, e, 3, 4)
            assert reduce(rmap, plus(x, y)) == reduce(rmap, x) + reduce(rmap, y)
            assert reduce(rmap, times(x, y)) == reduce(rmap, x) * reduce(rmap, y)


def test_root_image_has_exact_order():
    for e, p in ((12, 2), (30, 2), (20, 5), (21, 3), (12, 3)):
        rmap = build_reduction(e, p)
        if rmap.e_prime > 1:
            assert rmap.u.multiplicative_order() == rmap.e_prime
        image = reduce(rmap, zeta(e))
        assert image ** rmap.e_prime == rmap.field.one


def test_reduction_field_degrees():
    assert build_reduction(30, 2).f == 4
    assert build_reduction(12, 2).f == 2
    assert build_reduction(12, 3).f == 2
    assert build_reduction(21, 3).f == 6
    assert build_reduction(20, 5).f == 1
    assert build_reduction(420, 2).f == 12
    assert build_reduction(420, 7).f == 4


def test_root_image_of_wrong_order_is_rejected(monkeypatch, fresh_fields):
    monkeypatch.setattr(FiniteField, "element_of_order", lambda self, n: self.one)
    message = "root image has the wrong order for conductor 3 at p = 2"
    with pytest.raises(InternalCheckError, match=message):
        build_reduction(3, 2)


def test_missing_element_of_order_names_the_field(monkeypatch):
    # every encoding decodes to 1, so no candidate reaches order 8
    F = FiniteField(3, 2)
    monkeypatch.setattr(finitefield, "_digits", lambda code, p, f: F.one.coeffs)
    message = re.escape("no element of order 8 found in GF(3^2)")
    with pytest.raises(InternalCheckError, match=message):
        F.element_of_order(8)


def test_repeated_generating_powers_name_the_field_and_order(monkeypatch):
    # with no prime factor to test, 1 passes as a generator of order 8,
    # and its four generating powers are all 1
    F = FiniteField(3, 2)
    monkeypatch.setattr(finitefield, "prime_factors", lambda n: [])
    message = re.escape("element of order 8 in GF(3^2) are not distinct")
    with pytest.raises(InternalCheckError, match=message):
        F.element_of_order(8)


def test_missing_irreducible_names_the_degree_and_prime(monkeypatch):
    monkeypatch.setattr(finitefield, "_is_irreducible", lambda coeffs, p, f: False)
    message = re.escape("no irreducible polynomial of degree 3 found over GF(2)")
    with pytest.raises(InternalCheckError, match=message):
        FiniteField(2, 3)


def test_zeta_image_off_phi_e_is_rejected(monkeypatch):
    # u keeps its exact order, but zeta_3 is sent to u^0 = 1, which is
    # not a root of Phi_3 = x^2 + x + 1 mod 2: only the Phi_e gate sees it.
    init = ReductionMap.__init__

    def corrupted(self, e, p):
        init(self, e, p)
        self.alpha = 0

    monkeypatch.setattr(ReductionMap, "__init__", corrupted)
    with pytest.raises(InternalCheckError, match="Phi_3"):
        build_reduction(3, 2)
