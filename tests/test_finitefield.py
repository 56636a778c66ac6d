import random
import re
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from blockforge import clear_caches, finitefield
from blockforge.blocks import block_data
from blockforge.cli import main
from blockforge.cyclotomic import rational
from blockforge.errors import DomainError, InternalCheckError
from blockforge.finitefield import (
    ReductionMap,
    build_reduction,
    element_of_order,
    mul_coeffs,
    residue_field,
)
from blockforge.modular import ModularData

from conftest import dihedral, random_value
from oracles import ResidueField, plus, times, zeta


@pytest.fixture
def fresh_fields():
    """Empty every cache of the package before and after the test, so a
    monkeypatched routine is consulted and nothing it made outlives it."""
    clear_caches()
    yield
    clear_caches()


def reduce(rmap, x):
    """A cyclotomic integer reduced from its coordinates at its own
    conductor."""
    return rmap.reduce(x.coords, x.conductor)


def test_gf4_modulus_and_elements():
    F = ResidueField(2, 2)
    assert residue_field(2, 2) == (1, 1)
    assert len(F.elements()) == 4
    t = (0, 1)
    assert mul_coeffs(t, t, 2, F.modulus) == F.add(t, F.one)
    assert F.mul(t, t) == F.add(t, F.one)


def test_gf8_modulus_is_x3_plus_x_plus_1():
    assert residue_field(2, 3) == (1, 1, 0)


def test_gf9_arithmetic():
    F = ResidueField(3, 2)
    elems = F.elements()
    nonzero = [x for x in elems if x != F.zero]
    for x in nonzero:
        assert F.mul(x, F.inverse(x)) == F.one
        assert (F.size - 1) % F.multiplicative_order(x) == 0
    orders = sorted(F.multiplicative_order(x) for x in nonzero)
    assert orders.count(8) == 4


def test_prime_field():
    F = ResidueField(5, 1)
    assert F.of(7) == (2,)
    assert F.mul((3,), (4,)) == (2,)
    assert mul_coeffs((3,), (4,), 5, residue_field(5, 1)) == (2,)


def test_element_of_order_has_exact_order_in_gf4_and_gf9():
    assert ResidueField(2, 2).multiplicative_order(element_of_order(2, 2, 3)) == 3
    assert ResidueField(3, 2).multiplicative_order(element_of_order(3, 2, 8)) == 8


def test_element_of_order_has_exact_order_on_small_fields():
    # every n dividing q - 1 on every GF(p^f) with q <= 1024
    cases = 0
    for p in (2, 3, 5, 7):
        f = 1
        while p**f <= 1024:
            F = ResidueField(p, f)
            for n in range(1, F.size):
                if (F.size - 1) % n == 0:
                    u = element_of_order(p, f, n)
                    assert F.multiplicative_order(u) == n, (p, f, n)
                    cases += 1
            f += 1
    assert cases == 144


def test_element_of_order_in_gf3_12_has_exact_order():
    u = element_of_order(3, 12, 140)
    assert ResidueField(3, 12).multiplicative_order(u) == 140


def test_large_fields_build_without_a_scan(fresh_fields):
    # GF(2^23) has 8.4 M elements, GF(3^12) 531441: neither is walked
    start = time.process_time()
    rmap = build_reduction(94, 2)
    took = time.process_time() - start
    assert rmap.f == 23 and rmap.e_prime == 47
    assert ResidueField(2, 23).multiplicative_order(rmap.u) == 47
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
    # on the reference arithmetic, and its product against mul_coeffs
    rng = random.Random(13)
    F = ResidueField(3, 3)
    elems = F.elements()
    add, mul = F.add, F.mul
    for _ in range(60):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, F.neg(a)) == F.zero
        assert F.sub(add(a, b), b) == a
        assert mul(a, b) == mul_coeffs(a, b, 3, F.modulus)


def test_reduction_gf4_example():
    rmap = build_reduction(3, 2)
    assert rmap.f == 2
    assert rmap.modulus == residue_field(2, 2)
    F = ResidueField.of_map(rmap)
    u = reduce(rmap, zeta(3))
    assert F.add(F.add(F.mul(u, u), u), F.one) == F.zero
    assert reduce(rmap, plus(zeta(3), zeta(3, 2))) == F.one


def test_reduction_kills_p_power_roots():
    rmap = build_reduction(8, 2)
    assert reduce(rmap, zeta(8)) == (1,)
    assert reduce(rmap, plus(zeta(8), zeta(8, 7))) == (0,)


def test_reduce_integer_is_mod_p():
    rmap = build_reduction(12, 3)
    F = ResidueField.of_map(rmap)
    for m in range(-5, 10):
        assert reduce(rmap, rational(m)) == F.of(m)
        assert rmap.reduce((m,), 1) == F.of(m)


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
        F = ResidueField.of_map(rmap)
        for _ in range(250):
            x, y = random_value(rng, e, 3, 4), random_value(rng, e, 3, 4)
            assert reduce(rmap, plus(x, y)) == F.add(reduce(rmap, x), reduce(rmap, y))
            assert reduce(rmap, times(x, y)) == F.mul(reduce(rmap, x), reduce(rmap, y))


def test_root_image_has_exact_order():
    for e, p in ((12, 2), (30, 2), (20, 5), (21, 3), (12, 3)):
        rmap = build_reduction(e, p)
        F = ResidueField.of_map(rmap)
        if rmap.e_prime > 1:
            assert F.multiplicative_order(rmap.u) == rmap.e_prime
        image = reduce(rmap, zeta(e))
        assert F.pow(image, rmap.e_prime) == F.one


def test_reduction_field_degrees():
    assert build_reduction(30, 2).f == 4
    assert build_reduction(12, 2).f == 2
    assert build_reduction(12, 3).f == 2
    assert build_reduction(21, 3).f == 6
    assert build_reduction(20, 5).f == 1
    assert build_reduction(420, 2).f == 12
    assert build_reduction(420, 7).f == 4


def test_root_image_of_wrong_order_is_rejected(monkeypatch, fresh_fields):
    # u = 1 passes u^e' = 1 but not u^(e'/r) != 1
    monkeypatch.setattr(
        finitefield, "element_of_order", lambda p, f, n: (1,) + (0,) * (f - 1)
    )
    message = "root image has the wrong order for conductor 3 at p = 2"
    with pytest.raises(InternalCheckError, match=message):
        build_reduction(3, 2)


def test_root_image_of_larger_order_is_rejected(monkeypatch, fresh_fields):
    # for e' = 4 at p = 3 (GF(9)), an element of order 8 passes
    # u^(e'/2) = u^2 != 1 but not u^e' = u^4 = 1
    u8 = element_of_order(3, 2, 8)
    monkeypatch.setattr(finitefield, "element_of_order", lambda p, f, n: u8)
    message = "root image has the wrong order for conductor 4 at p = 3"
    with pytest.raises(InternalCheckError, match=message):
        build_reduction(4, 3)


def test_missing_element_of_order_names_the_field(monkeypatch):
    # every encoding decodes to 1, so no candidate reaches order 8
    residue_field(3, 2)
    monkeypatch.setattr(finitefield, "_digits", lambda code, p, f: (1, 0))
    message = re.escape("no element of order 8 found in GF(3^2)")
    with pytest.raises(InternalCheckError, match=message):
        element_of_order(3, 2, 8)


def test_missing_irreducible_names_the_degree_and_prime(monkeypatch, fresh_fields):
    monkeypatch.setattr(finitefield, "_is_irreducible", lambda coeffs, p, f: False)
    message = re.escape("no irreducible polynomial of degree 3 found over GF(2)")
    with pytest.raises(InternalCheckError, match=message):
        residue_field(2, 3)


def test_zeta_image_off_phi_e_is_rejected(monkeypatch, fresh_fields):
    # u keeps its exact order, but zeta_3 is sent to u^0 = 1, which is
    # not a root of Phi_3 = x^2 + x + 1 mod 2: only the Phi_e gate sees it.
    init = ReductionMap.__init__

    def corrupted(self, e, p):
        init(self, e, p)
        self.alpha = 0

    monkeypatch.setattr(ReductionMap, "__init__", corrupted)
    with pytest.raises(InternalCheckError, match="Phi_3"):
        build_reduction(3, 2)


def test_report_bytes_do_not_depend_on_the_root(monkeypatch, fresh_fields, capsys):
    # another root of exact order e' picks another ideal above p: the
    # catalog and the benchmark's stress jobs print the same bytes, and
    # exit with the same codes, under the root raised to the largest
    # k < e' prime to e'.
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
    jobs = [["verify", "all", "--format", "json"]] + [
        ["verify", "all", str(bench / name), "-p", str(p), "--format", "json"]
        for name, p in (
            ("s4xs3.grp", 2), ("s5.grp", 2), ("s6.grp", 3), ("s6.grp", 5),
            ("psl27.grp", 7),
        )
    ]

    def outputs():
        out = []
        for argv in jobs:
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    expected = outputs()
    real = finitefield.element_of_order
    moved = []

    def other_root(p, f, n):
        w = real(p, f, n)
        k = max(k for k in range(n) if gcd(k, n) == 1)
        u = ResidueField(p, f).pow(w, k)
        moved.append(u != w)
        return u

    monkeypatch.setattr(finitefield, "element_of_order", other_root)
    clear_caches()
    assert outputs() == expected
    assert any(moved)
