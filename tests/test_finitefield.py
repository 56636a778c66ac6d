import random
import time
from fractions import Fraction

import pytest

from blockforge import blocks, clear_caches
from blockforge.arith import prime_factors, vp
from blockforge.blocks import block_data, p_regular_classes
from blockforge.cyclotomic import rational
from blockforge.errors import DomainError, InternalCheckError
from blockforge.finitefield import ReductionMap, build_reduction
from blockforge.modular import ModularData

from conftest import (
    alternating,
    cyclic,
    dihedral,
    frobenius20,
    frobenius21,
    oracle_groups,
    psl_2_7,
    random_value,
    s4_times_s3,
    symmetric,
)
from oracles import ResidueField, fields_above, plus, times, zeta


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
    # Phi_3 = x^2 + x + 1 is irreducible mod 2: the one field above 2 in
    # Q(zeta_3) is GF(4), and it is R itself
    rmap = build_reduction(3, 2)
    (F,) = fields_above(rmap)
    assert F.modulus == ResidueField.of_map(rmap).modulus == (1, 1)
    assert len(F.elements()) == 4
    t = (0, 1)
    assert F.mul(t, t) == F.add(t, F.one)


def test_gf8_modulus_is_x3_plus_x_plus_1():
    # Phi_7 = (x^3 + x + 1)(x^3 + x^2 + 1) mod 2: two copies of GF(8)
    moduli = [F.modulus for F in fields_above(build_reduction(7, 2))]
    assert moduli == [(1, 0, 1), (1, 1, 0)]


def test_gf9_arithmetic():
    # a field above 3 in Q(zeta_8): Phi_8 = x^4 + 1 splits into two
    # quadratics mod 3
    F = fields_above(build_reduction(8, 3))[0]
    assert F.size == 9
    elems = F.elements()
    nonzero = [x for x in elems if x != F.zero]
    for x in nonzero:
        assert F.mul(x, F.inverse(x)) == F.one
        assert (F.size - 1) % F.multiplicative_order(x) == 0
    orders = sorted(F.multiplicative_order(x) for x in nonzero)
    assert orders.count(8) == 4


def test_prime_field():
    # 5 = 1 mod 4, so Phi_4 splits into linear factors mod 5
    F = fields_above(build_reduction(4, 5))[0]
    assert F.size == 5
    assert F.of(7) == (2,)
    assert F.mul((3,), (4,)) == (2,)


def test_element_of_order_has_exact_order_in_gf4_and_gf9():
    # x, the image of zeta_e', has exact order e' in every residue field
    # above p, not only in R: order 3 in GF(4) and 8 in both GF(9)s
    for e, p in ((3, 2), (8, 3)):
        rmap = build_reduction(e, p)
        for F in fields_above(rmap):
            assert F.multiplicative_order(F.residue(rmap.powers[1])) == e


def test_element_of_order_in_gf3_12_has_exact_order():
    # and order 140 in each of the four copies of GF(3^12) above 3
    rmap = build_reduction(420, 3)
    fields = fields_above(rmap)
    assert [F.size for F in fields] == [3**12] * 4
    for F in fields:
        assert F.multiplicative_order(F.residue(rmap.powers[1])) == 140


def test_large_fields_build_without_a_scan(fresh_fields):
    # the residue fields GF(2^23) and GF(3^12) are neither searched for
    # nor walked: the rings modulo Phi_47 and Phi_140 hold them
    rmap = build_reduction(94, 2)
    assert rmap.width == 46 and rmap.e_prime == 47
    assert ResidueField.of_map(rmap).multiplicative_order(rmap.powers[1]) == 47
    rmap = build_reduction(420, 3)
    assert rmap.width == 48 and rmap.e_prime == 140


def test_d46_modular_data_takes_one_elimination():
    # D46 at 2 (23 classes, values of width phi(23) = 22): with its blocks
    # built, the Brauer characters and the decomposition matrix take one
    # elimination; a fresh exact solve per candidate and per ordinary
    # character took over twice this bound
    blockset = block_data(dihedral(23), 2)
    start = time.process_time()
    ModularData(blockset)
    took = time.process_time() - start
    assert took < 0.3, took


def test_field_axioms_random():
    # on the reference arithmetic: the ring axioms on GF(27), a field
    # above 3 in Q(zeta_13), and on R modulo Phi_8 at 3, a product of two
    # copies of GF(9); and the field inverse on GF(27)
    rng = random.Random(13)
    gf27 = fields_above(build_reduction(13, 3))[0]
    for F in (gf27, ResidueField.of_map(build_reduction(8, 3))):
        elems = F.elements()
        add, mul = F.add, F.mul
        for _ in range(60):
            a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert add(a, F.neg(a)) == F.zero
            assert F.sub(add(a, b), b) == a
    assert gf27.size == 27
    assert all(gf27.mul(a, gf27.inverse(a)) == gf27.one for a in gf27.elements()[1:])


def test_reduction_gf4_example():
    # Phi_3 = x^2 + x + 1 is irreducible mod 2, so R is GF(4) itself
    rmap = build_reduction(3, 2)
    assert rmap.width == 2
    F = ResidueField.of_map(rmap)
    assert F.modulus == (1, 1)
    assert [G.modulus for G in fields_above(rmap)] == [(1, 1)]
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


def test_reduce_memo_keeps_every_image_and_gate(fresh_fields):
    # A hit returns what a fresh map weighs, and the gates still fire on
    # new inputs after hits; an input that raises is not kept.
    rng = random.Random(11)
    rmap, fresh = build_reduction(84, 7), ReductionMap(84, 7)
    orders = (1, 3, 4, 12, 21, 84)
    values = [random_value(rng, o, 3, 4) for o in orders for _ in range(4)]
    for _ in range(2):
        for x in values:
            want = fresh._weigh(x.coords, fresh.alpha * (84 // x.conductor))
            assert reduce(rmap, x) == want, x
            assert rmap.reduce(list(x.coords), x.conductor) == want, x
    kept = len(rmap._images)
    assert kept == len({(x.conductor, x.coords) for x in values})
    with pytest.raises(DomainError, match="outside the source field"):
        reduce(rmap, zeta(5))
    with pytest.raises(DomainError, match="coordinate count"):
        rmap.reduce((0, 1, 0), 3)
    with pytest.raises(DomainError, match="non-integral"):
        rmap.reduce((Fraction(1, 2), 1), 3)
    assert len(rmap._images) == kept


def test_clear_caches_drops_the_reduce_memo(fresh_fields):
    rmap = build_reduction(12, 2)
    image = reduce(rmap, zeta(12))
    assert rmap._images
    clear_caches()
    again = build_reduction(12, 2)
    assert again is not rmap and not again._images
    assert reduce(again, zeta(12)) == image


def test_block_data_weighs_each_distinct_value_once(monkeypatch, fresh_fields):
    # _weigh calls under a cold block_data(G, 2), build_reduction's own
    # included; weighing every reduce call made S4xS3 256, A7 100,
    # S6 144, C55 6,051 and D94 1,226.
    calls = []
    weigh = ReductionMap._weigh

    def counted(self, coords, step):
        calls.append(step)
        return weigh(self, coords, step)

    monkeypatch.setattr(ReductionMap, "_weigh", counted)
    for G, most in (
        (s4_times_s3(), 55),
        (alternating(7), 59),
        (symmetric(6), 42),
        (cyclic(55), 73),
        (dihedral(47), 31),
    ):
        clear_caches()
        calls.clear()
        block_data(G, 2)
        assert len(calls) <= most, (G, len(calls))


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
        assert F.multiplicative_order(rmap.powers[1]) == rmap.e_prime
        image = reduce(rmap, zeta(e))
        assert F.pow(image, rmap.e_prime) == F.one


def test_reduction_field_degrees():
    # R has width phi(e'), and Phi_e' splits mod p into phi(e') / f
    # irreducible factors of degree f, the order of p mod e'
    for e, p, width, f in (
        (30, 2, 8, 4),
        (12, 2, 2, 2),
        (12, 3, 2, 2),
        (21, 3, 6, 6),
        (20, 5, 2, 1),
        (420, 2, 48, 12),
        (420, 7, 16, 4),
    ):
        rmap = build_reduction(e, p)
        assert rmap.width == width, (e, p)
        assert [F.f for F in fields_above(rmap)] == [f] * (width // f), (e, p)


def test_root_image_of_wrong_order_is_rejected(monkeypatch, fresh_fields):
    # a power table forged as that of 1 passes x^e' = 1 but not
    # x^(e'/r) != 1
    init = ReductionMap.__init__

    def forged(self, e, p):
        init(self, e, p)
        self.powers = [self.powers[0]] * len(self.powers)

    monkeypatch.setattr(ReductionMap, "__init__", forged)
    message = "root image has the wrong order for conductor 3 at p = 2"
    with pytest.raises(InternalCheckError, match=message):
        build_reduction(3, 2)


def test_root_image_of_larger_order_is_rejected(monkeypatch, fresh_fields):
    # for e' = 4 at p = 3, R = GF(3)[x]/(x^2 + 1) is GF(9): a power table
    # forged as that of y = 1 + x, of order 8, passes y^(e'/2) = y^2 != 1
    # but not y^e' = y^4 = 1
    init = ReductionMap.__init__

    def forged(self, e, p):
        init(self, e, p)
        F = ResidueField.of_map(self)
        assert F.multiplicative_order((1, 1)) == 8
        self.powers = [F.pow((1, 1), k) for k in range(len(self.powers))]

    monkeypatch.setattr(ReductionMap, "__init__", forged)
    message = "root image has the wrong order for conductor 4 at p = 3"
    with pytest.raises(InternalCheckError, match=message):
        build_reduction(4, 3)


def test_zeta_image_off_phi_e_is_rejected(monkeypatch, fresh_fields):
    # x keeps its exact order, but zeta_3 is sent to x^0 = 1, which is
    # not a root of Phi_3 = x^2 + x + 1 mod 2: only the Phi_e gate sees it.
    init = ReductionMap.__init__

    def corrupted(self, e, p):
        init(self, e, p)
        self.alpha = 0

    monkeypatch.setattr(ReductionMap, "__init__", corrupted)
    with pytest.raises(InternalCheckError, match="Phi_3"):
        build_reduction(3, 2)


def test_blocks_in_r_are_the_blocks_in_each_residue_field():
    # R is the product of the residue fields above p, each R modulo an
    # irreducible factor of Phi_e' mod p: the central characters bucket
    # into the same blocks in R as in every one of those fields, and in
    # every field each block keeps a nonzero central character on a
    # p-regular class with |C_G(x_K)|_p = p^d, a defect class.  F21 at 2
    # has central-character values of norm 2, each nonzero in one of its
    # two fields only.
    cases = []

    def check(G, p):
        bs = block_data(G, p)
        rows = [
            blocks._reduced_central(bs.table, i, bs.rmap, p)
            for i in range(len(bs.table.values))
        ]
        want = {frozenset(b.char_indices) for b in bs.blocks}
        sizes = [G.order() // c.size for c in G.conjugacy_classes()]
        fields = fields_above(bs.rmap)
        for F in fields:
            buckets = {}
            for i, row in enumerate(rows):
                buckets.setdefault(tuple(map(F.residue, row)), set()).add(i)
            assert set(map(frozenset, buckets.values())) == want, (G, p, F.modulus)
            for b in bs.blocks:
                assert any(
                    any(F.residue(b.reduced_central[k]))
                    and vp(sizes[k], p) == b.defect
                    for k in p_regular_classes(G, p)
                ), (G, p, F.modulus, b.index)
        cases.append(len(fields))

    for G, p in (
        (frobenius21(), 2),
        (cyclic(35), 2),
        (dihedral(35), 2),
        (alternating(5), 2),
        (alternating(7), 2),
        (symmetric(6), 3),
        (symmetric(6), 5),
        (psl_2_7(), 7),
        (frobenius20(), 5),
    ):
        check(G, p)
    assert cases == [2, 2, 2, 2, 4, 2, 2, 2, 2]
    f21 = block_data(frobenius21(), 2)
    seen = [
        [bool(any(F.residue(v))) for F in fields_above(f21.rmap)]
        for i in range(5)
        for v in blocks._reduced_central(f21.table, i, f21.rmap, 2)
    ]
    assert [True, False] in seen and [False, True] in seen
    clear_caches()
    for G in oracle_groups(()):
        for p in prime_factors(G.order()):
            check(G, p)
    assert (len(cases), sum(cases)) == (83, 140)
