import random
from itertools import permutations

from blockforge.perms import (
    cycles,
    format_perm,
    identity,
    inverse,
    is_perm,
    mult,
    order,
    power,
    right_factor,
)

import oracles


def test_mult_applies_right_factor_first():
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert mult(p, q) == tuple(p[q[i]] for i in range(3))


def test_mult_is_a_tuple_at_every_degree():
    # itemgetter returns a bare item for one index and cannot be built
    # from none, so degrees 0 and 1 take another path
    rng = random.Random(3)
    for degree in (0, 1, 2, 8):
        for _ in range(10):
            p, q = (tuple(rng.sample(range(degree), degree)) for _ in range(2))
            got = mult(p, q)
            assert type(got) is tuple, degree
            assert got == oracles.omult(p, q), (p, q)


def test_right_factor_is_mult_with_the_right_factor_fixed():
    # exhaustive at degrees 0-4: a bare itemgetter cannot be built at
    # degree 0 and returns a bare item at degree 1
    for degree in range(5):
        perms = list(permutations(range(degree)))
        for q in perms:
            by_q = right_factor(q)
            for p in perms:
                got = by_q(p)
                assert type(got) is tuple, degree
                assert got == oracles.omult(p, q), (p, q)
    rng = random.Random(12)
    for _ in range(200):
        p, q = (tuple(rng.sample(range(12), 12)) for _ in range(2))
        assert right_factor(q)(p) == oracles.omult(p, q), (p, q)


def test_identity_and_inverse():
    e = identity(5)
    assert e == (0, 1, 2, 3, 4)
    p = (2, 0, 3, 1, 4)
    assert mult(p, inverse(p)) == e
    assert mult(inverse(p), p) == e


def test_power_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(50):
        img = list(range(7))
        rng.shuffle(img)
        p = tuple(img)
        acc = identity(7)
        for k in range(10):
            assert power(p, k) == acc
            acc = mult(acc, p)
        assert power(p, -1) == inverse(p)
        assert power(p, -3) == inverse(power(p, 3))


def test_order_is_lcm_of_cycle_lengths():
    p = (1, 0, 3, 4, 2)
    assert order(p) == 6
    assert order(identity(4)) == 1


def test_cycles_start_at_smallest_point():
    p = (1, 0, 3, 4, 2)
    assert cycles(p) == [(0, 1), (2, 3, 4)]


def test_format_perm_is_one_based():
    assert format_perm((1, 0, 3, 4, 2)) == "(1 2)(3 4 5)"
    assert format_perm(identity(3)) == "()"


def test_is_perm_rejects_bad_tuples():
    assert is_perm((0, 1, 2), 3)
    assert not is_perm((0, 0, 2), 3)
    assert not is_perm((0, 1, 3), 3)
    assert not is_perm((0, 1), 3)


def test_agrees_with_oracle_arithmetic():
    rng = random.Random(3)
    for _ in range(30):
        img1 = list(range(8))
        img2 = list(range(8))
        rng.shuffle(img1)
        rng.shuffle(img2)
        p, q = tuple(img1), tuple(img2)
        assert mult(p, q) == oracles.omult(p, q)
        assert inverse(p) == oracles.oinv(p)
        assert order(p) == oracles.perm_order(p)
