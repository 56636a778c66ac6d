import random

import re

import pytest

from blockforge import matching
from blockforge.errors import InternalCheckError
from blockforge.matching import divisibility_matching, maximum_matching
from oracles import hall_violator_by_multiplicities, hall_violator_by_subsets

WHERE = "test degrees"


def test_a5_ordinary_height_zero_shape_matches():
    left = (1, 3, 3, 5)
    right = (1, 1, 1, 3)
    out = divisibility_matching(left, right, WHERE)
    assert out.ok
    assert all(left[i] % right[j] == 0 for i, j in out.pairs)


def test_s4_height_zero_shape():
    out = divisibility_matching((1, 1, 3, 3), (1, 1, 1, 1), WHERE)
    assert out.ok
    pairs = [(1, 1), (1, 1), (3, 1), (3, 1)]
    left = (1, 1, 3, 3)
    right = (1, 1, 1, 1)
    assert sorted((left[i], right[j]) for i, j in out.pairs) == sorted(pairs)


def test_identity_matching():
    out = divisibility_matching((1, 2, 4), (1, 2, 4), WHERE)
    assert out.ok
    assert out.pairs == ((0, 0), (1, 1), (2, 2))


def test_size_mismatch_reports_larger_side():
    out = divisibility_matching((1, 3), (1,), WHERE)
    assert not out.ok
    assert out.reason == "size mismatch"
    assert out.violator_side == "left"
    assert out.violator == (1, 3)
    out = divisibility_matching((4,), (1, 2), WHERE)
    assert out.violator_side == "right"
    assert out.violator == (1, 2)


def test_right_singleton_violator():
    out = divisibility_matching((1,), (2,), WHERE)
    assert not out.ok
    assert out.reason == "hall violator"
    assert out.violator_side == "right"
    assert out.violator == (2,)


def test_smaller_left_violator_beats_larger_right_one():
    # Left 3 is isolated; the right pair {2, 4} is only deficient at
    # size two, so the singleton wins.
    out = divisibility_matching((4, 3), (2, 4), WHERE)
    assert not out.ok
    assert out.violator_side == "left"
    assert out.violator == (3,)


def test_isolated_right_vertex_found_first():
    out = divisibility_matching((3, 9), (2, 9), WHERE)
    assert not out.ok
    assert out.violator_side == "right"
    assert out.violator == (2,)


def test_left_violator_when_every_right_vertex_has_neighbors():
    out = divisibility_matching((1, 6), (2, 3), WHERE)
    assert not out.ok
    assert out.violator_side == "left"
    assert out.violator == (1,)


def test_nontrivial_divisor_matching():
    out = divisibility_matching((6, 10, 15), (2, 5, 5), WHERE)
    assert out.ok
    left = (6, 10, 15)
    right = (2, 5, 5)
    assert all(left[i] % right[j] == 0 for i, j in out.pairs)


def test_deterministic_across_runs():
    left = (2, 4, 8, 8, 6)
    right = (2, 2, 4, 1, 3)
    first = divisibility_matching(left, right, WHERE)
    second = divisibility_matching(left, right, WHERE)
    assert first.ok and second.ok
    assert first.pairs == second.pairs


def test_pairs_are_pinned():
    # the matchings divisibility_matching returned before the
    # augmenting-path search was split out of it
    cases = [
        ((2, 4, 8, 8, 6), (2, 2, 4, 1, 3),
         ((0, 1), (1, 2), (2, 0), (3, 3), (4, 4))),
        ((6, 10, 15), (2, 5, 5), ((0, 0), (1, 2), (2, 1))),
        ((4, 2), (2, 4), ((0, 1), (1, 0))),
        ((12, 6, 4, 3), (3, 6, 2, 4), ((0, 2), (1, 1), (2, 3), (3, 0))),
        ((4, 3, 8), (2, 4, 3), ((0, 1), (1, 2), (2, 0))),
        ((1, 6, 6), (2, 3, 1), ((0, 2), (1, 1), (2, 0))),
    ]
    for left, right, pairs in cases:
        assert divisibility_matching(left, right, WHERE).pairs == pairs


def test_maximum_matching_reroutes_along_an_augmenting_path():
    # no degrees: left 0 takes right 0 first, and left 1, which can only
    # take right 0, moves it on to right 1
    assert maximum_matching([(0, 1), (0,)], (0, 1)) == [1, 0]
    # longer path: 2 -> 0 displaces 0 -> 1 displaces 1 -> 2
    assert maximum_matching([(0, 1), (1, 2), (0,)], (0, 1, 2)) == [1, 2, 0]
    # the order picks which of two rivals keeps the one right vertex
    assert maximum_matching([(0,), (0,)], (0, 1)) == [0, None]
    assert maximum_matching([(0,), (0,)], (1, 0)) == [None, 0]


def test_maximum_matching_with_an_empty_row_is_not_perfect():
    match_of_left = maximum_matching([(0, 1), (), (1, 0)], (0, 1, 2))
    assert match_of_left == [0, None, 1]
    assert maximum_matching([], ()) == []


def test_matching_gates_name_their_degrees():
    where = "irr0 degrees on S4 at p = 2, block 0"
    cases = [
        (matching._check_matching, ((1, 1), (1, 1), ((0, 0), (1, 0)), where),
         "matching of irr0 degrees on S4 at p = 2, block 0 is not a bijection"),
        (matching._check_matching, ((1, 3), (2, 1), ((0, 0), (1, 1)), where),
         "matched degree does not divide in the matching of " + where),
        (matching._hall_violator, ((1,), (1,), where),
         "matching of " + where + " failed but no Hall violator exists"),
        (matching._check_violator, ((2,), (1,), "left", (2,), where),
         "reported Hall violator of " + where + " is not deficient"),
    ]
    for gate, args, message in cases:
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            gate(*args)


def test_violator_gate_checks_the_printed_degrees():
    # the same test as the benchmark's re-check: a sub-multiset of the
    # named side, adjacent to fewer entries than it has
    where = "test degrees"
    message = "reported Hall violator of " + where + " is not deficient"
    matching._check_violator((1, 3), (2, 3), "left", (1,), where)
    for side, degrees in (
        ("left", (1, 1)),   # not a sub-multiset of the left degrees
        ("right", (5,)),    # not a right degree at all
        ("left", ()),       # empty
        ("middle", (1,)),   # no such side
        ("right", (3,)),    # divides the left 3
    ):
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            matching._check_violator((1, 3), (2, 3), side, degrees, where)


def test_random_instances_agree_with_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 6)
        left = tuple(rng.choice((1, 2, 3, 4, 6, 8, 12)) for _ in range(n))
        right = tuple(rng.choice((1, 2, 3, 4, 6, 8, 12)) for _ in range(n))
        out = divisibility_matching(left, right, WHERE)
        assert out.ok == _has_perfect(left, right)
        if out.ok:
            assert all(left[i] % right[j] == 0 for i, j in out.pairs)
        else:
            assert _is_deficient(left, right, out.violator_side, out.violator)


def test_ascending_instances_agree_with_the_subset_scan():
    # on ascending lists, as the package passes them, the witness is
    # the first deficient index subset in scan order
    rng = random.Random(11)
    failures = 0
    for _ in range(2000):
        n = rng.randrange(1, 13)
        pool = rng.sample((1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16), rng.randrange(1, 6))
        left = tuple(sorted(rng.choice(pool) for _ in range(n)))
        right = tuple(sorted(rng.choice(pool) for _ in range(n)))
        out = divisibility_matching(left, right, WHERE)
        expected = hall_violator_by_subsets(left, right)
        assert out.ok == (expected is None)
        if not out.ok:
            failures += 1
            assert (out.violator_side, out.violator) == expected
    assert failures >= 500


def test_large_instances_agree_with_the_multiplicity_oracle():
    rng = random.Random(5)
    for n in range(20, 41):
        pool = rng.sample((1, 2, 3, 4, 6, 8, 9, 12, 18), 4)
        left = tuple(sorted(rng.choice(pool) for _ in range(n)))
        right = tuple(sorted(rng.choice(pool) for _ in range(n)))
        out = divisibility_matching(left, right, WHERE)
        expected = hall_violator_by_multiplicities(left, right)
        assert out.ok == (expected is None)
        if not out.ok:
            assert (out.violator_side, out.violator) == expected


def test_large_deficient_instances_give_the_smallest_witness():
    # more than 20 degrees, several of them distinct
    rng = random.Random(3)
    cases = [((4,) * 11 + (9,) * 11, (2,) * 10 + (3,) * 11 + (7,))]
    for _ in range(5):
        cases.append((
            tuple(rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(24)),
            tuple(rng.choice((2, 3, 4, 5, 8, 9)) for _ in range(24)),
        ))
    for left, right in cases:
        out = divisibility_matching(left, right, WHERE)
        assert not out.ok
        assert out.reason == "hall violator"
        assert _is_deficient(left, right, out.violator_side, out.violator)
        expected = hall_violator_by_multiplicities(left, right)
        assert (out.violator_side, out.violator) == expected
    out = divisibility_matching(*cases[0], WHERE)
    assert (out.violator_side, out.violator) == ("right", (7,))


def test_two_degree_instance_of_twenty():
    # the left 3s reach only the nine right 3s: over a million index
    # subsets, but two distinct degrees a side
    left = (2,) * 10 + (3,) * 10
    right = (2,) * 11 + (3,) * 9
    out = divisibility_matching(left, right, WHERE)
    assert (out.violator_side, out.violator) == ("left", (3,) * 10)
    assert hall_violator_by_multiplicities(left, right) == ("left", (3,) * 10)


def _has_perfect(left, right):
    n = len(left)

    def extend(i, used):
        if i == n:
            return True
        for j in range(n):
            if j not in used and left[i] % right[j] == 0:
                if extend(i + 1, used | {j}):
                    return True
        return False

    return extend(0, frozenset())


def _is_deficient(left, right, side, witness):
    neighbors = set()
    if side == "right":
        for w in witness:
            neighbors.update(i for i, d in enumerate(left) if d % w == 0)
    else:
        for w in witness:
            neighbors.update(j for j, d in enumerate(right) if w % d == 0)
    return len(neighbors) < len(witness)
