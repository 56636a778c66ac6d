import random

import re

import pytest

from blockforge import matching
from blockforge.errors import InternalCheckError
from blockforge.matching import divisibility_matching, maximum_matching

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
    assert maximum_matching([(0, 1), (0,)], (0, 1)) == ([1, 0], [1, 0])
    # longer path: 2 -> 0 displaces 0 -> 1 displaces 1 -> 2
    assert maximum_matching([(0, 1), (1, 2), (0,)], (0, 1, 2)) == (
        [1, 2, 0], [2, 0, 1]
    )
    # the order picks which of two rivals keeps the one right vertex
    assert maximum_matching([(0,), (0,)], (0, 1)) == ([0, None], [0, None])
    assert maximum_matching([(0,), (0,)], (1, 0)) == ([None, 0], [1, None])


def test_maximum_matching_with_an_empty_row_is_not_perfect():
    match_of_left, match_of_right = maximum_matching([(0, 1), (), (1, 0)], (0, 1, 2))
    assert match_of_left == [0, None, 1]
    assert match_of_right == [0, 2, None]
    assert maximum_matching([], ()) == ([], [])


def test_matching_gates_name_their_degrees():
    where = "irr0 degrees on S4 at p = 2, block 0"
    cases = [
        (matching._check_matching, ((1, 1), (1, 1), ((0, 0), (1, 0)), where),
         "matching of irr0 degrees on S4 at p = 2, block 0 is not a bijection"),
        (matching._check_matching, ((1, 3), (2, 1), ((0, 0), (1, 1)), where),
         "matched degree does not divide in the matching of " + where),
        (matching._hall_violator, ([(0,)], [0], [0], where),
         "matching of " + where + " failed but no Hall violator exists"),
        (matching._check_violator, ((2,), (1,), [(0,)], "left", (0,), where),
         "reported Hall violator of " + where + " is not deficient"),
    ]
    for gate, args, message in cases:
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            gate(*args)


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


def test_large_deficient_instance_uses_reachable_set_witness():
    # Above the exhaustive-scan limit the violator is the set of left
    # vertices reachable from unmatched ones along alternating paths.
    # That set is the left vertices some maximum matching leaves
    # unmatched, so it is checked here by removing one vertex at a time.
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
        assert out.violator_side == "left"
        assert _is_deficient(left, right, "left", out.violator)
        size = _max_matching_size(left, right)
        missable = [
            i for i in range(len(left))
            if _max_matching_size(left, right, without=i) == size
        ]
        assert out.violator == tuple(sorted(left[i] for i in missable))
    assert divisibility_matching(*cases[0], WHERE).violator == (4,) * 11


def _max_matching_size(left, right, without=None):
    owner = {}

    def augment(i, seen):
        for j, d in enumerate(right):
            if left[i] % d == 0 and j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(left)) if i != without)


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
