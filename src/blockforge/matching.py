"""Bipartite divisibility matchings between degree multisets.

A perfect matching pairs every left degree with a distinct right degree
that divides it.  When none exists the failure is certified by a Hall
violator: a subset of one side adjacent to strictly fewer vertices on
the other side.  The smallest violator is reported, scanning the right
side before the left at each size so a deficient right subset (degrees
that divide nothing on the left) is preferred as the witness.

The augmenting-path search itself, ``maximum_matching``, takes any
adjacency: the Question 3.5 search calls it directly, on an adjacency
that also asks for equal decomposition rows, and never needs a Hall
violator.

Every ``InternalCheckError`` raised here names the degrees' context,
given by the caller (the group, the prime and, where there is one, the
block).
"""

from itertools import combinations

from .errors import InternalCheckError

_EXHAUSTIVE_LIMIT = 20


class MatchingOutcome:
    """Either a perfect divisibility matching or its refutation."""

    __slots__ = ("ok", "pairs", "violator_side", "violator", "reason")

    def __init__(self, ok, pairs=None, violator_side=None, violator=None,
                 reason=None):
        self.ok = ok
        self.pairs = pairs
        self.violator_side = violator_side
        self.violator = violator
        self.reason = reason

    def __repr__(self):
        if self.ok:
            return f"MatchingOutcome(pairs={list(self.pairs)})"
        return (
            f"MatchingOutcome({self.reason}:"
            f" {self.violator_side} {self.violator})"
        )


def divisibility_matching(left, right, where):
    """Match each left degree to a distinct right degree dividing it;
    where names the degrees in error messages."""
    left = tuple(left)
    right = tuple(right)
    if len(left) != len(right):
        return MatchingOutcome(
            False,
            violator_side="right" if len(right) > len(left) else "left",
            violator=tuple(sorted(right if len(right) > len(left) else left)),
            reason="size mismatch",
        )
    n = len(left)
    adj = [
        tuple(
            j
            for j in sorted(range(n), key=lambda j: (right[j], j))
            if left[i] % right[j] == 0
        )
        for i in range(n)
    ]
    match_of_left, match_of_right = maximum_matching(
        adj, sorted(range(n), key=lambda i: (left[i], i))
    )
    if all(j is not None for j in match_of_left):
        pairs = tuple((i, match_of_left[i]) for i in range(n))
        _check_matching(left, right, pairs, where)
        return MatchingOutcome(True, pairs=pairs)
    side, subset = _hall_violator(adj, match_of_left, match_of_right, where)
    degrees = right if side == "right" else left
    witness = tuple(sorted(degrees[i] for i in subset))
    _check_violator(left, right, adj, side, subset, where)
    return MatchingOutcome(
        False, violator_side=side, violator=witness, reason="hall violator"
    )


def maximum_matching(adj, order):
    """A maximum matching of the bipartite graph on n = len(adj) left
    and n right vertices in which left vertex i may take the right
    vertices adj[i], tried in that order.  Augmenting paths are grown
    from the left vertices in the given order.
    Returns (match_of_left, match_of_right), with None for an unmatched
    vertex; the matching is perfect exactly when match_of_left holds no
    None."""
    n = len(adj)
    match_of_right = [None] * n
    match_of_left = [None] * n

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_of_right[j] is None or augment(match_of_right[j], seen):
                match_of_right[j] = i
                match_of_left[i] = j
                return True
        return False

    for i in order:
        augment(i, set())
    return match_of_left, match_of_right


def _check_matching(left, right, pairs, where):
    lefts = sorted(i for i, _ in pairs)
    rights = sorted(j for _, j in pairs)
    if lefts != list(range(len(left))) or rights != list(range(len(right))):
        raise InternalCheckError(f"matching of {where} is not a bijection")
    for i, j in pairs:
        if left[i] % right[j]:
            raise InternalCheckError(
                f"matched degree does not divide in the matching of {where}"
            )


def _neighbor_count(adj_for_side, subset):
    seen = set()
    for i in subset:
        seen.update(adj_for_side[i])
    return len(seen)


def _hall_violator(adj, match_of_left, match_of_right, where):
    n = len(adj)
    if n <= _EXHAUSTIVE_LIMIT:
        radj = [tuple(i for i in range(n) if j in adj[i]) for j in range(n)]
        for size in range(1, n + 1):
            for side, nbrs in (("right", radj), ("left", adj)):
                for subset in combinations(range(n), size):
                    if _neighbor_count(nbrs, subset) < size:
                        return side, subset
        raise InternalCheckError(
            f"matching of {where} failed but no Hall violator exists"
        )
    # Too many subsets to scan: fall back to the deficiency witness from
    # the maximum matching just found, without the minimality promise.
    # The left vertices reachable from unmatched ones along alternating
    # paths have only matched neighbours, whose partners are all in the
    # set, so the set outnumbers its neighbourhood (König).
    frontier = [i for i in range(n) if match_of_left[i] is None]
    reachable = set(frontier)
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            owner = match_of_right[j]
            if owner is not None and owner not in reachable:
                reachable.add(owner)
                frontier.append(owner)
    return "left", tuple(sorted(reachable))


def _check_violator(left, right, adj, side, subset, where):
    n = len(left)
    if side == "left":
        nbrs = adj
    else:
        nbrs = [tuple(i for i in range(n) if j in adj[i]) for j in range(n)]
    if _neighbor_count(nbrs, subset) >= len(subset):
        raise InternalCheckError(
            f"reported Hall violator of {where} is not deficient"
        )
