"""Bipartite divisibility matchings between degree multisets.

A perfect matching pairs every left degree with a distinct right degree
that divides it.  When none exists the failure is certified by a Hall
violator: a sub-multiset of one side's degrees adjacent to strictly
fewer entries on the other side.  The smallest violator is reported;
at equal size one of the right side (degrees that divide too little on
the left) is preferred, then the smallest sorted degrees.

Adjacency is degree divisibility, so equal degrees have equal
neighbourhoods: ``_hall_violator`` finds the witness from the sets of
distinct degrees alone, at most 2^(number of distinct degrees) sets per
side.

The augmenting-path search itself, ``maximum_matching``, takes any
adjacency: the Question 3.5 search calls it directly, on an adjacency
that also asks for equal decomposition rows, and never needs a Hall
violator.

Every ``InternalCheckError`` raised here names the degrees' context,
given by the caller (the group, the prime and, where there is one, the
block).
"""

from collections import Counter, namedtuple

from .errors import InternalCheckError

# Either a perfect divisibility matching or its refutation.
MatchingOutcome = namedtuple(
    "MatchingOutcome",
    ("ok", "pairs", "violator_side", "violator", "reason"),
    defaults=(None, None, None, None),
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
    right_order = sorted(range(n), key=lambda j: (right[j], j))
    adj = [tuple(j for j in right_order if d % right[j] == 0) for d in left]
    match_of_left = maximum_matching(
        adj, sorted(range(n), key=lambda i: (left[i], i))
    )
    if None not in match_of_left:
        pairs = tuple(enumerate(match_of_left))
        _check_matching(left, right, pairs, where)
        return MatchingOutcome(True, pairs=pairs)
    side, witness = _hall_violator(left, right, where)
    _check_violator(left, right, side, witness, where)
    return MatchingOutcome(
        False, violator_side=side, violator=witness, reason="hall violator"
    )


def maximum_matching(adj, order):
    """A maximum matching of the bipartite graph on n = len(adj) left
    and n right vertices in which left vertex i may take the right
    vertices adj[i], tried in that order.  Augmenting paths are grown
    from the left vertices in the given order.
    Returns match_of_left, with None for an unmatched left vertex; the
    matching is perfect exactly when it holds no None."""
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
    return match_of_left


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


def _adjacent(side, mine, other):
    """Whether a degree of the given side meets one of the other side."""
    return other % mine == 0 if side == "right" else mine % other == 0


def _hall_violator(left, right, where):
    """(side, sorted degrees) of the smallest Hall violator of two
    equally long degree lists: least size, then the right side, then
    the lexicographically smallest sorted degrees.

    Equal degrees have equal neighbourhoods.  So for a set T of
    distinct degrees on one side, with N(T) the entries of the other
    side adjacent to some degree in T, any |N(T)| + 1 copies of T's
    degrees are deficient; T's candidate is the smallest |N(T)| + 1, if
    T has that many copies.  Every candidate is a violator, and the
    support of the least violator gives a candidate no larger, so the
    least candidate over all T, both sides, is the least violator.

    On ascending lists, as every caller in the package passes, it is
    also the first deficient index subset in the order (size, right
    before left, lexicographic indices).  Let S_M take the first
    occurrences of the least violator M's degrees.  An index subset S
    of the same side and size before S_M first differs from it at some
    position, holding s where S_M holds m > s, so deg(s) <= deg(m).  If
    deg(s) < deg(m), S's sorted degrees come before M, so S is not
    deficient.  deg(s) = deg(m) cannot happen: S_M holds every index of
    that degree below m, and S shares them all before s."""
    best = None
    for side, mine, other in (("right", right, left), ("left", left, right)):
        counts = sorted(Counter(mine).items())
        reach = [
            {k for k, e in enumerate(other) if _adjacent(side, d, e)}
            for d, _ in counts
        ]
        # (next distinct degree, copies, neighbours) of a support T: N(T)
        # grows with T, so a T whose candidate is too big is not widened
        stack = [(0, [], set())]
        while stack:
            start, copies, nbrs = stack.pop()
            for t in range(start, len(counts)):
                wider = nbrs | reach[t]
                size = len(wider) + 1
                if best is not None and size > best[0]:
                    continue
                grown = copies + [counts[t][0]] * counts[t][1]
                key = (size, side == "left", tuple(grown[:size]))
                if len(grown) >= size and (best is None or key < best):
                    best = key
                stack.append((t + 1, grown, wider))
    if best is None:
        raise InternalCheckError(
            f"matching of {where} failed but no Hall violator exists"
        )
    _, on_left, degrees = best
    return "left" if on_left else "right", degrees


def _check_violator(left, right, side, degrees, where):
    mine, other = (left, right) if side == "left" else (right, left)
    nbrs = [e for e in other if any(_adjacent(side, d, e) for d in degrees)]
    if (side not in ("left", "right") or not degrees
            or Counter(degrees) - Counter(mine) or len(nbrs) >= len(degrees)):
        raise InternalCheckError(
            f"reported Hall violator of {where} is not deficient"
        )
