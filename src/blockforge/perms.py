"""Permutations on {0, ..., n-1} stored as image tuples.

A permutation of degree n is a tuple p of length n with p[i] the image
of point i.  Composition is mult(p, q) = "apply q first, then p", so
mult(p, q)[i] == p[q[i]].  Tuples are immutable and hashable, which lets
groups of permutations live in sets and dict keys without ceremony.

The product kernel is ``right_factor(q)``, the map p -> mult(p, q) built
once: ``itemgetter(*q)``, which builds each product tuple in C.  A loop
that keeps one factor fixed (coset enumeration, conjugation, class
matrices) builds the map once and applies it, often through
``map``, with no Python frame per product.  ``itemgetter`` returns a
bare item for one index and cannot be built from none, so degrees 0 and
1 take a tuple expression instead; that case is handled in
``right_factor`` alone.  ``mult`` is the one-off product, through the
same kernel.

Cycle notation used for display and in group files is 1-based.
"""

from math import lcm
from operator import itemgetter


def identity(degree):
    return tuple(range(degree))


def right_factor(q):
    """The map p -> mult(p, q) for a fixed right factor q."""
    if len(q) > 1:
        return itemgetter(*q)
    return lambda p: tuple(p[i] for i in q)


def mult(p, q):
    """Compose two permutations: apply q first, then p."""
    return right_factor(q)(p)


def inverse(p):
    r = [0] * len(p)
    for i, ip in enumerate(p):
        r[ip] = i
    return tuple(r)


def power(p, k):
    """p**k for any integer k, by repeated squaring."""
    n = len(p)
    if k < 0:
        p = inverse(p)
        k = -k
    result = identity(n)
    while k:
        if k & 1:
            result = mult(result, p)
        p = mult(p, p)
        k >>= 1
    return result


def cycles(p):
    """Disjoint cycles of length >= 2, each starting at its smallest point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        out.append(tuple(cyc))
    return out


def order(p):
    result = 1
    for cyc in cycles(p):
        result = lcm(result, len(cyc))
    return result


def format_perm(p):
    """Render in 1-based disjoint-cycle notation; identity renders as ()."""
    cycs = cycles(p)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in cycs)


def is_perm(p, degree):
    return len(p) == degree and sorted(p) == list(range(degree))
