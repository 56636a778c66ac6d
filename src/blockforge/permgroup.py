"""Finite permutation groups with a Schreier-Sims stabilizer chain.

A PermutationGroup is immutable after construction.  The constructor
builds a base-and-strong-generating-set chain, so order and membership
are exact from the start.  Everything here is written for desk scale
(orders up to about 10^5): several operations enumerate elements
outright, and each such function says so in its docstring.

Determinism: no randomness is used anywhere in this module, and every
derived object (conjugacy classes, Sylow subgroups, subgroup closures)
is ordered by explicit lexicographic rules, so repeated runs produce
identical results.

Every loop here that keeps one factor of a product fixed (sifting,
Schreier generators, element enumeration, conjugation) builds that
factor's map once with ``perms.right_factor`` and applies it.

Normal structure (the normal subgroups, O_p, O_p' and p-solvability)
lives in ``chartab``: it is read off the character table, which this
module does not import.
"""

from collections import namedtuple
from functools import lru_cache
from math import lcm
from operator import itemgetter

from .arith import is_prime, p_part
from .errors import DomainError, InternalCheckError
from .perms import identity, inverse, is_perm, moved_points, order, power, right_factor


class _Level:
    """One level of the stabilizer chain: a base point, generators of the
    stabilizer of all earlier base points, a transversal of the orbit
    (orbit point -> element taking the base point there) and ``inverses``,
    the inverse of each transversal element under the same key, which
    every sift reads."""

    __slots__ = ("base", "gens", "transversal", "inverses")

    def __init__(self, base):
        self.base = base
        self.gens = []
        self.transversal = {}
        self.inverses = {}

    def rebuild(self, degree):
        ident = identity(degree)
        self.transversal = {self.base: ident}
        self.inverses = {self.base: ident}
        gens = [(s, right_factor(inverse(s))) for s in self.gens]
        queue = [self.base]
        for pt in queue:
            by_u = right_factor(self.transversal[pt])
            uinv = self.inverses[pt]
            for s, by_sinv in gens:
                np = s[pt]
                if np not in self.transversal:
                    self.transversal[np] = by_u(s)
                    self.inverses[np] = by_sinv(uinv)
                    queue.append(np)


class PermutationGroup:
    """A subgroup of the symmetric group on {0, ..., degree-1}."""

    def __init__(self, degree, generators=(), name=None):
        if degree < 1:
            raise DomainError(f"degree must be positive, got {degree}")
        gens = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if not is_perm(g, degree):
                raise DomainError(f"not a permutation of degree {degree}: {g}")
            if g in seen or g == tuple(range(degree)):
                continue
            seen.add(g)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._levels = _schreier_sims(degree, gens)
        self._order = 1
        for lvl in self._levels:
            self._order *= len(lvl.transversal)
        self._elements = None
        self._element_set = None
        self._classes = None
        self._class_index = None
        self._class_elements = None
        self._inverse_classes = None
        self._hash = None

    def order(self):
        return self._order

    def contains(self, p):
        if len(p) != self.degree:
            return False
        g = tuple(p)
        if not is_perm(g, self.degree):
            return False
        return _sift(self._levels, g, 0)[0] == identity(self.degree)

    def elements(self):
        """All elements, sorted lexicographically.  Enumerates the group."""
        if self._elements is None:
            # The stabilizer H_i of the first i base points is
            # H_{i+1} v for v in level i's inverses, a right transversal
            # of H_{i+1} in H_i; each v is one fixed right factor,
            # applied over all of H_{i+1}.
            elems = [identity(self.degree)]
            for lvl in reversed(self._levels):
                below = elems
                elems = []
                for v in lvl.inverses.values():
                    elems.extend(map(right_factor(v), below))
            if len(elems) != self._order:
                raise InternalCheckError(
                    f"transversal product does not match group order on {self!r}:"
                    f" {len(elems)} elements"
                )
            self._elements = tuple(sorted(elems))
            self._element_set = frozenset(self._elements)
        return self._elements

    def element_set(self):
        """The elements as a frozenset.  Enumerates the group."""
        if self._element_set is None:
            self.elements()
        return self._element_set

    def is_subgroup_of(self, other):
        return self.degree == other.degree and all(other.contains(g) for g in self.generators)

    def conjugacy_classes(self):
        """Conjugacy classes sorted by (element order, size, representative).

        The representative of each class is its lexicographically smallest
        element.  The identity class always comes first.  Enumerates the group.
        """
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def class_index(self, x):
        """Index of the class containing x.  Enumerates the group."""
        idx = self.class_indices().get(tuple(x))
        if idx is None:
            raise DomainError("element does not belong to the group")
        return idx

    def class_indices(self):
        """The dict from each element to the index of its class, for
        loops that look up many products.  Enumerates the group."""
        if self._class_index is None:
            self._compute_classes()
        return self._class_index

    def class_elements(self, i):
        """The sorted elements of class i.  Enumerates the group."""
        if self._class_elements is None:
            self._compute_classes()
        return self._class_elements[i]

    def inverse_classes(self):
        """For each class, the index of the class of the inverses of its
        elements.  Enumerates the group."""
        if self._inverse_classes is None:
            self._compute_classes()
        return self._inverse_classes

    def exponent(self):
        """The lcm of the element orders.  Enumerates the group."""
        e = 1
        for c in self.conjugacy_classes():
            e = lcm(e, c.element_order)
        return e

    def _compute_classes(self):
        # z = g y g^-1: y's map is shared by the generators, and each
        # generator's inverse has one map for the whole pass
        gens = [(g, right_factor(inverse(g))) for g in self.generators]
        assigned = {}
        raw = []
        for x in self.elements():
            if x in assigned:
                continue
            orbit = [x]
            assigned[x] = len(raw)
            for y in orbit:
                by_y = right_factor(y)
                for g, by_ginv in gens:
                    z = by_ginv(by_y(g))
                    if z not in assigned:
                        assigned[z] = len(raw)
                        orbit.append(z)
            raw.append((x, tuple(sorted(orbit))))
        keyed = sorted(raw, key=lambda pair: (order(pair[0]), len(pair[1]), pair[0]))
        classes = []
        index = {}
        elem_lists = []
        for new_idx, (rep, members) in enumerate(keyed):
            classes.append(
                ConjugacyClass(
                    index=new_idx,
                    representative=rep,
                    size=len(members),
                    element_order=order(rep),
                )
            )
            elem_lists.append(members)
            for m in members:
                index[m] = new_idx
        self._classes = tuple(classes)
        self._class_index = index
        self._class_elements = tuple(elem_lists)
        self._inverse_classes = tuple(
            index[inverse(c.representative)] for c in classes
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        if self.degree != other.degree or self._order != other._order:
            return False
        # other's constructor checked its generators are permutations
        ident = identity(self.degree)
        return all(_sift(self._levels, g, 0)[0] == ident for g in other.generators)

    def __hash__(self):
        """Hash of the element set.  Enumerates the group."""
        if self._hash is None:
            self._hash = hash((self.degree, self._order, self.element_set()))
        return self._hash

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"PermutationGroup{label}(degree={self.degree}, order={self._order})"


ConjugacyClass = namedtuple(
    "ConjugacyClass", ("index", "representative", "size", "element_order")
)


def _sift(levels, g, start):
    """Strip g through levels[start:] by the stored transversal inverses.

    Returns (residue, i): the residue after the last level passed, and the
    index of the level whose orbit misses it, or len(levels).  g lies in
    the group of the chain exactly when the residue is the identity.

    A level's base point is moved by some generator, so a chain with a
    level has degree at least 2, where ``perms.right_factor(g)`` is
    ``itemgetter(*g)``; the sift applies it inline, with no frame per
    product, and so does ``_schreier_sims``."""
    for i in range(start, len(levels)):
        lvl = levels[i]
        pt = g[lvl.base]
        if pt != lvl.base:
            uinv = lvl.inverses.get(pt)
            if uinv is None:
                return g, i
            g = itemgetter(*g)(uinv)
    return g, len(levels)


def _schreier_sims(degree, gens):
    """Deterministic stabilizer chain construction.

    Base points are chosen as the smallest point moved at each level, and
    Schreier generators are processed in a fixed order, so the chain is a
    pure function of (degree, generator list).
    """
    ident = identity(degree)
    levels = []

    def insert(g, first_level):
        residue, stop = _sift(levels, g, first_level)
        if residue == ident:
            return False
        if stop == len(levels):
            levels.append(_Level(min(moved_points(residue))))
            stop = len(levels) - 1
        for j in range(first_level, stop + 1):
            levels[j].gens.append(residue)
            levels[j].rebuild(degree)
        return True

    for g in gens:
        insert(g, 0)

    changed = True
    while changed:
        changed = False
        for j, lvl in enumerate(levels):
            for pt in sorted(lvl.transversal):
                by_u = itemgetter(*lvl.transversal[pt])
                for s in lvl.gens:
                    schreier = itemgetter(*by_u(s))(lvl.inverses[s[pt]])
                    if insert(schreier, j + 1):
                        changed = True
            if changed:
                break
    return levels


def trivial_group(degree):
    return PermutationGroup(degree, ())


@lru_cache(maxsize=None)
def group_from_elements(degree, elements):
    """Group generated by the given elements, with a reduced generator list.

    Elements are scanned in sorted order and kept only when they enlarge
    the group built so far, which keeps generator lists short.
    """
    current = trivial_group(degree)
    kept = []
    for x in sorted(set(elements)):
        if not current.contains(x):
            kept.append(x)
            current = PermutationGroup(degree, kept)
    return current


@lru_cache(maxsize=None)
def centralizer(G, x):
    """C_G(x).  Enumerates the group."""
    x = tuple(x)
    if not G.contains(x):
        raise DomainError("element does not belong to the group")
    by_x = right_factor(x)
    hits = tuple(g for g in G.elements() if by_x(g) == right_factor(g)(x))
    return group_from_elements(G.degree, hits)


@lru_cache(maxsize=None)
def centralizer_of_group(G, H):
    """Elements of G commuting with everything in H.

    H does not have to be contained in G; for an external action this
    is the fixed-point subgroup of H acting on G by conjugation.
    Enumerates the group.
    """
    if H.degree != G.degree:
        raise DomainError("degree mismatch between group and subgroup")
    factors = [(h, right_factor(h)) for h in H.generators]

    def commutes(g):
        by_g = right_factor(g)
        return all(by_h(g) == by_g(h) for h, by_h in factors)

    hits = tuple(filter(commutes, G.elements()))
    return group_from_elements(G.degree, hits)


@lru_cache(maxsize=None)
def normalizer(G, H):
    """N_G(H) for a subgroup H <= G.  Enumerates the group."""
    _require_subgroup(G, H)
    hset = H.element_set()
    factors = tuple(map(right_factor, H.generators))
    hits = tuple(g for g in G.elements() if _conjugates_into(g, factors, hset))
    return group_from_elements(G.degree, hits)


def _conjugates_into(g, factors, target):
    """Whether g x g^-1 lies in the set target for every x whose map
    p -> p x is in factors; g is inverted once."""
    by_ginv = right_factor(inverse(g))
    return all(by_ginv(by_x(g)) in target for by_x in factors)


def _require_subgroup(G, H):
    if H.degree != G.degree:
        raise DomainError("degree mismatch between group and subgroup")
    if not H.is_subgroup_of(G):
        raise DomainError("not a subgroup")


@lru_cache(maxsize=None)
def normal_closure(G, seeds):
    """Smallest normal subgroup of G containing the seed elements."""
    seeds = tuple(tuple(s) for s in seeds)
    for s in seeds:
        if not G.contains(s):
            raise DomainError("seed element does not belong to the group")
    gens = list(seeds)
    closure = PermutationGroup(G.degree, gens)
    queue = list(seeds)
    conjugators = [(g, right_factor(inverse(g))) for g in G.generators]
    for x in queue:
        by_x = right_factor(x)
        for g, by_ginv in conjugators:
            y = by_ginv(by_x(g))
            if not closure.contains(y):
                gens.append(y)
                closure = PermutationGroup(G.degree, gens)
                queue.append(y)
    return closure


def is_normal_in(N, G):
    """Whether N is a normal subgroup of G.  Enumerates N."""
    _require_subgroup(G, N)
    nset = N.element_set()
    factors = tuple(map(right_factor, N.generators))
    return all(_conjugates_into(g, factors, nset) for g in G.generators)


@lru_cache(maxsize=None)
def sylow_subgroup(G, p):
    """A Sylow p-subgroup, grown by adjoining p-elements of N_G(P) \\ P.

    While |P| is below the full p-part of |G|, the normalizer N_G(P)
    contains a p-element outside P; adjoining the first such element in
    lexicographic order keeps the construction deterministic.
    Enumerates the normalizers.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    target = p_part(G.order(), p)
    P = trivial_group(G.degree)
    while P.order() < target:
        N = normalizer(G, P) if P.order() > 1 else G
        grown = False
        for x in N.elements():
            o = order(x)
            if o == 1 or o % p != 0:
                continue
            y = _p_element_part(x, o, p)
            if not P.contains(y):
                P = PermutationGroup(G.degree, P.generators + (y,))
                grown = True
                break
        if not grown:
            raise InternalCheckError(
                f"Sylow growth stalled below the p-part on {G!r} at p = {p}:"
                f" order {P.order()} of {target}"
            )
    return P


def _p_element_part(x, o, p):
    return power(x, o // p_part(o, p))


def are_conjugate_subgroups(G, H, K):
    """Whether H^g = K for some g in G.  Enumerates the group."""
    if H.order() != K.order():
        return False
    kset = K.element_set()
    factors = tuple(map(right_factor, H.generators))
    return any(_conjugates_into(g, factors, kset) for g in G.elements())


def intersection(A, B):
    """A n B for groups of equal degree.  Enumerates the smaller group."""
    if A.degree != B.degree:
        raise DomainError("degree mismatch")
    small, big = (A, B) if A.order() <= B.order() else (B, A)
    bigset = big.element_set()
    return group_from_elements(A.degree, tuple(x for x in small.elements() if x in bigset))
