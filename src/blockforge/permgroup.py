"""Finite permutation groups held as their element sets.

A PermutationGroup is immutable after construction.  The constructor
enumerates the group by Dimino's algorithm, so order, membership and
equality read the element set from the start.  Everything here is
written for desk scale (orders up to about 10^5).

Determinism: no randomness is used anywhere in this module, and every
derived object (conjugacy classes, Sylow subgroups, subgroup closures)
is ordered by explicit lexicographic rules, so repeated runs produce
identical results.

Every loop here that keeps one factor of a product fixed (coset
enumeration, conjugation) builds that factor's map once with
``perms.right_factor`` and applies it.

Normal structure (the normal subgroups, O_p, O_p' and p-solvability)
lives in ``chartab``: it is read off the character table, which this
module does not import.
"""

from collections import namedtuple
from functools import lru_cache
from math import lcm

from .arith import is_prime, p_part
from .errors import DomainError, InternalCheckError
from .perms import identity, inverse, is_perm, order, power, right_factor


class PermutationGroup:
    """A subgroup of the symmetric group on {0, ..., degree-1}.

    Groups compare and hash by element set, and caches are keyed by
    them, so equal groups share cached results: a result names the
    first equal group it was built for."""

    def __init__(self, degree, generators=(), name=None):
        """Enumerate the group by Dimino's algorithm (G. Butler,
        Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

        Each generator g that the elements found so far miss extends
        them: with H the list found before g, every coset
        representative r is multiplied by g and by each earlier
        generator that extended the group, and each product e not yet
        found adds the right coset H e and becomes a representative.

        The found set is always a union of right cosets of H, so a
        representative that is not found starts a disjoint coset.  It
        is closed under right multiplication by the generators so far,
        since (h r) s = h (r s) lies in the coset of r s, which the loop
        adds.  In a finite group the submonoid generated by a set is the
        subgroup it generates, so the set is the group.

        Generators are taken in decreasing element order, so the early
        subgroups H are large and the later steps have few cosets; on
        S8 from a transposition and an 8-cycle that is 5040 cosets
        rather than 20160.  Disjoint cosets make the list of coset
        elements as long as the set, and a longer list is an
        InternalCheckError naming the group.
        """
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
        ident = identity(degree)
        elems = [ident]
        found = {ident}
        factors = []
        for g in sorted(gens, key=order, reverse=True):
            if g in found:
                continue
            H = elems
            elems = list(H)
            factors.append(right_factor(g))
            reps = [ident]
            for r in reps:
                for by_s in factors:
                    e = by_s(r)
                    if e not in found:
                        coset = list(map(right_factor(e), H))
                        elems += coset
                        found.update(coset)
                        reps.append(e)
        if len(elems) != len(found):
            raise InternalCheckError(
                f"cosets overlap while enumerating {name!r} of degree {degree}:"
                f" {len(elems)} coset elements, {len(found)} distinct"
            )
        self._order = len(found)
        self._elements = None
        self._element_set = frozenset(found)
        self._classes = None
        self._class_index = None
        self._class_elements = None
        self._inverse_classes = None

    def order(self):
        return self._order

    def contains(self, p):
        return tuple(p) in self._element_set

    def elements(self):
        """All elements, sorted lexicographically."""
        if self._elements is None:
            self._elements = tuple(sorted(self._element_set))
        return self._elements

    def element_set(self):
        """The elements as a frozenset."""
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
        # walked unsorted; each class is represented by its least member
        for x in self._element_set:
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
            members = tuple(sorted(orbit))
            raw.append((members[0], members))
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
        return all(g in self._element_set for g in other.generators)

    def __hash__(self):
        return hash(self._element_set)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"PermutationGroup{label}(degree={self.degree}, order={self._order})"


ConjugacyClass = namedtuple(
    "ConjugacyClass", ("index", "representative", "size", "element_order")
)


def trivial_group(degree):
    return PermutationGroup(degree, ())


@lru_cache(maxsize=None)
def group_from_elements(degree, elements):
    """Group generated by the given elements, with a reduced generator list.

    Elements are scanned in sorted order and kept only when they enlarge
    the group built so far, which keeps generator lists short.  The scans
    here pass frozensets, so that one element set found in two orders
    shares a cache entry.
    """
    current = trivial_group(degree)
    kept = []
    for x in sorted(set(elements)):
        if not current.contains(x):
            kept.append(x)
            current = PermutationGroup(degree, kept)
    return current


@lru_cache(maxsize=None)
def centralizer(G, H):
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

    hits = frozenset(filter(commutes, G.element_set()))
    return group_from_elements(G.degree, hits)


@lru_cache(maxsize=None)
def normalizer(G, H):
    """N_G(H) for a subgroup H <= G.  Enumerates the group."""
    _require_subgroup(G, H)
    hset = H.element_set()
    factors = tuple(map(right_factor, H.generators))
    hits = frozenset(g for g in G.element_set() if _conjugates_into(g, factors, hset))
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
    return any(_conjugates_into(g, factors, kset) for g in G.element_set())


def intersection(A, B):
    """A n B for groups of equal degree: the intersection of the element
    sets, which scans the smaller one."""
    if A.degree != B.degree:
        raise DomainError("degree mismatch")
    return group_from_elements(A.degree, A.element_set() & B.element_set())
