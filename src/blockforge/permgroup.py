"""Finite permutation groups held as their element sets.

A PermutationGroup is immutable after construction.  The constructor
enumerates the group by Dimino's algorithm, so order, membership and
equality read the element set from the start.  Everything here is
written for desk scale (orders up to about 10^5).

Two routines carry the subgroup constructions.  ``_adjoin`` is one
step of Dimino's algorithm, extending an element set by one element in
place.  The constructor, ``group_from_elements``, ``normal_closure``
and the growth of ``sylow_subgroup`` each grow one element set by it
and build their group once, on the elements they kept; the stabilizer
closure grows its set the same way.  ``_stabilizer`` is the package's
one orbit-stabilizer walk: it walks the orbit of a point under the
moves it is given and closes the stabilizer from Schreier generators.
Under conjugation (``_by_conjugation``) normalizers, centralizers and
conjugacy of subgroups are read off it, with no scan over G; on the
row indices of a character table, inertia groups and covered blocks
(``chartab.inertia_group``, ``blocks.covered_blocks``); on sorted
tuples of element indices, the conjugates and normalizers of the
subgroup-class search behind navarro (``sylow_numbers_by_class``).

Determinism: no randomness is used anywhere in this module, and every
derived object that a result reads (the order and representatives of
the conjugacy classes, Sylow subgroups, generator lists) is fixed by
explicit lexicographic rules, so repeated runs produce identical
results.  The members of a class keep the order of the class walk;
their readers count or test them, and do not depend on it.

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
from operator import getitem

from .arith import is_prime, p_part
from .errors import DomainError, InternalCheckError
from .perms import identity, inverse, is_perm, order, power, right_factor


class PermutationGroup:
    """A subgroup of the symmetric group on {0, ..., degree-1}.

    Groups compare and hash by element set, and caches are keyed by
    them, so equal groups share cached results: a result names the
    first equal group it was built for."""

    def __init__(self, degree, generators=(), name=None):
        """Enumerate the group by Dimino's algorithm: each generator
        that the elements found so far miss extends them by one
        ``_adjoin`` step.

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
        elems, found, factors = _trivial(degree)
        for g in sorted(gens, key=order, reverse=True):
            if g not in found:
                _adjoin(elems, found, factors, g)
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
        self._conjugations = None

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
        """The elements of class i, in the order the class walk found
        them.  Enumerates the group."""
        if self._class_elements is None:
            self._compute_classes()
        return self._class_elements[i]

    def inverse_classes(self):
        """For each class, the index of the class of the inverses of its
        elements.  Enumerates the group."""
        if self._inverse_classes is None:
            self._compute_classes()
        return self._inverse_classes

    def conjugations(self):
        """For each generator g, the map x -> g^-1 x g, built once: the
        normality test, the normal closure and the conjugation action
        read it."""
        if self._conjugations is None:
            self._conjugations = tuple(map(_conjugation, self.generators))
        return self._conjugations

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
        index = {}
        orbits = []
        # walked unsorted; each class is represented by its least member
        # and keeps its members in walk order
        for x in self._element_set:
            if x in index:
                continue
            orbit = [x]
            index[x] = None
            for y in orbit:
                by_y = right_factor(y)
                for g, by_ginv in gens:
                    z = by_ginv(by_y(g))
                    if z not in index:
                        index[z] = None
                        orbit.append(z)
            orbits.append((min(orbit), tuple(orbit)))
        orbits.sort(key=lambda pair: (order(pair[0]), len(pair[1]), pair[0]))
        for i, (_, members) in enumerate(orbits):
            index.update(dict.fromkeys(members, i))
        self._classes = tuple(
            ConjugacyClass(i, rep, len(members), order(rep))
            for i, (rep, members) in enumerate(orbits)
        )
        self._class_index = index
        self._class_elements = tuple(members for _, members in orbits)
        self._inverse_classes = tuple(
            index[inverse(c.representative)] for c in self._classes
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


def _trivial(degree):
    """The trivial group as Dimino's state: its element list, its
    element set and the maps of the generators adjoined so far."""
    ident = identity(degree)
    return [ident], {ident}, []


def _adjoin(elems, found, factors, g):
    """One step of Dimino's algorithm (G. Butler, Fundamental Algorithms
    for Permutation Groups, LNCS 559, 1991): extend the group H listed in
    elems, with element set found and generator maps factors, in place
    to <H, g>, for g outside H.

    Every coset representative r, starting from the identity, is
    multiplied by g and by each earlier generator that extended the
    group, and each product e not yet found adds the right coset H e and
    becomes a representative.  The found set is always a union of right
    cosets of H, so a representative that is not found starts a disjoint
    coset.  It is closed under right multiplication by the generators so
    far, since (h r) s = h (r s) lies in the coset of r s, which the loop
    adds.  In a finite group the submonoid generated by a set is the
    subgroup it generates, so the set is the group.
    """
    H = elems[:]
    factors.append(right_factor(g))
    reps = [identity(len(g))]
    for r in reps:
        for by_s in factors:
            e = by_s(r)
            if e not in found:
                coset = list(map(right_factor(e), H))
                elems += coset
                found.update(coset)
                reps.append(e)


def _conjugation(g):
    """The map x -> g^-1 x g; g is inverted once."""
    ginv = inverse(g)
    by_g = right_factor(g)
    return lambda x: by_g(right_factor(x)(ginv))


def _by_conjugation(G):
    """G's generators, each with its action on frozensets and tuples of
    permutations by conjugation, point^g = {g^-1 x g}, through the maps
    G keeps (``PermutationGroup.conjugations``)."""
    def move(conj):
        return lambda v: type(v)(map(conj, v))

    return list(zip(G.generators, map(move, G.conjugations())))


def _stabilizer(G, point, moves, elems, factors):
    """The orbit of point under G, and its stabilizer's element set.

    point is any hashable point of a right action of G, given as moves:
    pairs of a permutation g and the map v -> v^g, whose permutations
    generate G.  Right means v^mult(a, b) = (v^a)^b, which the
    transversal below relies on: conjugation x -> g^-1 x g is one, and
    x -> g x g^-1 is not.  The seed group listed in elems, with
    generator maps factors, lies in G and fixes point; it is extended in
    place.  The orbit is returned as a dict from each point v to a
    transversal element t_v, with point^t_v = v, and its inverse.

    The walk is breadth first over the pairs of a point v found and a
    move g.  A new image w = v^g gets t_w = t_v g.  A known one gives
    the Schreier generator t_v g t_w^-1, which fixes point.  By
    Schreier's lemma these generate the stabilizer S (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 4.1); each is
    adjoined by a Dimino step only when it lies outside the group so
    far.  The walk stops once |S| |orbit| = |G|: the whole orbit has
    |G : S| points at most, so it has all been found, and S is all of
    the stabilizer.  When every move fixes point, the stabilizer is G
    and its element set is returned without a walk.
    """
    ident = identity(G.degree)
    orbit = {point: (ident, ident)}
    if all(move(point) == point for _, move in moves):
        return orbit, G.element_set()
    steps = [(right_factor(g), move) for g, move in moves]
    found = set(elems)
    queue = [point]
    for v in queue:
        t = orbit[v][0]
        for by_g, move in steps:
            if len(found) * len(orbit) == G.order():
                return orbit, found
            w = move(v)
            tw = by_g(t)
            if w not in orbit:
                orbit[w] = tw, inverse(tw)
                queue.append(w)
            else:
                s = right_factor(orbit[w][1])(tw)
                if s not in found:
                    _adjoin(elems, found, factors, s)
    return orbit, found


@lru_cache(maxsize=None)
def group_from_elements(degree, elements):
    """Group generated by the given elements, with a reduced generator list.

    Elements are scanned in sorted order and kept only when they enlarge
    the group built so far, which keeps generator lists short; each kept
    element extends one element set by a Dimino step, and the group is
    built once on the kept elements.  The scans here pass frozensets, so
    that one element set found in two orders shares a cache entry.
    """
    elems, found, factors = _trivial(degree)
    kept = []
    for x in sorted(elements):
        if x not in found:
            kept.append(x)
            _adjoin(elems, found, factors, x)
    del elems, found  # the constructor enumerates the group afresh
    return PermutationGroup(degree, kept)


@lru_cache(maxsize=None)
def centralizer(G, xs):
    """Elements of G commuting with each permutation in the tuple xs:
    the stabilizer of xs under conjugation by G.

    The permutations do not have to lie in G; for the generators of a
    group H acting on G by conjugation this is the fixed-point subgroup.
    """
    for x in xs:
        if not is_perm(x, G.degree):
            raise DomainError(f"not a permutation of degree {G.degree}: {x}")
    found = _stabilizer(G, xs, _by_conjugation(G), [identity(G.degree)], [])[1]
    return group_from_elements(G.degree, frozenset(found))


@lru_cache(maxsize=None)
def normalizer(G, H):
    """N_G(H) for a subgroup H <= G: the stabilizer of H's element set
    under conjugation, seeded with H."""
    _require_subgroup(G, H)
    hset = H.element_set()
    seed = list(hset), list(map(right_factor, H.generators))
    found = _stabilizer(G, hset, _by_conjugation(G), *seed)[1]
    return group_from_elements(G.degree, frozenset(found))


def _require_subgroup(G, H):
    if H.degree != G.degree:
        raise DomainError("degree mismatch between group and subgroup")
    if not H.is_subgroup_of(G):
        raise DomainError("not a subgroup")


@lru_cache(maxsize=None)
def normal_closure(G, seeds):
    """Smallest normal subgroup of G containing the seed elements: the
    seeds' conjugates g^-1 x g by G's generators, closed by Dimino steps."""
    seeds = tuple(tuple(s) for s in seeds)
    for s in seeds:
        if not G.contains(s):
            raise DomainError("seed element does not belong to the group")
    elems, found, factors = _trivial(G.degree)
    gens = list(seeds)
    for s in seeds:
        if s not in found:
            _adjoin(elems, found, factors, s)
    for x in gens:
        for conj in G.conjugations():
            y = conj(x)
            if y not in found:
                gens.append(y)
                _adjoin(elems, found, factors, y)
    del elems, found  # the constructor enumerates the group afresh
    return PermutationGroup(G.degree, gens)


def is_normal_in(N, G):
    """Whether N is a normal subgroup of G: whether each generator of G
    conjugates N's generators into N.  Enumerates N."""
    _require_subgroup(G, N)
    nset = N.element_set()
    return all(conj(x) in nset for conj in G.conjugations() for x in N.generators)


@lru_cache(maxsize=None)
def sylow_subgroup(G, p):
    """A Sylow p-subgroup, grown by adjoining p-elements of N_G(P) \\ P.

    While |P| is below the full p-part of |G|, the normalizer N_G(P)
    contains a p-element outside P; adjoining the first such element in
    lexicographic order keeps the construction deterministic.  P grows
    as one element set, by Dimino steps, and its normalizers are read as
    element sets; the group is built once on the elements adjoined.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    target = p_part(G.order(), p)
    elems, found, factors = _trivial(G.degree)
    kept = []
    moves = _by_conjugation(G)
    while len(found) < target:
        if len(found) > 1:
            N = sorted(_stabilizer(G, frozenset(found), moves, elems[:], factors[:])[1])
        else:
            N = G.elements()
        for x in N:
            o = order(x)
            if o % p == 0:
                y = _p_element_part(x, o, p)
                if y not in found:
                    break
        else:
            raise InternalCheckError(
                f"Sylow growth stalled below the p-part on {G!r} at p = {p}:"
                f" order {len(found)} of {target}"
            )
        kept.append(y)
        _adjoin(elems, found, factors, y)
    return PermutationGroup(G.degree, kept)


def _p_element_part(x, o, p):
    return power(x, o // p_part(o, p))


def are_conjugate_subgroups(G, H, K):
    """Whether H^g = K for some g in G: whether K's element set lies in
    the orbit of H's."""
    if H == K:
        return True
    if H.order() != K.order():
        return False
    seed = [identity(G.degree)], []
    orbit = _stabilizer(G, H.element_set(), _by_conjugation(G), *seed)[0]
    return K.element_set() in orbit


def intersection(A, B):
    """A n B for groups of equal degree: the intersection of the element
    sets, which scans the smaller one."""
    if A.degree != B.degree:
        raise DomainError("degree mismatch")
    return group_from_elements(A.degree, A.element_set() & B.element_set())


def _right_regular(G):
    """G's right regular representation on indices into G.elements():
    right[b][a] is the index of elements[a] * elements[b], and inv[a]
    that of elements[a]^-1.  Each generator's column takes |G| products;
    a breadth-first walk composes the other columns, each a permutation
    of range(|G|).  The walk steps from b to c, the index of h
    elements[b] for a generator h, which is right[b] read at h's index;
    then right[c] is right[b] composed with h's column, one map per
    generator built once.  The table holds |G|^2 indices."""
    elements = G.elements()
    position = {x: i for i, x in enumerate(elements)}
    steps = []
    for h in G.generators:
        column = map(position.__getitem__, map(right_factor(h), elements))
        steps.append((position[h], right_factor(tuple(column))))
    right = [None] * len(elements)
    right[0] = tuple(range(len(elements)))
    walk = [0]
    for b in walk:
        for h, by_column in steps:
            c = right[b][h]
            if right[c] is None:
                right[c] = by_column(right[b])
                walk.append(c)
    return position, right, [column.index(0) for column in right]


def sylow_numbers_by_class(G, p):
    """n_p(G), and the tuple of (|U|, n_p(U)) for one U in each
    conjugacy class of subgroups generated by p-elements, in the order
    found.

    These U decide every subgroup: n_p is a conjugacy invariant, and
    n_p(U) = n_p(O^{p'}(U)), as O^{p'}(U) holds every p-subgroup of U.
    Elements are indices into G.elements(), products are lookups in
    `_right_regular`'s table, and a subgroup is the sorted tuple of its
    indices, which takes less memory than a set.  One ``_stabilizer``
    walk, seeded with U, under x -> t^-1 x t for G's generators t, gives
    U's conjugates and N_G(U).  Breadth-first from the trivial subgroup,
    each class representative U is joined with p-elements s outside U,
    by Dimino's right cosets of U (as in `PermutationGroup.__init__`, a
    coset U c is column c read at U).  Three rules cut the joins and
    lose no class: (a) only s with s^p in U, since a p-generated K is
    reached by adding g^(p^(a-1)), ..., g for each generator g of order
    p^a; (b) one s per N_G(U)-orbit, as <U, s^n> = <U, s>^n; (c) no
    element of U s after s.  A join that is no conjugate seen so far is
    a new class.

    A Sylow subgroup Q of U lies in a Sylow S of G, and then Q = U ∩ S,
    so n_p(U) counts the distinct U ∩ S of order |U|_p over the
    conjugates S of one Sylow subgroup.  Their number n_p(G) must be
    |G : N_G(P)|, an InternalCheckError otherwise."""
    position, right, inv = _right_regular(G)
    elements, index = G.elements(), position.__getitem__

    def move(t):
        by_t = [right[t][right[x][inv[t]]] for x in range(len(right))]
        return elements[t], lambda U: tuple(sorted(map(by_t.__getitem__, U)))

    moves = [move(t) for t in map(index, G.generators)]

    def walk(U, U_gens):
        """U's conjugates and N_G(U)'s elements, for U = <U_gens>."""
        seed = [elements[x] for x in U], [right_factor(elements[t]) for t in U_gens]
        return _stabilizer(G, U, moves, *seed)

    sylow = sylow_subgroup(G, p)
    P = tuple(sorted(map(index, sylow.elements())))
    sylows = walk(P, tuple(map(index, sylow.generators)))[0]
    index_big = G.order() // normalizer(G, sylow).order()
    if len(sylows) != index_big:
        raise InternalCheckError(
            f"{len(sylows)} conjugates of a Sylow {p}-subgroup, but"
            f" |G : N_G(P)| = {index_big}, on {G!r} at p = {p}"
        )
    # the p-elements are the members of the Sylow subgroups
    p_elements = sorted(set().union(*sylows) - {0})
    powers = list(range(len(right)))
    for _ in range(p - 1):
        powers = [right[x][y] for x, y in enumerate(powers)]
    seen = set()
    classes = []

    def found(U, U_gens):
        conjugates, N = walk(U, U_gens)
        seen.update(conjugates)
        classes.append((frozenset(U), U_gens, list(map(index, N))))

    found((0,), ())
    for U, U_gens, N in classes:
        # s^t = t^-1 s t is right[t][right[s][inv[t]]], for t in N
        rows, at_inverses = list(map(right.__getitem__, N)), right_factor([inv[t] for t in N])
        done = set()
        for s in p_elements:
            if s in U or powers[s] not in U or s in done:
                continue
            for x in set(map(getitem, rows, at_inverses(right[s]))):
                # U is in N_G(U), so these U x hold s U: s u = u (u^-1 s u);
                # done is a union of them, so x in done has its U x there
                if x not in done:
                    done.update(map(right[x].__getitem__, U))
            J, reps, J_gens = set(U), [0], U_gens + (s,)
            for r in reps:
                for t in J_gens:
                    c = right[t][r]
                    if c not in J:
                        J.update(map(right[c].__getitem__, U))
                        reps.append(c)
            J = tuple(sorted(J))
            if J not in seen:
                found(J, J_gens)
    pairs = []
    for U, *_ in classes:
        q = p_part(len(U), p)
        meets = set(map(U.intersection, sylows))
        pairs.append((len(U), sum(len(I) == q for I in meets)))
    return index_big, tuple(pairs)
