"""Independent brute-force oracles used by the test suite.

Nothing here calls into the package's group, character-table or block
machinery: groups are plain frozensets of image tuples closed by
multiplication, classes come from direct conjugation orbits,
normalizers, centralizers and conjugacy of subgroups from scans over
every element of the group (``normalizer_by_scan``,
``centralizer_by_scan``, ``conjugate_by_scan``), a subgroup's
generator list from closures of its sorted elements
(``generators_by_closure``), and character degrees come from a
separately written common-eigenvector computation modulo a prime
chosen independently of the package's own.

There are twenty-one exceptions, and each takes objects the package built.
``defect_group_by_subgroup_search`` takes a block the package computed
and finds its defect group the long way: it lists the conjugacy classes
of subgroups of order p^d (``subgroups_of_order``, a layered closure
that builds package groups) and keeps the one class at which the Brauer
image of the block idempotent is nonzero, to compare with the package's
own route through one defect class.  ``induce``, ``restrict`` and
``regular_character`` build class functions on the package's classes
by their defining formulas, so the restriction table can be checked
against Frobenius reciprocity and against the character degrees;
``restrict`` finds the class of G containing each class representative
of the subgroup, not through the package's class fusion.
``brauer_by_solves`` finds IBr and the decomposition matrix from the
package's restrictions to the p-regular classes (or its stored table)
with one ``solve_rational`` per candidate and one per ordinary
character, to compare with the package's one elimination.
``brauer_degrees_over`` restricts the Brauer characters that
``brauer_by_solves`` finds to a p'-subgroup and pairs them there with
theta (``inner_product``), to compare with the package's route through
ordinary lifts and the restriction table.  ``inner_product`` pairs
class functions by adding every class into one root list at the
exponent of G.  ``pairing_dense`` is the exact pairing on a table's
``coords``: every coordinate multiplied, and every element order's sum
reduced mod Phi_o, to compare with the package's one pairing, a dot
product of the table's rows embedded mod one big prime: the table gate's
sums, Osima's sums over the p-regular classes and the restriction
multiplicities.
``induced_central`` induces a block's reduced central character by
walking every element of G and summing over the classes of the
subgroup it meets, to compare with the package's route through the
class fusion of the subgroup into G.  ``blocks_by_cyclotomic_values``
builds central characters and idempotent coefficients of the package's
blocks as cyclotomic values, to compare with the package's integer row
coordinates.  ``navarro_classes_by_subgroups`` lists every subgroup by
closure growth, sorts the p-generated ones into conjugacy classes of
element sets and counts each Sylow number as the subgroups of order the
p-part inside, to compare with the package's breadth-first extension
on element indices and bitmasks.
``normal_subgroups_by_joins`` closes the normal closures of the classes,
each the subgroup a class's elements generate, under joins, one Dimino
enumeration per join, to compare with the package's intersections of
character kernels.  ``inertia_group_by_scan``
conjugates a character of a normal subgroup by every element of G
(``conjugate_character``) and builds the group of those that fix it, to
compare with the package's orbit-stabilizer run on the generators.
``covered_blocks_by_scan`` takes a block the package computed and finds
the blocks of a normal subgroup it covers by pairing the restriction of
each of its characters with every character of the subgroup, and
checks them to be one orbit under every element of G, to compare with
the package's walk on the row indices of the subgroup's table.
``cores_by_class_closures`` joins the normal closures of the classes
whose closure is a p-group, or a p'-group, and
``is_p_solvable_by_quotients`` peels those cores off one at a time,
building each quotient as the action of G on the cosets, to compare
with the package's reading of both off the kernel lattice.
``ResidueField`` is the element arithmetic of GF(p)[t] modulo a monic
modulus on the package's coefficient tuples, its product written by
Horner's rule: the reduction map's ring R, modulo Phi_e'
(``ResidueField.of_map``), on which the field oracles below compute,
and the residue fields above p, each R modulo an irreducible factor of
Phi_e' mod p (``fields_above``).  The factors are split off by
equal-degree gcds (``_split``) rather than by trial division, which
would try all 3^12 monic polynomials of degree 12 over GF(3) to split
Phi_140 into its four factors.
``reduce_by_elements`` reduces coordinates one ring element at a
time, from the map's power table, to compare with the package's
accumulation in integer lists.
``structure_constants`` counts every class-algebra structure constant
from products of elements, to compare with the class-matrix columns
the package builds for its table, each one count over one class
(``chartab._class_column``);
``class_algebra_product_by_elements`` multiplies class-algebra elements
over them one field element at a time, to check that the package's
block idempotents are orthogonal idempotents, e_u e_v = delta_uv e_u,
which the package itself proves without a product.
``question35_by_pairs`` runs the Question 3.5 search as a product on
the package's blocks, correspondents and decomposition matrices: every
ordinary height-zero matching, each against every Brauer one, until all
the height-zero decomposition entries agree, to compare with the
package's search over the Brauer side alone, one bipartite matching per
Brauer-side matching.

The cyclotomic arithmetic of the tests lives here, on lists of root
coefficients (``roots``): sums add lists, products convolve them, and
``from_root_combination`` canonicalizes each result once, by one
reduction mod Phi_e and the package's descent.
``from_root_combination_by_power_basis`` builds a value the Fraction
way: each root coefficient times the power-basis coordinates of its
root (``power_basis_coords``, from the recurrence zeta^(k+1) = zeta *
zeta^k mod Phi_e), and every result canonicalized, rational or not, by
``canonical_by_solves``: one ``solve_rational`` per divisor of the
conductor, in increasing order, to compare with the package's one
integer reduction and its descent one prime at a time.

Two Hall-violator oracles take bare degree lists, equally long, and
return the smallest violator as (side, sorted degrees), or None when a
perfect divisibility matching exists.  ``hall_violator_by_subsets``
scans every index subset by size, the right side before the left and
each in lexicographic order, to compare with the package on ascending
lists.  ``hall_violator_by_multiplicities`` walks every vector of
multiplicities up to each side's counts of equal degrees and keeps the
least (size, right before left, sorted degrees), to compare with the
package's scan over sets of distinct degrees.
"""

import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, product
from math import gcd, isqrt, lcm

from blockforge.arith import p_part, prime_factors
from blockforge.blocks import (
    block_data,
    brauer_correspondent,
    brauer_image_is_nonzero,
    p_regular_classes,
)
from blockforge.chartab import character_table, is_p_solvable
from blockforge.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    divide_monic,
    rational,
    reduce_mod_cyclotomic,
)
from blockforge.errors import DomainError, InternalCheckError
from blockforge.modular import (
    _fixture_brauer_characters,
    modular_data,
    restriction_to_p_regular,
)
from blockforge.permgroup import (
    PermutationGroup,
    group_from_elements,
    sylow_subgroup,
)


# A class function of G: one cyclotomic value per class, in class order.
ClassFunction = namedtuple("ClassFunction", "group values")


def characters(G):
    """Irr(G) as class functions, in table order."""
    return [ClassFunction(G, row) for row in character_table(G).values]


def trivial(G):
    """The trivial character of G."""
    return ClassFunction(G, (rational(1),) * len(G.conjugacy_classes()))


def omult(p, q):
    return tuple(p[i] for i in q)


def oinv(p):
    r = [0] * len(p)
    for i, ip in enumerate(p):
        r[ip] = i
    return tuple(r)


def oconj(g, x):
    """The conjugate g x g^-1 of x by g."""
    return omult(omult(g, x), oinv(g))


def mulclose(degree, gens):
    """All products of the generators of the given degree, the identity
    among them: breadth-first closure."""
    gens = [tuple(g) for g in gens]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = omult(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def normalizer_by_scan(G, H):
    """N_G(H) as an element set: every element of G conjugates H's
    generators, and is kept when all land in H (the package's route
    before its orbit walk)."""
    hset = H.element_set()
    return frozenset(
        g for g in G.element_set() if all(oconj(g, x) in hset for x in H.generators)
    )


def centralizer_by_scan(G, xs):
    """The elements of G that commute with every permutation in xs,
    which need not lie in G."""
    return frozenset(
        g for g in G.element_set() if all(omult(g, x) == omult(x, g) for x in xs)
    )


def conjugate_by_scan(G, H, K):
    """Whether some element of G conjugates H's generators into K, at
    equal orders."""
    kset = K.element_set()
    return H.order() == K.order() and any(
        all(oconj(g, x) in kset for x in H.generators) for g in G.element_set()
    )


def generators_by_closure(degree, elements):
    """The generator rule of ``group_from_elements`` by breadth-first
    closure: each element, in sorted order, that the closure of those
    kept before it misses."""
    kept = []
    closure = mulclose(degree, ())
    for x in sorted(elements):
        if x not in closure:
            kept.append(x)
            closure = mulclose(degree, kept)
    return tuple(kept)


def brute_classes(elements):
    """Conjugacy classes of a closed element set, as a list of frozensets."""
    elements = set(elements)
    out = []
    remaining = set(elements)
    while remaining:
        x = min(remaining)
        cls = frozenset(omult(omult(g, x), oinv(g)) for g in elements)
        remaining -= cls
        out.append(cls)
    return out


def perm_order(p):
    k, q = 1, p
    ident = tuple(range(len(p)))
    while q != ident:
        q = omult(q, p)
        k += 1
    return k


def all_subgroups(elements):
    """Every subgroup of a closed element set, by closure growth."""
    degree = len(next(iter(elements)))
    ident = tuple(range(degree))
    seen = {frozenset({ident})}
    frontier = [frozenset({ident})]
    while frontier:
        new = []
        for h in frontier:
            for x in elements:
                if x in h:
                    continue
                k = mulclose(degree, list(h) + [x])
                if k not in seen:
                    seen.add(k)
                    new.append(k)
        frontier = new
    return seen


def composition_factor_orders(elements):
    """Orders of the composition factors along one composition series."""
    n = len(elements)
    if n == 1:
        return []
    subs = all_subgroups(elements)
    normals = []
    for h in subs:
        if len(h) in (n,):
            continue
        if all(omult(omult(g, x), oinv(g)) in h for g in elements for x in h):
            normals.append(h)
    top = max(normals, key=len)
    return [n // len(top)] + composition_factor_orders(top)


def is_p_solvable_by_factors(elements, p):
    for f in composition_factor_orders(elements):
        if f % p == 0:
            # a p-solvable factor divisible by p must be a p-group
            m = f
            while m % p == 0:
                m //= p
            if m != 1:
                return False
    return True


def _next_prime_with(e, lower):
    q = lower + 1
    while True:
        if q % e == 1 and all(q % d for d in range(2, isqrt(q) + 1)):
            return q
        q += 1


def character_degrees_common_eigenvector(elements):
    """Irreducible character degrees via common eigenvectors of the class
    matrices, computed modulo an independently chosen prime.

    The class-sum matrices commute and share one-dimensional joint
    eigenspaces whose eigenvalue vectors are the central characters.  A
    separating integer combination of the matrices is diagonalised over
    GF(q) for a prime q = 1 (mod exponent) exceeding 4*sqrt(|G|); each
    degree is then the unique square root below sqrt(|G|) of
    |G| / sum_i w_i w_{i*} / n_i.  All arithmetic is exact.

    The weights t^i are tried for 0 < t < q only, as t and t + q give the
    same matrix mod q; a group with many classes against q (C2^5 has 32
    classes at q = 23) may have no separating combination, and then the
    oracle fails loudly instead of searching forever.
    """
    elements = set(elements)
    n = len(elements)
    classes = brute_classes(elements)
    classes.sort(key=lambda c: (perm_order(min(c)), len(c), min(c)))
    r = len(classes)
    where = {}
    for i, c in enumerate(classes):
        for x in c:
            where[x] = i
    exponent = 1
    for c in classes:
        o = perm_order(min(c))
        exponent = exponent * o // gcd(exponent, o)
    q = _next_prime_with(exponent, max(4 * isqrt(n) + 1, exponent))

    # structure constants by direct pair counting
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    reps = [min(c) for c in classes]
    for i, ci in enumerate(classes):
        for x in ci:
            xinv = oinv(x)
            for k, zk in enumerate(reps):
                a[i][where[omult(xinv, zk)]][k] += 1

    def separating_matrix(t):
        m = [[0] * r for _ in range(r)]
        for i in range(r):
            w = pow(t, i, q)
            for j in range(r):
                for k in range(r):
                    m[j][k] = (m[j][k] + w * a[i][j][k]) % q
        return m

    for t in range(1, q):
        vecs = eigenvectors_by_full_scan(separating_matrix(t), q)
        if vecs is not None:
            break
    else:
        raise AssertionError(
            f"no combination with weights t^i, 0 < t < {q}, separates the"
            f" {r} central characters mod {q}"
        )

    inv_class = [where[oinv(reps[i])] for i in range(r)]
    sizes = [len(c) for c in classes]
    degrees = []
    for w in vecs:
        scale = pow(w[0], q - 2, q)
        w = [x * scale % q for x in w]
        s = sum(w[i] * w[inv_class[i]] * pow(sizes[i], q - 2, q) for i in range(r)) % q
        d2 = n * pow(s, q - 2, q) % q
        root = None
        for d in range(1, isqrt(n) + 1):
            if d * d % q == d2:
                root = d
                break
        assert root is not None, "no admissible degree root"
        degrees.append(root)
    assert sum(d * d for d in degrees) == n
    return sorted(degrees)


def eigenvectors_by_full_scan(m, q):
    """Eigenvectors of the square matrix m over GF(q), one null space per
    element of GF(q) in ascending order, or None unless every eigenspace
    is one-dimensional and together they span GF(q)^r."""
    r = len(m)
    vecs = []
    for lam in range(q):
        rows = [[(m[j][k] - (lam if j == k else 0)) % q for k in range(r)] for j in range(r)]
        null = _nullspace_mod(rows, q)
        if len(null) > 1:
            return None
        vecs.extend(null)
    return vecs if len(vecs) == r else None


def _nullspace_mod(rows, q):
    r = len(rows)
    cols = len(rows[0])
    m = [row[:] for row in rows]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, r) if m[i][col] % q), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], q - 2, q)
        m[rank] = [x * inv % q for x in m[rank]]
        for i in range(r):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(m[i][k] - f * m[rank][k]) % q for k in range(cols)]
        pivots.append(col)
        rank += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-m[i][fc]) % q
        basis.append(v)
    return basis


def exhaustive_ibr(candidates, count):
    """The unique size-`count` subset of the candidate Brauer-character
    vectors through which every candidate decomposes with nonnegative
    integer coefficients.  Candidates are (degree, value-tuple) pairs
    whose values support exact equality and arithmetic."""
    hits = []
    for subset in combinations(range(len(candidates)), count):
        basis = [candidates[i] for i in subset]
        if all(_is_nn_combo(c, basis) for c in candidates):
            hits.append(subset)
    assert len(hits) == 1, f"expected a unique spanning subset, found {len(hits)}"
    return hits[0]


def _is_nn_combo(target, basis):
    tdeg, tvals = target
    if tdeg == 0:
        return not any(tvals)
    if not basis:
        return False
    (bdeg, bvals), rest = basis[0], basis[1:]
    for m in range(tdeg // bdeg, -1, -1):
        newdeg = tdeg - m * bdeg
        newvals = tuple(tv - m * bv for tv, bv in zip(tvals, bvals))
        if newdeg == 0:
            if all(v == 0 for v in newvals):
                return True
            continue
        if _is_nn_combo((newdeg, newvals), rest):
            return True
    return False


def subgroups_of_order(G, m):
    """Representatives of G-conjugacy classes of subgroups of order m.

    m must be a prime power; the subgroups are enumerated inside one
    fixed Sylow subgroup (every p-subgroup is conjugate into it) and
    then fused under G-conjugation.  Representatives are the subgroups
    with lexicographically smallest element tuple, sorted likewise.
    """
    if m == 1:
        return (PermutationGroup(G.degree, ()),)
    if G.order() % m != 0:
        raise DomainError(f"{m} does not divide the group order {G.order()}")
    ps = prime_factors(m)
    if len(ps) != 1:
        raise DomainError(f"subgroup search requires a prime power, got {m}")
    P = sylow_subgroup(G, ps[0])
    if P.order() % m != 0:
        raise DomainError(f"{m} exceeds the p-part of the group order")
    found = set()
    layer = {frozenset({tuple(range(G.degree))})}
    seen = set(layer)
    while layer:
        nxt = set()
        for hset in layer:
            H = group_from_elements(G.degree, tuple(hset))
            for x in P.elements():
                if x in hset:
                    continue
                K = PermutationGroup(G.degree, H.generators + (x,))
                if K.order() > m:
                    continue
                kset = frozenset(K.element_set())
                if kset in seen:
                    continue
                seen.add(kset)
                if len(kset) == m:
                    found.add(kset)
                else:
                    nxt.add(kset)
        layer = nxt
    reps = []
    remaining = set(found)
    for hset in sorted(found, key=lambda s: tuple(sorted(s))):
        if hset not in remaining:
            continue
        orbit = {
            frozenset(omult(omult(g, x), oinv(g)) for x in hset)
            for g in G.elements()
        }
        remaining -= orbit
        reps.append(group_from_elements(G.degree, tuple(sorted(hset))))
    return tuple(reps)


def defect_group_by_subgroup_search(block):
    """Defect group via the Brauer homomorphism: the unique conjugacy
    class of subgroups of order p^d whose Brauer image is nonzero."""
    bs = block.blockset
    candidates = subgroups_of_order(bs.group, bs.prime**block.defect)
    hits = [Q for Q in candidates if brauer_image_is_nonzero(block, Q)]
    if len(hits) != 1:
        raise InternalCheckError(
            f"expected one defect group class, found {len(hits)}"
        )
    return hits[0]


@lru_cache(maxsize=None)
def _power_basis_by_recurrence(e):
    """The coordinates of zeta_e^k, k = 0..e-1, on the power basis of
    conductor e as tuples of Fractions: each row is the last times zeta,
    with zeta^d rewritten as zeta^d - Phi_e(zeta) for d = phi(e)."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    current = [Fraction(1)] + [Fraction(0)] * (d - 1)
    rows = []
    for _ in range(e):
        rows.append(tuple(current))
        carry = current[-1]
        current = [Fraction(0)] + current[:-1]
        for i in range(d):
            current[i] -= carry * phi[i]
    return tuple(rows)


def power_basis_coords(e, coefficients):
    """The power-basis coordinates at conductor e of sum_t coefficients[t]
    zeta_e^t, t read mod e, in Fractions."""
    basis = _power_basis_by_recurrence(e)
    out = [Fraction(0)] * len(basis[0])
    for t, c in enumerate(coefficients):
        if c:
            for i, x in enumerate(basis[t % e]):
                out[i] += c * x
    return tuple(out)


def solve_rational(columns, target):
    """A solution a of sum_j a_j * columns[j] = target over Q, as a list
    of Fractions (free unknowns set to 0); None if inconsistent."""
    rows = len(target)
    cols = len(columns)
    m = [[columns[j][i] for j in range(cols)] + [target[i]] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, rows):
        if m[i][cols]:
            return None
    solution = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        solution[col] = m[i][cols]
    return solution


def canonical_by_solves(e, coords):
    """(conductor, coordinates) of the value with power-basis coordinates
    coords at conductor e, rewritten at its minimal conductor: the first
    divisor d of e, in increasing order, for which one solve_rational
    finds coordinates on zeta_d^j = zeta_e^(j e/d), j < phi(d).  The
    first such d is the minimal conductor, because the conductors whose
    field holds the value are closed under gcd."""
    coords = tuple(map(Fraction, coords))
    basis = _power_basis_by_recurrence(e)
    for d in range(1, e):
        if e % d:
            continue
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        columns = [basis[j * (e // d)] for j in range(phi)]
        solution = solve_rational(columns, coords)
        if solution is not None:
            return d, tuple(solution)
    return e, coords


def from_root_combination(e, coefficients):
    """The value sum_t coefficients[t] * zeta_e^t, t read mod e, by one
    reduction mod Phi_e."""
    poly = [0] * e
    for t, c in enumerate(coefficients):
        if c:
            poly[t % e] += c
    return Cyclotomic(e, reduce_mod_cyclotomic(poly, e))


def from_root_combination_by_power_basis(e, coefficients):
    """(conductor, coordinates) of the value sum_t coefficients[t] zeta_e^t:
    Fraction coordinates, canonicalized by ``canonical_by_solves`` whether
    rational or not."""
    return canonical_by_solves(e, power_basis_coords(e, coefficients))


def zeta(e, k=1):
    """The root of unity zeta_e^k."""
    return from_root_combination(e, [int(t == k % e) for t in range(e)])


def roots(v, e):
    """v's coefficients on zeta_e^0, ..., zeta_e^(e-1), for e a multiple
    of its conductor c: power-basis coordinate j is zeta_e^(j e/c)."""
    assert e % v.conductor == 0, "conductor does not divide the requested one"
    out = [0] * e
    for j, c in enumerate(v.coords):
        out[j * (e // v.conductor)] = c
    return out


def convolve(x, y, out, q=1):
    """Add q times the cyclic convolution of root lists x and y into out."""
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[(i + j) % len(out)] += q * a * b


def combination(terms):
    """sum q * v over the (q, v) in terms: one root list at the lcm of
    the conductors, canonicalized once."""
    terms = list(terms)
    e = lcm(*(v.conductor for _, v in terms))
    out = [0] * e
    for q, v in terms:
        for t, c in enumerate(roots(v, e)):
            out[t] += q * c
    return from_root_combination(e, out)


def plus(*values):
    return combination((1, v) for v in values)


def times(a, b):
    e = lcm(a.conductor, b.conductor)
    out = [0] * e
    convolve(roots(a, e), roots(b, e), out)
    return from_root_combination(e, out)


def regular_character(G):
    values = [rational(G.order())]
    values.extend(rational(0) for _ in G.conjugacy_classes()[1:])
    return ClassFunction(G, tuple(values))


def inner_product(alpha, chi):
    """<alpha, chi> = (1/|G|) sum over classes |C| alpha(x) conj(chi(x)).

    chi must be a character: conj(chi(x)) = chi(x^-1), so chi is read at
    the inverse class and no value is conjugated.  Every class adds into
    one root list at the exponent of G."""
    if alpha.group != chi.group:
        raise DomainError("class functions live on different groups")
    G = alpha.group
    e = G.exponent()
    total = [0] * e
    for c, a, k in zip(G.conjugacy_classes(), alpha.values, G.inverse_classes()):
        convolve(roots(a, e), roots(chi.values[k], e), total, c.size)
    return from_root_combination(e, [Fraction(t, G.order()) for t in total])


def pairing_dense(table, a, b):
    """sum_k |C_k| a_k b_(k^-1) for rows a and b of integer power-basis
    coordinates on the table's classes, by element order: the terms over
    the classes of order o are added as integer polynomials in zeta_o and
    reduced once mod Phi_o to S_o.  Returns ({o: S_o}, None), or (None, o)
    for the first irrational S_o."""
    sums = {}
    for c, x, k in zip(table.classes, a, table.group.inverse_classes()):
        y = b[k]
        acc = sums.setdefault(c.element_order, [0] * (2 * len(y) - 1))
        for i, xi in enumerate(x):
            if xi:
                xi *= c.size
                for j, yj in enumerate(y):
                    acc[i + j] += xi * yj
    partials = {}
    for o, acc in sums.items():
        partial = reduce_mod_cyclotomic(acc, o)
        if any(partial[1:]):
            return None, o
        partials[o] = partial[0]
    return partials, None


def induce(psi, G):
    """Induction of a class function from a subgroup H to G:
    psi^G(x) = (|C_G(x)| / |H|) * sum of |c| psi(c) over H-classes c
    inside the G-class of x."""
    H = psi.group
    if H == G:
        return psi
    if not H.is_subgroup_of(G):
        raise DomainError("induction source is not a subgroup")
    classes = G.conjugacy_classes()
    terms = [[] for _ in classes]
    for c, v in zip(H.conjugacy_classes(), psi.values):
        j = G.class_index(c.representative)
        q = Fraction(c.size * G.order(), classes[j].size * H.order())
        terms[j].append((q, v))
    return ClassFunction(G, tuple(combination(t) for t in terms))


def restrict(chi, H):
    """The class function chi restricted to the subgroup H, read at the
    class of G that contains each class representative of H."""
    G = chi.group
    return ClassFunction(
        H,
        tuple(
            chi.values[G.class_index(c.representative)]
            for c in H.conjugacy_classes()
        ),
    )


def brauer_degrees_over(G, p, ibr, theta):
    """Degrees of the Brauer characters in ibr, IBr(G) at p as
    ``brauer_by_solves`` finds it, whose restriction to the p'-subgroup
    K of theta contains theta, by restricting each one's values to K
    (every class of K is p-regular) and pairing the resulting ordinary
    character of K with theta (``inner_product``)."""
    K = theta.group
    position = {k: i for i, k in enumerate(p_regular_classes(G, p))}
    out = []
    for values, _ in ibr:
        restricted = ClassFunction(
            K,
            tuple(
                values[position[G.class_index(c.representative)]]
                for c in K.conjugacy_classes()
            ),
        )
        try:
            m = inner_product(restricted, theta).integer_value()
        except DomainError as exc:
            raise InternalCheckError(
                "Brauer restriction multiplicity is not an integer"
            ) from exc
        if m < 0:
            raise InternalCheckError(
                "Brauer restriction multiplicity is negative"
            )
        if m:
            out.append(values[0].integer_value())
    return out


def brauer_by_solves(G, p):
    """IBr(G) at p, as (values, coordinates) pairs on the p-regular
    classes, and the decomposition matrix, one exact solve at a time.
    For G not p-solvable IBr is the package's stored table; otherwise
    the restrictions to the p-regular classes are scanned in ascending
    order of the table's row key, and each one outside the span of those
    kept so far is kept.  Each ordinary character's row is then the
    solution of its restriction over the kept columns."""
    table = character_table(G)
    restrictions = [
        restriction_to_p_regular(G, i, p) for i in range(len(table.values))
    ]
    if G.order() % p == 0 and not is_p_solvable(G, p):
        kept = _fixture_brauer_characters(G, p)
        if kept is None:
            raise DomainError("no stored Brauer character table")
    else:
        kept = []
        for c in sorted(restrictions, key=lambda c: tuple(v.sort_key() for v in c[0])):
            if solve_rational([x for _, x in kept], c[1]) is None:
                kept.append(c)
    assert len(kept) == len(p_regular_classes(G, p)), (G, p)
    columns = [x for _, x in kept]
    rows = []
    for _, coords in restrictions:
        solution = solve_rational(columns, coords)
        assert solution is not None, (G, p)
        assert all(d.denominator == 1 and d >= 0 for d in solution), (G, p)
        rows.append(tuple(int(d) for d in solution))
    return tuple(kept), tuple(rows)


def induced_central(b, G):
    """lambda_b^G on the classes of G, read off b's own reduced central
    character: for each class K of G, the sum of lambda_b(L^) over the
    distinct classes L of H met by the elements of K.  None when the
    induced function is not multiplicative."""
    H = b.blockset.group
    F = ResidueField.of_map(b.blockset.rmap)
    hset = H.element_set()
    values = []
    for c in G.conjugacy_classes():
        total = F.zero
        seen_h_classes = set()
        for x in G.class_elements(c.index):
            if x in hset:
                hidx = H.class_index(x)
                if hidx not in seen_h_classes:
                    seen_h_classes.add(hidx)
                    total = F.add(total, b.reduced_central[hidx])
        values.append(total)
    values = tuple(values)
    a = structure_constants(G)
    r = len(values)
    for i in range(r):
        for j in range(r):
            rhs = F.zero
            for k in range(r):
                if a[i][j][k]:
                    rhs = F.add(rhs, F.mul(values[k], F.of(a[i][j][k])))
            if F.mul(values[i], values[j]) != rhs:
                return None
    return values


def galois(v, k):
    """The image of a cyclotomic value under the field automorphism
    zeta -> zeta^k, built from its coordinates at its own conductor."""
    e = v.conductor
    if gcd(k, e) != 1:
        raise DomainError("automorphism exponent not coprime to conductor")
    coefficients = [0] * e
    for j, c in enumerate(v.coords):
        coefficients[j * k % e] += c
    return from_root_combination(e, coefficients)


def complex_conjugate(v):
    """The complex conjugate of a cyclotomic value: zeta -> zeta^-1."""
    return galois(v, -1)


def is_algebraic_integer(v):
    """Whether a cyclotomic value is an algebraic integer: its coordinates
    at its minimal conductor c are integers, as the power basis is an
    integral basis of Z[zeta_c]."""
    return all(c.denominator == 1 for c in v.coords)


def central_character(chi):
    """The central character omega(C) = |C| chi(x) / chi(1) of an
    irreducible, one cyclotomic value per class."""
    G = chi.group
    d = chi.values[0].integer_value()
    return tuple(
        combination([(Fraction(c.size, d), v)])
        for c, v in zip(G.conjugacy_classes(), chi.values)
    )


def blocks_by_cyclotomic_values(bs):
    """The reduced central character of every row of bs's table, and the
    idempotent coefficients of every block of bs, as cyclotomic values:
    each idempotent coefficient sums the block's characters on one root
    list, and each value is checked integral (or p-local) and reduced at
    its own minimal conductor."""
    G, p, rmap, table = bs.group, bs.prime, bs.rmap, bs.table
    centrals = []
    for chi in characters(G):
        omega = central_character(chi)
        if not all(is_algebraic_integer(v) for v in omega):
            raise InternalCheckError("central character is not integral")
        centrals.append(tuple(rmap.reduce(v.coords, v.conductor) for v in omega))
    n_p = p_part(G.order(), p)
    F = ResidueField.of_map(rmap)
    inv_m = F.inverse(F.of(G.order() // n_p))
    idempotents = []
    for b in bs.blocks:
        coeffs = []
        for k in G.inverse_classes():
            local = combination(
                (Fraction(table.degrees[i], n_p), table.values[i][k])
                for i in b.char_indices
            )
            if not is_algebraic_integer(local):
                raise InternalCheckError("idempotent coefficient is not p-local")
            coeffs.append(F.mul(rmap.reduce(local.coords, local.conductor), inv_m))
        idempotents.append(tuple(coeffs))
    return centrals, idempotents


def navarro_classes_by_subgroups(G, p):
    """The sorted (|U|, n_p(U)) over the conjugacy classes of subgroups U
    generated by p-elements, and n_p(G), from every subgroup of G
    (``all_subgroups``): U is p-generated when its p-elements close to
    U, its class is the set of its conjugates g U g^-1, and n_p counts
    the subgroups of order the p-part that lie in it."""
    elements = G.element_set()
    subgroups = all_subgroups(elements)

    def sylow_number(U):
        q = p_part(len(U), p)
        return sum(len(Q) == q and Q <= U for Q in subgroups)

    pairs = []
    classified = set()
    for U in subgroups:
        if U in classified:
            continue
        classified.update(frozenset(oconj(g, x) for x in U) for g in elements)
        p_elements = [x for x in U if p_part(perm_order(x), p) == perm_order(x)]
        if len(mulclose(G.degree, p_elements)) == len(U):
            pairs.append((len(U), sylow_number(U)))
    return sorted(pairs), sylow_number(elements)


def conjugate_character(theta, g):
    """The class function x -> theta(g x g^-1), conjugating each class
    representative of theta's group by g."""
    N = theta.group
    return ClassFunction(N, tuple(theta.values[k] for k in _conjugation(N, g)))


def _conjugation(N, g):
    return tuple(
        N.class_index(oconj(g, c.representative)) for c in N.conjugacy_classes()
    )


@lru_cache(maxsize=1)
def _conjugations(G, N):
    """For every element g of G, in order, the class of g x_k g^-1 for
    each class representative x_k of N."""
    return tuple((g, _conjugation(N, g)) for g in G.elements())


def inertia_group_by_scan(G, N, theta):
    """The stabilizer of theta in G: every element of G conjugates
    theta, and the group is built from the elements that fix it."""
    v = theta.values
    members = tuple(g for g, a in _conjugations(G, N) if tuple(v[k] for k in a) == v)
    return group_from_elements(G.degree, members)


def covered_blocks_by_scan(B, N):
    """The blocks of the normal subgroup N that B covers: those holding
    a constituent of the restriction of a character of B, paired with
    every row of Irr(N) (``restrict``, ``inner_product``), in block
    order.  They must be the orbit of one of them under conjugation by
    every element of G (``_conjugations``), or an AssertionError is
    raised."""
    G = B.blockset.group
    local = block_data(N, B.blockset.prime)
    irr_g = characters(G)
    irr_n = characters(N)
    covered = set()
    for i in B.char_indices:
        res = restrict(irr_g[i], N)
        for k, theta in enumerate(irr_n):
            if inner_product(res, theta).integer_value():
                covered.add(local.block_of(k))
    row_of = {theta.values: k for k, theta in enumerate(irr_n)}
    first = min(covered, key=lambda b: b.index).char_indices[0]
    v = irr_n[first].values
    orbit = {
        local.block_of(row_of[tuple(v[j] for j in a)]) for _, a in _conjugations(G, N)
    }
    assert orbit == covered, (G, N, B.index)
    return tuple(sorted(covered, key=lambda b: b.index))


def normal_subgroups_by_joins(G):
    """All normal subgroups as joins of normal closures of classes.

    The normal closure of a class is the subgroup its elements generate.
    Every normal subgroup is a union of conjugacy classes and hence the
    join of the normal closures of the classes it contains, so joining
    each subgroup found with each class closure it does not contain
    finds them all; each join is one Dimino enumeration on the
    generators of both.  Sorted by (order, element tuple)."""
    found = {}
    for c in G.conjugacy_classes():
        n = PermutationGroup(G.degree, G.class_elements(c.index))
        found.setdefault(n.element_set(), n)
    seeds = list(found.values())
    queue = list(seeds)
    for a in queue:
        for b in seeds:
            if b.is_subgroup_of(a):
                continue
            join = PermutationGroup(G.degree, a.generators + b.generators)
            if join.element_set() not in found:
                found[join.element_set()] = join
                queue.append(join)
    return tuple(sorted(found.values(), key=lambda n: (n.order(), n.elements())))


def cores_by_class_closures(G, p):
    """(O_p(G), O_p'(G)): each the join of the normal closures of the
    classes whose closure is a p-group, or a p'-group.  The normal
    closure of a class is the subgroup its elements generate; a normal
    subgroup is the join of the normal closures of its classes, and the
    join of normal p-subgroups (p'-subgroups) is one."""
    closures = [
        PermutationGroup(G.degree, G.class_elements(c.index))
        for c in G.conjugacy_classes()
    ]
    cores = []
    for accept in (lambda n: n == p_part(n, p), lambda n: n % p != 0):
        gens = [g for N in closures if accept(N.order()) for g in N.generators]
        cores.append(PermutationGroup(G.degree, gens))
    return tuple(cores)


def is_p_solvable_by_quotients(G, p):
    """Whether G is p-solvable: G is when it is trivial, or when O_p'(G)
    or O_p(G) is not trivial and the quotient by it is p-solvable.  The
    quotient is built as the action of G on the left cosets."""
    if G.order() == 1:
        return True
    for K in reversed(cores_by_class_closures(G, p)):
        if K.order() > 1:
            return is_p_solvable_by_quotients(_coset_action(G, K), p)
    return False


def _coset_action(G, K):
    point_of = {}
    reps = []
    for x in G.elements():
        if x not in point_of:
            for k in K.elements():
                point_of[omult(x, k)] = len(reps)
            reps.append(x)
    images = [tuple(point_of[omult(g, x)] for x in reps) for g in G.generators]
    return PermutationGroup(len(reps), images)


def _monic(a, p):
    """a over GF(p), low degree first, without its zero top
    coefficients and scaled to be monic; () for zero."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    inv = pow(a[-1], -1, p) if a else 0
    return tuple(c * inv % p for c in a)


def _gcd(a, b, p):
    """The monic gcd over GF(p) of a and b, deg a >= deg b, by Euclid."""
    a, b = _monic(a, p), _monic(b, p)
    while b:
        a, b = b, _monic(divide_monic(a, b)[1], p)
    return a


def _split(h, f, p, rng):
    """The monic irreducible factors of the monic h, a product of
    distinct irreducibles of degree f over GF(p), by equal-degree
    splitting: GF(p)[t]/(h) is a product of copies of GF(p^f), and for
    a random a the gcd of h with a^((p^f - 1)/2) - 1 (p odd) or with
    the trace a + a^2 + ... + a^(2^(f-1)) (p = 2) keeps about half of
    the factors."""
    if len(h) - 1 == f:
        return [h]
    ring = ResidueField(p, h[:-1])
    while True:
        a = tuple(rng.randrange(p) for _ in range(ring.f))
        if p == 2:
            b = t = a
            for _ in range(f - 1):
                t = ring.mul(t, t)
                b = ring.add(b, t)
        else:
            b = ring.sub(ring.pow(a, (p**f - 1) // 2), ring.one)
        g = _gcd(h, b, p)
        if 1 < len(g) < len(h):
            q = tuple(c % p for c in divide_monic(h, g)[0])
            return _split(g, f, p, rng) + _split(q, f, p, rng)


@lru_cache(maxsize=None)
def multiplicative_order(a, n):
    """The order of a modulo n, for a unit a, by repeated products."""
    k, x = 1, a % n
    while x != 1 % n:
        x = x * a % n
        k += 1
    return k


def _phi_factors(n, p):
    phi = tuple(c % p for c in cyclotomic_polynomial(n))
    return tuple(sorted(_split(phi, multiplicative_order(p, n), p, random.Random(n))))


def fields_above(rmap):
    """The residue fields above p, one per irreducible factor g of
    Phi_e' mod p, each of degree the order f of p mod e', in coefficient
    order: each is R modulo g (``ResidueField.residue``)."""
    return [ResidueField(rmap.p, g[:-1]) for g in _phi_factors(rmap.e_prime, rmap.p)]


class ResidueField:
    """GF(p)[t] modulo the monic t^f + m(t), on coefficient tuples,
    constant term first, m given without its leading 1: every element
    operation the package does without, for the oracles and the
    field-axiom tests.  The ring is a field when the modulus is
    irreducible; in the reduction map's ring only GF(p) scalars are
    inverted, and a^(p^f - 2) is their inverse there too."""

    def __init__(self, p, modulus):
        self.p = p
        self.f = f = len(modulus)
        self.size = p**f
        self.modulus = tuple(modulus)
        self.zero = (0,) * f
        self.one = (1,) + self.zero[1:]

    @classmethod
    def of_map(cls, rmap):
        """The ring R = GF(p)[x]/(Phi_e') a reduction map lands in."""
        return cls(rmap.p, cyclotomic_polynomial(rmap.e_prime)[:-1])

    def residue(self, a):
        """The image of a coefficient tuple of any width, read modulo
        this ring's modulus: for an element of R and a field above p, its
        image in that field."""
        a = tuple(a) + self.zero[len(a):]
        return tuple(c % self.p for c in divide_monic(a, (*self.modulus, 1))[1])

    def of(self, n):
        """The image of the integer n."""
        return (n % self.p,) + self.zero[1:]

    def elements(self):
        """Every element, in encoding order: the base-p digits of 0, ...,
        q - 1, least significant first."""
        return [
            tuple(code // self.p**i % self.p for i in range(self.f))
            for code in range(self.size)
        ]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        """a b by Horner's rule on b, highest coefficient first: each step
        multiplies by t, where t^f = -m(t), and adds a multiple of a."""
        out = self.zero
        for y in reversed(b):
            top = out[-1]
            out = tuple(
                (s - top * m + y * x) % self.p
                for s, m, x in zip((0,) + out[:-1], self.modulus, a)
            )
        return out

    def pow(self, a, n):
        """a^n for n >= 0."""
        out, base = self.one, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inverse(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def multiplicative_order(self, a):
        if a == self.zero:
            raise DomainError("zero has no multiplicative order")
        n = self.size - 1
        for q in prime_factors(n):
            while n % q == 0 and self.pow(a, n // q) == self.one:
                n //= q
        return n


def reduce_by_elements(rmap, coords, o):
    """rmap's image of the integer coordinates coords at conductor o,
    summed one ring element per coordinate from the powers of x, read
    off the map's power table."""
    F = ResidueField.of_map(rmap)
    n = rmap.e_prime
    step = rmap.e // o
    x = rmap.powers[1]
    out = F.zero
    for j, c in enumerate(coords):
        if c:
            power = F.pow(x, rmap.alpha * j * step % n)
            out = F.add(out, F.mul(power, F.of(int(c))))
    return out


def structure_constants(G):
    """All class-algebra structure constants
    a[i][j][k] = #{x in C_i : x^-1 z_k in C_j}, z_k the representative of
    class k, by one product of elements per x and k."""
    reps = [c.representative for c in G.conjugacy_classes()]
    r = len(reps)
    where = {x: i for i in range(r) for x in G.class_elements(i)}
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x, i in where.items():
        for k, z in enumerate(reps):
            a[i][where[omult(oinv(x), z)]][k] += 1
    return tuple(tuple(tuple(row) for row in plane) for plane in a)


def class_algebra_product_by_elements(G, u, v, F):
    """The product of two class-algebra elements over the reference
    field F, summed one field element per nonzero structure constant."""
    a = structure_constants(G)
    r = len(u)
    out = [F.zero] * r
    for i in range(r):
        if u[i] == F.zero:
            continue
        for j in range(r):
            if v[j] == F.zero:
                continue
            uv = F.mul(u[i], v[j])
            row = a[i][j]
            for k in range(r):
                if row[k]:
                    out[k] = F.add(out[k], F.mul(uv, F.of(row[k])))
    return tuple(out)


def _divisibility_matchings(left, right):
    """Each injective assignment of right positions to the left ones
    with left[i] divisible by right[j], in lexicographic order."""

    def extend(chosen):
        if len(chosen) == len(left):
            yield tuple(chosen)
            return
        a = left[len(chosen)]
        for j, b in enumerate(right):
            if j not in chosen and a % b == 0:
                yield from extend(chosen + [j])

    return extend([])


def _reach_masks(side, mine, other):
    """Per entry of mine, the bitmask of the entries of other it meets."""
    return [
        sum(1 << k for k, e in enumerate(other)
            if (e % d if side == "right" else d % e) == 0)
        for d in mine
    ]


def hall_violator_by_subsets(left, right):
    n = len(left)
    sides = [
        (side, mine, _reach_masks(side, mine, other))
        for side, mine, other in (("right", right, left), ("left", left, right))
    ]
    for size in range(1, n + 1):
        for side, mine, masks in sides:
            for subset in combinations(range(n), size):
                nbrs = 0
                for i in subset:
                    nbrs |= masks[i]
                if nbrs.bit_count() < size:
                    return side, tuple(sorted(mine[i] for i in subset))
    return None


def hall_violator_by_multiplicities(left, right):
    best = None
    for rank, side, mine, other in (
        (0, "right", right, left),
        (1, "left", left, right),
    ):
        counts = sorted(Counter(mine).items())
        masks = _reach_masks(side, [d for d, _ in counts], other)
        for vector in product(*(range(m + 1) for _, m in counts)):
            size = sum(vector)
            nbrs = 0
            for mask, c in zip(masks, vector):
                if c:
                    nbrs |= mask
            if 0 < size and nbrs.bit_count() < size:
                degrees = tuple(
                    d for (d, _), c in zip(counts, vector) for _ in range(c)
                )
                key = (size, rank, degrees)
                best = key if best is None else min(best, key)
    return None if best is None else (("right", "left")[best[1]], best[2])


def question35_by_pairs(G, p, cap):
    """The Question 3.5 result of each block of a p-solvable G, found by
    walking every ordinary matching omega, in lexicographic order, and
    for each one every Brauer matching psi, until
    D_B[i, j] = D_b[omega(i), psi(j)] on all height-zero rows i and
    columns j.  A block with more than cap pairs gets None; any other
    gets a dict with its result and, when found, the two witnesses as
    [degree, degree] pairs."""
    bs = block_data(G, p)
    md_big = modular_data(G, p)
    out = []
    for B in bs.blocks:
        b = brauer_correspondent(B)
        md_small = modular_data(b.blockset.group, p)
        left0, right0 = B.height_zero, b.height_zero
        lbr = md_big.height_zero_brauer(B)
        rbr = md_small.height_zero_brauer(b)
        if len(left0) != len(right0) or len(lbr) != len(rbr):
            out.append({"result": "none"})
            continue
        ldeg = [bs.table.degrees[i] for i in left0]
        rdeg = [b.blockset.table.degrees[i] for i in right0]
        lbdeg = [md_big.brauer_degrees[j] for j in lbr]
        rbdeg = [md_small.brauer_degrees[j] for j in rbr]
        omegas = list(islice(_divisibility_matchings(ldeg, rdeg), cap + 1))
        psis = list(islice(_divisibility_matchings(lbdeg, rbdeg), cap + 1))
        if len(omegas) * len(psis) > cap:
            out.append(None)
            continue
        rec = {"result": "none"}
        for omega in omegas:
            psi = next(
                (
                    psi
                    for psi in psis
                    if all(
                        md_big.decomposition[i][j]
                        == md_small.decomposition[right0[omega[a]]][rbr[psi[c]]]
                        for a, i in enumerate(left0)
                        for c, j in enumerate(lbr)
                    )
                ),
                None,
            )
            if psi is not None:
                rec = {
                    "result": "found",
                    "ordinary_witness": [
                        [d, rdeg[k]] for d, k in zip(ldeg, omega)
                    ],
                    "brauer_witness": [
                        [d, rbdeg[k]] for d, k in zip(lbdeg, psi)
                    ],
                }
                break
        out.append(rec)
    return out
