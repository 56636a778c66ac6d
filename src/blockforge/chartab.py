"""Ordinary character tables via the Dixon-Schneider method, and the
class-function algebra built on them.

A character is a row of its table, named by its row index, with no
per-character object: the table keeps each row's ``values``, ``coords``
and degree (``degrees``), and the row mapped into one prime field
(``weighted`` and ``inverted``).  Rows ascend by the key
tuple(v.sort_key() for v in row), so by degree: values[0] is the degree.

The table is computed exactly: eigenvector data for the class-sum
matrices is found over a prime field GF(q) with q = 1 (mod exponent)
and q squared exceeding 4|G|, degrees are recovered from the second
orthogonality relation, and the actual cyclotomic character values are
lifted through the discrete Fourier sum over power maps, taken over each
class's element order o rather than the group exponent: each value's
integer root coefficients are reduced once mod Phi_o to its
coordinates, and only an irrational value descends to its minimal
conductor, one prime at a time with no linear solve (``cyclotomic``).
The rows must be orthonormal, or an internal error is raised; for a
square table that implies the column relation.  Each distinct column
is lifted once, and the lift gives conjugate values on inverse classes.

The construction is fully deterministic, with no random splitting
vectors: the class matrices split one vector, cheapest class first
(Schneider's refinement of Dixon's method).  By the column relation at
the identity, delta_1 = (1, 0, ..., 0) is sum_chi (chi(1)^2/|G|) omega_chi
mod q, every coefficient nonzero, so no eigenspace is kept: each set S
of characters not yet told apart is one vector u_S, the part of that sum
over S.  A class matrix splits u_S along its Krylov sequence u_S, M u_S,
M^2 u_S, ... up to the first dependence, which gives u_S's minimal
polynomial; its roots are the distinct omega_chi(K) for chi in S, and
each part is one polynomial in M applied to u_S.  Once there are r
vectors, each is one central character (``_central_characters``).  No
class matrix is built: a product M v reads only the columns k of M with
v_k nonzero, and a column is built, as one count over a class, when a
product first reads it (``_class_column``).

How Irr(G) restricts to a subgroup H lives in one cached table,
``restriction_multiplicities(G, H)``: covering, Clifford theory,
Fong-Reynolds induction and Glauberman correspondents read its rows
and columns.

How G acts on Irr(N), for a normal subgroup N, lives in one cached
table, ``character_action(G, N)``: for each generator of G, the row
index of each conjugated row of N's table, matched on row coordinates.
Characters of N are named by row index: inertia groups and block
covering (each one ``permgroup._stabilizer`` walk on row indices) and
invariance read it.

Normal structure lives in one cached lattice, ``normal_class_sets(G)``:
every normal subgroup as a set of classes, found as the character
kernels closed under intersection.  The normal subgroups, O_p and O_p'
(each built from the one largest set whose order is a power of p, or
prime to p) and p-solvability (read off one chief series of the sets)
come from it; nothing builds a quotient group.  None of these readers
keeps a cache of its own: p-solvability reads the cached lattice, and
the others build their subgroups through the cached ``normal_closure``.

Every layer below the table reads a character value itself in one
representation, kept on the table as ``coords``: its integer
coordinates on the power basis of Q(zeta_o) at its class's element
order o, which is an integral basis of Z[zeta_o].  They are the ones
the lift computes, and each printed value must lift back to them.  The
action on rows, the restriction table's reconstruction, block data and
the decomposition matrix read them.

A sum of products of values is read through one embedding per table
instead: with Q the least prime = 1 (mod e) above 2|G| max chi(1)^2 and
z of order e mod Q, zeta_o -> z^(e/o) maps each value to one residue
(``CharacterTable``).  A pairing is then one dot product mod Q, and it
has three readers: the table gate, Osima's criterion (``blocks``) and
the restriction table, which maps H's rows at G's Q.  The lift makes
every such sum a rational integer smaller than Q in absolute value, so
its residue decides it (``_verify_orthogonality``).
"""

from collections import Counter
from functools import lru_cache
from math import gcd, isqrt
from operator import itemgetter, mul

from .arith import is_prime, p_part, prime_factors
from .cyclotomic import ONE, Cyclotomic, reduce_mod_cyclotomic
from .errors import DomainError, InternalCheckError
from .perms import identity, inverse, right_factor
from .permgroup import _stabilizer, group_from_elements, is_normal_in, normal_closure


def class_fusion(G, H):
    """For each class of the subgroup H, the index of the class of G
    that contains it."""
    if not H.is_subgroup_of(G):
        raise DomainError("restriction target is not a subgroup")
    return tuple(G.class_index(c.representative) for c in H.conjugacy_classes())


@lru_cache(maxsize=None)
def restriction_multiplicities(G, H):
    """The multiplicity of theta_k in the restriction of chi_i to H, as
    row i and column k (table order of Irr(G) and Irr(H)); by Frobenius
    reciprocity column k also decomposes theta_k induced to G.

    Read through G's embedding (``CharacterTable``): H's exponent divides
    G's, so H's rows map at G's Q by the same zeta_o -> z^(e/o), and
    chi(x^-1) for x in class k of H is chi's inverted row at the class
    of G that contains x (``class_fusion``).  So
    |H| m = sum_k |C_k| theta(x_k) chi(x_k^-1) is one dot product mod Q,
    and m its residue over |H|.  Each distinct fused row is paired with
    every row of H and gated once; rows of G that agree on the fused
    classes restrict to the same character and share it.  A multiplicity
    lies in [0, chi(1)], so a residue above chi(1) means a wrong table.
    Power-basis coordinates are unique, so sum_k m_k theta_k = chi
    restricted to H is then checked exactly, on coordinates; as the
    thetas are independent (H's table gate), the m_k are the
    multiplicities.

    For H = G it is the identity, unpaired: the table gate has proved
    <chi_i, chi_j> = delta_ij on the same cached table."""
    if H == G:
        rows = range(len(character_table(G).values))
        return tuple(tuple(int(i == k) for k in rows) for i in rows)
    fusion = class_fusion(G, H)
    table, sub = character_table(G), character_table(H)
    Q = table.modulus
    thetas = [
        [c.size * v % Q for c, v in zip(sub.classes, row)]
        for row in _embed(sub.coords, sub.classes, table.exponent, Q, table.root)
    ]
    scale = pow(H.order(), -1, Q)
    fused = [tuple(x[k] for k in fusion) for x in table.coords]
    found = {}
    for d, a, y in zip(table.degrees, fused, table.inverted):
        if a in found:
            continue
        b = [y[k] for k in fusion]
        row = [sum(map(mul, t, b)) * scale % Q for t in thetas]
        if max(row) > d:
            raise InternalCheckError(
                f"restriction from {G!r} to {H!r} has a multiplicity above"
                " the degree"
            )
        rebuilt = [[0] * len(v) for v in a]
        for m, theta in zip(row, sub.coords):
            if m:
                for acc, v in zip(rebuilt, theta):
                    for i, c in enumerate(v):
                        acc[i] += m * c
        if tuple(map(tuple, rebuilt)) != a:
            raise InternalCheckError(
                f"constituent decomposition does not reconstruct on {H!r}"
            )
        found[a] = tuple(row)
    return tuple(found[a] for a in fused)


def irr_over(G, N, k):
    """The row indices of the irreducible characters of G lying over
    theta, row k of Irr(N)."""
    return tuple(i for i, row in enumerate(restriction_multiplicities(G, N)) if row[k])


def _conjugate_classes(N, g):
    """For each class k of N, the class of g x_k g^-1, x_k its
    representative: the conjugate x -> theta(g x g^-1) of a class
    function theta of N takes the value theta[a[k]] at class k."""
    by_ginv = right_factor(inverse(g))
    return tuple(
        N.class_index(by_ginv(right_factor(c.representative)(g)))
        for c in N.conjugacy_classes()
    )


@lru_cache(maxsize=None)
def character_action(G, N):
    """How G acts by conjugation on Irr(N), for a subgroup N that it
    normalizes: for each generator g of G, the pair (g, a) with a[k] the
    row index of theta_k^g, the conjugate of row k of N's table.

    Built once from N's row coordinates, which are unique and kept by
    conjugation (it keeps element orders), so rows are matched on
    integers.  A conjugate of an irreducible character is irreducible,
    so every conjugate must be a row of the table, or the table is
    wrong.  Each g is returned with its permutation because equal groups
    share this cache entry and may list other generators."""
    rows = character_table(N).coords
    row_of = {x: k for k, x in enumerate(rows)}
    action = []
    for g in G.generators:
        c = _conjugate_classes(N, g)
        a = tuple(row_of.get(tuple(x[j] for j in c)) for x in rows)
        if None in a:
            raise InternalCheckError(
                f"row {a.index(None)} of {N!r} conjugated by a generator of"
                f" {G!r} is not a row of its table"
            )
        action.append((g, a))
    return tuple(action)


def kernel_classes(G):
    """The kernel of each irreducible character of G, as the set of
    indices of the classes where chi(x) = chi(1)."""
    return tuple(
        frozenset(k for k, v in enumerate(row) if v == row[0])
        for row in character_table(G).values
    )


def _set_order(G, s):
    classes = G.conjugacy_classes()
    return sum(classes[k].size for k in s)


@lru_cache(maxsize=None)
def normal_class_sets(G):
    """Every normal subgroup of G as the frozenset of the indices of its
    classes, ascending by (order, sorted indices).

    Every normal subgroup is the intersection of the kernels of the
    irreducible characters whose kernel contains it (Isaacs, Character
    Theory of Finite Groups, ch. 2), so closing the kernels under
    intersection finds them all; the empty intersection is G."""
    found = {frozenset(range(len(G.conjugacy_classes())))}
    for kernel in kernel_classes(G):
        found |= {kernel & s for s in found}
    return tuple(sorted(found, key=lambda s: (_set_order(G, s), sorted(s))))


def _normal_subgroup(G, s):
    """The normal subgroup whose classes are s, built as one normal
    closure of their representatives; it must have as many elements as
    its classes."""
    classes = G.conjugacy_classes()
    if len(s) == len(classes):
        N = G
    else:
        N = normal_closure(G, tuple(classes[k].representative for k in sorted(s)))
    size = _set_order(G, s)
    if N.order() != size:
        raise InternalCheckError(
            f"normal closure of a kernel intersection of {G!r} has order"
            f" {N.order()}, not the {size} elements of its classes"
        )
    return N


def normal_subgroups(G):
    """All normal subgroups, one built for each of ``normal_class_sets``,
    sorted by (order, element tuple).  Enumerates the group."""
    result = [_normal_subgroup(G, s) for s in normal_class_sets(G)]
    result.sort(key=lambda n: (n.order(), n.elements()))
    return tuple(result)


def _largest_normal(G, p, accept, name):
    """The largest normal subgroup of G whose order passes accept, built
    from the largest accepted class set.  Normal p-subgroups, and normal
    p'-subgroups, are closed under products, so that set must contain
    every other accepted set, or the lattice is wrong."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    # the trivial subgroup passes both tests, so sets is never empty
    sets = [s for s in normal_class_sets(G) if accept(_set_order(G, s))]
    top = sets[-1]
    missed = sum(not s <= top for s in sets)
    if missed:
        raise InternalCheckError(
            f"no largest normal class set for {name} of {G!r} at p = {p}:"
            f" the one of order {_set_order(G, top)} misses {missed}"
            f" of the {len(sets)} accepted"
        )
    return _normal_subgroup(G, top)


def p_core(G, p):
    """O_p(G), the largest normal p-subgroup."""
    return _largest_normal(G, p, lambda n: n == p_part(n, p), "O_p")


def p_prime_core(G, p):
    """O_p'(G), the largest normal p'-subgroup."""
    return _largest_normal(G, p, lambda n: n % p != 0, "O_p'")


def is_p_solvable(G, p):
    """Whether every composition factor of G is a p-group or a p'-group,
    read off one chief series.

    From G, each step takes the largest normal class set strictly inside
    the last one; no normal subgroup of G lies strictly between the two,
    so the steps down to the trivial subgroup form a chief series.  A
    chief factor N/M is a minimal normal subgroup of G/M and hence a
    direct product of copies of one simple group S, which are its
    composition factors; so they are all p-groups or all p'-groups exactly
    when |N/M| is a power of p or prime to p.  (A nonabelian S has at
    least three prime divisors by Burnside's p^a q^b theorem: it is never
    a p-group, and passes exactly when p does not divide |N/M|.)  The
    composition factors of G are those of its chief factors."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    sets = normal_class_sets(G)
    top = sets[-1]
    while len(top) > 1:
        M = [s for s in sets if s < top][-1]
        factor = _set_order(G, top) // _set_order(G, M)
        if factor % p == 0 and factor != p_part(factor, p):
            return False
        top = M
    return True


def inertia_group(G, N, k):
    """The stabilizer T in G of theta, row k of Irr(N), under
    conjugation; contains N.

    No walk of its own: one ``permgroup._stabilizer`` call on row
    indices, with the moves of ``character_action`` and N, which fixes
    theta, as its seed.  T is built at most once: it is G when the
    orbit is one point, and otherwise the group of the stabilizer's
    elements.  The gate proves T is the stabilizer with direct
    conjugation, independent of the action table: each transversal
    element sends theta to the values of its orbit point's row, so the
    orbit is at least as large as found; each generator of T fixes
    theta; and |T| |orbit| = |G|."""
    if not is_normal_in(N, G):
        raise DomainError("inertia groups are defined over normal subgroups")
    rows = character_table(N).values
    moves = [(g, a.__getitem__) for g, a in character_action(G, N)]
    seed = list(N.element_set()), list(map(right_factor, N.generators))
    orbit, found = _stabilizer(G, k, moves, *seed)
    T = G if len(orbit) == 1 else group_from_elements(G.degree, frozenset(found))
    theta = rows[k]

    def conjugated(g):
        return tuple(theta[j] for j in _conjugate_classes(N, g))

    if (
        any(conjugated(t) != rows[v] for v, (t, _) in orbit.items())
        or any(conjugated(h) != theta for h in T.generators)
        or T.order() * len(orbit) != G.order()
    ):
        raise InternalCheckError(
            f"inertia group of a character of {N!r} in {G!r} fails the"
            f" orbit-stabilizer gate: orbit {len(orbit)},"
            f" stabilizer order {T.order()}"
        )
    return T


class CharacterTable:
    """The full ordinary character table of a finite permutation group.
    Row i is the irreducible character chi_i, in parallel forms: its
    printed values, their coordinates and their images in GF(Q).

    The images come from one embedding of Z[zeta_e], e the exponent: Q
    is the least prime = 1 (mod e) above 2 |G| max chi(1)^2, z has order
    e mod Q (``_root_of_unity``), and a value with coordinates c at
    element order o maps to sum_s c_s z^(s e/o) (``_embed``).  So
    sum_k |C_k| chi_s(x_k) chi_u(x_k^-1), mod Q, is the dot product of
    row s of ``weighted`` with row u of ``inverted``."""

    def __init__(self, group, exponent, values, coords):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.exponent = exponent
        # for each row, one exact cyclotomic value per class
        self.values = tuple(map(tuple, values))
        # chi_i(1), read once off the identity class
        self.degrees = tuple(row[0].integer_value() for row in self.values)
        # for each row, one tuple per class: the value's integer
        # power-basis coordinates at the class's element order
        self.coords = tuple(coords)
        bound = 2 * group.order() * max(d * d for d in self.degrees)
        self.modulus = Q = _prime_above(exponent, bound)
        self.root = _root_of_unity(exponent, Q)
        rows = _embed(self.coords, self.classes, exponent, Q, self.root)
        # for each row, |C_k| chi(x_k) mod Q at class k
        self.weighted = tuple(
            tuple(c.size * v % Q for c, v in zip(self.classes, row)) for row in rows
        )
        # for each row, chi(x_k^-1) mod Q at class k
        inverse_class = group.inverse_classes()
        self.inverted = tuple(tuple(row[k] for k in inverse_class) for row in rows)

    def __repr__(self):
        return f"CharacterTable({self.group!r}, degrees={list(self.degrees)})"


def _embed(coords, classes, e, Q, z):
    """The rows of coordinates, one tuple per class at the class's
    element order o, mapped into GF(Q) by zeta_o -> z^(e/o), for z of
    order e mod Q; each distinct (o, coordinates) is mapped once."""
    orders = [c.element_order for c in classes]
    powers = {o: [pow(z, e // o * s, Q) for s in range(o)] for o in set(orders)}
    seen = {}
    for row in coords:
        for o, x in zip(orders, row):
            if (o, x) not in seen:
                seen[o, x] = sum(map(mul, x, powers[o])) % Q
    return [[seen[o, x] for o, x in zip(orders, row)] for row in coords]


@lru_cache(maxsize=None)
def character_table(G):
    """Compute the ordinary character table; deterministic, exact.

    Each central character comes scaled by the inverse of its identity
    entry: w[0] is 1, as omega(1) = 1 needs, unless that entry is 0 and
    the vector scales to 0, which the gate rejects.

    The split runs mod q, the least prime = 1 (mod e) with q^2 > 4|G|.
    GF(q) holds the e-th roots of unity and q > e does not divide |G|,
    so the class algebra Z(F_q G) is split semisimple: its r central
    characters are distinct mod q, and the class matrices split GF(q)^r
    into r common eigenlines.  q^2 > 4|G| makes each degree, and each
    lifted multiplicity, readable from its residue.

    The lift at class j of order o reads chi at the powers x_j^k.  For a
    unit g mod e, x -> x^g permutes the classes, and the powers of x_j^g
    are those of x_j at g k; the table gate's proof rests on that, so
    it is checked for each generator of the units.

    That column, of length o, determines the Fourier sum, its gates, the
    reduction mod Phi_o and the value: its entry at k = 0 is chi(1) < q,
    the degree the sum gate reads.  So each distinct column is lifted once."""
    classes = G.conjugacy_classes()
    r = len(classes)
    n = G.order()
    e = G.exponent()
    inverse_class = G.inverse_classes()

    q = _prime_above(e, isqrt(4 * n))
    vectors = _central_characters(G, q)

    z = _root_of_unity(e, q)
    orders = [c.element_order for c in classes]
    power_class = [_power_classes(G, c) for c in classes]
    for g in _unit_generators(e):
        for o, powers in zip(orders, power_class):
            if power_class[powers[g % o]] != [powers[g * k % o] for k in range(o)]:
                raise InternalCheckError(
                    f"power classes of {G!r} are not closed under x -> x^{g}"
                )
    # zeta^(-tk) / o mod q, row t and column k, with zeta = z^(e/o) at order o
    kernels = {}
    for o in set(orders):
        zpow = [pow(z, e // o * i, q) * pow(o, q - 2, q) % q for i in range(o)]
        kernels[o] = [[zpow[-t * k % o] for k in range(o)] for t in range(o)]
    inv_sizes = [pow(c.size, q - 2, q) for c in classes]
    # chi at x_j^k mod q, k < o; the identity's is the bare entry chi(1)
    readers = [itemgetter(*powers) for powers in power_class]
    # each distinct column is lifted, and gated, once per table, and each
    # distinct (o, coordinates) is built once
    by_column, lifted = {}, {}
    rows = []
    for w in vectors:
        if w[0] != 1:
            raise InternalCheckError(
                f"central character vanishes on the identity of {G!r}"
            )
        s = sum(w[k] * w[inverse_class[k]] * inv_sizes[k] for k in range(r)) % q
        d = _degree_from_norm(G, s, q)
        cbar = [d * x * inv % q for x, inv in zip(w, inv_sizes)]
        row = []
        for j, (read, powers) in enumerate(zip(readers, power_class)):
            key = read(cbar)
            if key not in by_column:
                o, column = len(powers), [cbar[k] for k in powers]
                coeffs = [sum(map(mul, column, t)) % q for t in kernels[o]]
                if 2 * max(coeffs) >= q:
                    raise InternalCheckError(
                        f"lifted multiplicity out of range on {G!r}"
                    )
                if sum(coeffs) != d:
                    raise InternalCheckError(
                        f"lifted multiplicities at class {j} of {G!r} add up to"
                        f" {sum(coeffs)}, not to the degree {d}"
                    )
                x = tuple(reduce_mod_cyclotomic(coeffs, o))
                if (o, x) not in lifted:
                    lifted[o, x] = v = Cyclotomic(o, x)
                    # the printed value must be the one the table gate checks
                    if v.conductor != 1 and v.lift_coords(o) != x:
                        raise InternalCheckError(
                            f"value at class {j} of {G!r} (split mod q = {q})"
                            " does not lift back to its coordinates"
                        )
                by_column[key] = lifted[o, x], x
            row.append(by_column[key])
        rows.append(tuple(zip(*row)))

    # values[0] is the degree, and 1 sorts first: rows ascend by degree
    rows.sort(key=lambda row: tuple(v.sort_key() for v in row[0]))
    values, coords = zip(*rows)
    table = CharacterTable(G, e, values, coords)
    _verify_orthogonality(table)
    return table


def _power_classes(G, c):
    """The class of x^k for k < o, x the representative of the class c
    and o its element order; each power is one product with x."""
    by_x, powers = right_factor(c.representative), [identity(G.degree)]
    for _ in range(1, c.element_order):
        powers.append(by_x(powers[-1]))
    return [G.class_index(y) for y in powers]


def _prime_above(e, bound):
    """The least prime = 1 (mod e) above bound, searched from the first
    candidate above it."""
    p = (bound - 1) // e * e + 1 + e
    while not is_prime(p):
        p += e
    return p


def _root_of_unity(e, p):
    """An element of order e mod the prime p = 1 (mod e): the first
    z = a^((p-1)/e), a = 2, 3, ..., with z^(e/r) != 1 for every prime r
    dividing e.  Its order divides e and no e/r, so it is e; and the
    search ends, as a generator of the cyclic group GF(p)* gives one."""
    primes = prime_factors(e)
    a = 2
    while True:
        z = pow(a, (p - 1) // e, p)
        if all(pow(z, e // r, p) != 1 for r in primes):
            return z
        a += 1


def _unit_generators(e):
    """Units mod e that generate the group of units, each outside the
    subgroup that those before it generate."""
    found, span = [], {1}
    for g in range(2, e):
        if gcd(g, e) == 1 and g not in span:
            found.append(g)
            coset = span
            # the cosets g^i span, up to the first that is span again
            while not (coset := {x * g % e for x in coset}) <= span:
                span = span | coset
    return found


def _degree_from_norm(G, s, q):
    n = G.order()
    d_squared = n * pow(s, q - 2, q) % q
    for d in range(1, isqrt(n) + 1):
        if d * d % q == d_squared:
            return d
    raise InternalCheckError(
        f"no admissible degree for an eigenvector of {G!r} mod q = {q}"
    )


def _central_characters(G, q):
    """The r central characters of G over GF(q),
    omega_chi(K_k) = |C_k| chi(x_k) / chi(1) at class k, each 1 at the
    identity class: the common eigenvectors of the class matrices M_i,
    (M_i)_jk = a_ijk (Schneider's refinement of Dixon's method).

    No eigenspace is kept.  The column relation at the identity,
    sum_chi chi(1) chi(x_k) = |G| delta_k0, reads
    delta_1 = sum_chi (chi(1)^2 / |G|) omega_chi for delta_1 = (1, 0, ..., 0),
    and every coefficient is nonzero mod q, as q does not divide |G| and
    chi(1) < q (``character_table``).  So each set S of characters not
    yet told apart is carried as one vector
    u_S = sum_{chi in S} c_chi omega_chi, every c_chi nonzero, starting
    from delta_1 for all of Irr(G).  As M_i omega_chi = omega_chi(K_i)
    omega_chi, the Krylov space of u_S under M_i is spanned by the parts
    u_S_lambda over the chi in S with omega_chi(K_i) = lambda, which are
    independent, as the omega_chi are: the minimal polynomial of u_S is
    the product of its x - lambda, and each part is p_lambda(M_i) u_S up
    to a nonzero scalar (``_krylov_split``).  Z(F_q G) is split
    semisimple, so every lambda lies in GF(q); a minimal polynomial with
    fewer distinct roots there than its degree means a wrong prime or a
    wrong class column.

    Each non-identity class in ascending (class size, index) order splits
    every vector, while there are fewer than r.  The sets are disjoint
    and nonempty and Irr(G) has r members, so r vectors are r lines:
    each is c_chi omega_chi, and divided by its identity entry c_chi it
    is omega_chi.  The r central characters are distinct mod q, so some
    class tells any two apart, and the last class leaves r vectors.  A
    product M_i v reads column k of M_i only where v_k is nonzero, so
    each column of a class is built when first read, once
    (``_class_column``); delta_1's first product reads column 0 alone,
    which needs no product of elements."""
    classes = G.conjugacy_classes()
    r = len(classes)
    vectors = [[int(k == 0) for k in range(r)]]
    for i in sorted(range(1, r), key=lambda i: (classes[i].size, i)):
        if len(vectors) == r:
            break
        columns = {}

        def column(k):
            if k not in columns:
                columns[k] = _class_column(G, i, k)
            return columns[k]

        split = []
        for t, u in enumerate(vectors):
            # as many vectors as classes: each one left is a line
            if len(split) + len(vectors) - t == r:
                split += vectors[t:]
                break
            parts = _krylov_split(column, u, q)
            if parts is None:
                raise InternalCheckError(
                    f"eigenspace splitting failed on {G!r} mod q = {q}: the"
                    f" eigenspaces of class {i} fall short of the space"
                    " they split"
                )
            split += parts
        vectors = split
    if len(vectors) != r:
        raise InternalCheckError(
            f"eigenspace splitting failed on {G!r} mod q = {q}: the class"
            " matrices leave a common eigenspace of dimension above one"
        )
    return [[x * pow(v[0], q - 2, q) % q for x in v] for v in vectors]


def _class_column(G, i, k):
    """Column k of the class matrix of class i, as {j: a_ijk} over its
    nonzero entries: a_ijk = #{(x, y) in C_i x C_j : xy = z_k},
    xy = mult(x, y) (y applied first), z_k the representative of class k.

    Each x in C_i leaves one y = x^-1 z_k, so a_ijk counts the w = x^-1
    in C_i*, the class of inverses of C_i, with w z_k in C_j: one map
    p -> mult(p, z_k) over C_i* counts the column in |C_i| products, with
    no division.  Column 0 needs none: z_0 = 1, so it is |C_i| at i*."""
    classes, star = G.conjugacy_classes(), G.inverse_classes()[i]
    if k == 0:
        return {star: classes[i].size}
    by_zk = right_factor(classes[k].representative)
    inverses = G.class_elements(star)
    return Counter(map(G.class_indices().__getitem__, map(by_zk, inverses)))


def _krylov_split(column, u, q):
    """u split by the matrix m given by its columns, column(k) the
    nonzero entries {row: entry} of column k: for each distinct root
    lambda of the minimal polynomial of u under m, the vector
    p_lambda(m) u, with p_lambda = minpoly / (x - lambda); None when the
    minimal polynomial has fewer distinct roots in GF(q) than its degree.

    The Krylov sequence u, m u, m^2 u, ... is fed to ``_echelon`` up to
    its first dependence, m^d u = sum_t c_t m^t u, which gives
    minpoly = x^d - sum_t c_t x^t; each product reads the columns where
    its vector is nonzero.  The minimal polynomial is evaluated at every
    element of GF(q) at once, by Horner's rule, and each root's
    p_lambda(m) u is summed over the Krylov vectors as synthetic
    division gives its coefficients; when d = 1, u is its own part."""
    feed = _echelon(q)
    krylov = [u]
    found = feed(u)
    while found is None:
        w = [0] * len(u)
        for k, x in enumerate(krylov[-1]):
            if x:
                for j, a in column(k).items():
                    w[j] += a * x
        krylov.append([x % q for x in w])
        found = feed(krylov[-1])
    if len(found) == 1:
        return [u]
    minpoly = [1, *(-c % q for c in reversed(found))]
    values = [1] * q
    for c in minpoly[1:]:
        values = [(x * lam + c) % q for lam, x in enumerate(values)]
    roots = [lam for lam, x in enumerate(values) if not x]
    if len(roots) < len(found):
        return None
    parts = []
    for lam in roots:
        # p_lambda's coefficients, leading first, by synthetic division
        b, part = 0, [0] * len(u)
        for c, v in zip(minpoly, reversed(krylov[:-1])):
            b = (b * lam + c) % q
            part = [x + b * y for x, y in zip(part, v)]
        parts.append([x % q for x in part])
    return parts


def _echelon(q):
    """An incremental row reduction over GF(q): returns feed, and
    feed(v) reduces the vector v against the vectors fed before it.
    When v lies outside their span it extends the basis with a new
    pivot, the first nonzero entry left, and feed returns None;
    otherwise feed returns v's coordinates on the vectors fed before it
    that extended the basis, in the order they were fed.

    The basis is kept in semi-echelon form: each vector is 0 at the
    pivots of those before it and 1 at its own, is kept by its nonzero
    entries, and keeps its coordinates on the fed vectors.  So reducing
    v in basis order leaves its residue, and summing those coordinates
    by the factors taken leaves its coordinates.  A vector extends the
    basis exactly when it lies outside the span of those fed before it,
    so the fed vectors that do are the pivot columns of the batch
    reduced echelon form of the matrix they are the columns of.  Its
    two callers: ``_krylov_split``, which feeds a Krylov sequence up to
    its first dependence, and ``modular.brauer_decomposition``, which
    feeds its columns."""
    basis = []

    def feed(v):
        v = [x % q for x in v]
        found = [0] * len(basis)
        for pivot, b, coords in basis:
            f = v[pivot]
            if f:
                for k, y in b:
                    v[k] = (v[k] - f * y) % q
                for s, c in enumerate(coords):
                    found[s] += f * c
        if not any(v):
            return [x % q for x in found]
        pivot = next(k for k, x in enumerate(v) if x)
        inv = pow(v[pivot], -1, q)
        coords = [-x * inv % q for x in found] + [inv]
        basis.append((pivot, [(k, x * inv % q) for k, x in enumerate(v) if x], coords))
        return None

    return feed


def _verify_orthogonality(table):
    """Check that the rows are the irreducible characters of the group.

    X D X* = I, row orthonormality for the table X and
    D = diag(|C_k| / |G|), reads
    S_su = sum_k |C_k| chi_s(x_k) chi_u(x_k^-1) = |G| delta_su,
    checked for s <= u (S_us is S_su read at the inverse classes) as
    S_su = |G| delta_su mod Q, one dot product of the table's embedded
    rows (``CharacterTable``).  A congruence is an equality here:

    - Closure.  The lift reads the values at class j off the Fourier
      coefficients m_t = (1/o) sum_k chi(x_j^k) zeta_o^(-tk) of chi on
      <x_j>, chi(x_j) = sum_t m_t zeta_o^t.  For a unit g mod e, the
      powers of x_j^g are those of x_j at g k (checked in
      ``character_table``), so the coefficients at the class of x_j^g
      are those at x_j with t -> t g^-1 (mod o), and the Galois
      automorphism sigma_g: zeta -> zeta^g of Q(zeta_e) gives
      sigma_g(chi(x)) = chi(x^g).  x -> x^g permutes the classes, keeps
      their sizes and commutes with inversion, so sigma_g fixes S_su,
      and the sum over the p-regular classes (Osima's criterion), which
      x -> x^g permutes too.  A sum fixed by every sigma_g is rational,
      and an algebraic integer, so a rational integer.
    - Bound.  The lifted multiplicities m_t are integers in [0, q/2)
      that add up to chi(1) (both checked in ``character_table``), so
      chi(x) is a sum of chi(1) roots of unity and |chi(x)| <= chi(1).
      Then |S_su| and every p-regular sum are at most |G| chi_s(1)
      chi_u(1), and |S_su - |G| delta_su| <= |G| max chi(1)^2 < Q.

    The embedding is a ring map Z[zeta_e] -> GF(Q) that reduces a
    rational integer mod Q, so S_su - |G| delta_su, a rational integer
    below Q in absolute value and 0 mod Q, is 0; likewise a p-regular
    sum is nonzero exactly when its residue is.

    Nor does conjugation, chi(x^-1) = conj(chi(x)), which the lift gives
    exactly.  The power-class closure is checked for generators of the
    units mod e, so it holds for every product of them, g = -1 (mod e)
    among them: the column at the class of x_j^-1 is the column at x_j
    read at -k.  Its lifted multiplicities are m_-t, so its coordinates
    are those of sum_t m_t zeta_o^(-t) = conj(chi(x_j)).

    The column relation needs no check of its own.  X is square, so
    X D X* = I makes D X* the inverse of X; then D X* X = I, that is
    X* X = D^-1: sum_i conj(chi_i(x_j)) chi_i(x_k) = delta_jk |G| / |C_j|.
    """
    G = table.group
    r = len(table.values)
    if r != len(table.classes):
        raise InternalCheckError(f"row count differs from class count on {G!r}")
    n, Q, inverted = G.order(), table.modulus, table.inverted
    for s, a in enumerate(table.weighted):
        for u in range(s, r):
            if sum(map(mul, a, inverted[u])) % Q != (n if s == u else 0):
                raise InternalCheckError(
                    f"row orthogonality fails for rows {s}, {u} of {G!r}"
                )
    if any(v != ONE for v in table.values[0]):
        raise InternalCheckError(
            f"first table row of {G!r} is not the trivial character"
        )

