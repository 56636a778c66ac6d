"""Ordinary character tables via the Dixon-Schneider method, and the
class-function algebra built on them.

The table is computed exactly: eigenvector data for the class-sum
matrices is found over a prime field GF(q) with q = 1 (mod exponent)
and q squared exceeding 4|G|, degrees are recovered from the second
orthogonality relation, and the actual cyclotomic character values are
lifted through the discrete Fourier sum over power maps, taken over each
class's element order rather than the group exponent.  Every finished
row must take complex-conjugate values on inverse classes and the rows
must be orthonormal, exactly, or an internal error is raised; for a
square table row orthonormality implies the column relation.

The construction is fully deterministic: instead of random splitting
vectors, a separating integer combination of the class matrices is
diagonalised over GF(q).  Its eigenvalues are the roots of its
characteristic polynomial, read off a Hessenberg form and evaluated at
every element of GF(q); each root then costs one elimination.

How Irr(G) restricts to a subgroup H lives in one cached table,
``restriction_multiplicities(G, H)``: covering, Clifford theory,
Fong-Reynolds induction and Glauberman correspondents read its rows
and columns.

One pairing on integer power-basis coordinates, ``_pairing``, serves
both the table gate and the restriction table (through
``constituents``); it builds no cyclotomic value.
"""

from functools import lru_cache
from math import isqrt

from .arith import is_prime, multiplicative_order
from .cyclotomic import (
    ONE,
    cyclotomic_polynomial,
    from_root_combination,
)
from .errors import DomainError, InternalCheckError
from .perms import conj, inverse, mult, power
from .permgroup import group_from_elements, is_normal_in

# primes q = 1 mod e tried for splitting the class algebra before giving up
DIXON_PRIMES_TRIED = 5


@lru_cache(maxsize=None)
def structure_constants(G):
    """All class-algebra structure constants a[i][j][k] with
    a_ijk = #{(x, y) in C_i x C_j : xy = z_k} for the fixed class reps."""
    classes = G.conjugacy_classes()
    r = len(classes)
    reps = [c.representative for c in classes]
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for x in G.class_elements(i):
            xinv = inverse(x)
            row = a[i]
            for k in range(r):
                j = G.class_index(mult(xinv, reps[k]))
                row[j][k] += 1
    return tuple(tuple(tuple(row) for row in plane) for plane in a)


class ClassFunction:
    """An exact class function: one cyclotomic value per conjugacy class."""

    __slots__ = ("group", "values", "_hash")

    def __init__(self, group, values):
        values = tuple(values)
        if len(values) != len(group.conjugacy_classes()):
            raise DomainError("one value per conjugacy class required")
        self.group = group
        self.values = values
        self._hash = None

    def degree(self):
        return self.values[0].integer_value()

    def value_at(self, element):
        return self.values[self.group.class_index(element)]

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same_group(other)
            return ClassFunction(
                self.group,
                tuple(a * b for a, b in zip(self.values, other.values)),
            )
        return ClassFunction(self.group, tuple(v * other for v in self.values))

    __rmul__ = __mul__

    def galois(self, k):
        return ClassFunction(self.group, tuple(v.galois(k) for v in self.values))

    def conjugate_by(self, g):
        """The class function x -> value(g x g^{-1})."""
        G = self.group
        return ClassFunction(
            G,
            tuple(
                self.values[G.class_index(conj(g, c.representative))]
                for c in G.conjugacy_classes()
            ),
        )

    def _same_group(self, other):
        if other.group != self.group:
            raise DomainError("class functions live on different groups")

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group == other.group
            and self.values == other.values
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group, self.values))
        return self._hash

    def sort_key(self):
        return (self.degree(), tuple(v.sort_key() for v in self.values))

    def __repr__(self):
        return f"ClassFunction({', '.join(str(v) for v in self.values)})"


def trivial_character(G):
    return ClassFunction(G, (ONE,) * len(G.conjugacy_classes()))


def restrict(chi, H):
    """Restriction of a class function to a subgroup."""
    G = chi.group
    if H == G:
        return chi
    if not H.is_subgroup_of(G):
        raise DomainError("restriction target is not a subgroup")
    return ClassFunction(
        H,
        tuple(
            chi.values[G.class_index(c.representative)]
            for c in H.conjugacy_classes()
        ),
    )


def constituents(alpha):
    """Decomposition of a virtual character into irreducibles: the
    integer multiplicity of each irreducible, in table order.

    A value outside Z[zeta_o] at a class of order o, an irrational
    partial sum or a pairing not divisible by |G| rules out a virtual
    character (see ``_verify_orthogonality``); integer multiplicities
    prove one, as Irr(G) is a basis.  Power-basis coordinates are
    unique, so sum_k m_k theta_k = alpha is checked on coordinates."""
    G = alpha.group
    table = character_table(G)
    rows = _row_coordinates(table, table.irreducibles)
    n = G.order()
    not_virtual = DomainError("class function is not a virtual character")
    a = _lift(table, alpha.values, lambda k, what: not_virtual)
    out = []
    for b in rows:
        total, irrational = _pairing(table, a, b)
        if irrational is not None or total % n:
            raise not_virtual
        out.append(total // n)
    rebuilt = [
        [sum(m * b[k][i] for m, b in zip(out, rows) if m) for i in range(len(x))]
        for k, x in enumerate(a)
    ]
    if rebuilt != a:
        raise InternalCheckError(
            f"constituent decomposition does not reconstruct on {G!r}"
        )
    return tuple(out)


@lru_cache(maxsize=None)
def restriction_multiplicities(G, H):
    """The multiplicity of theta_k in the restriction of chi_i to H, as
    row i and column k (table order of Irr(G) and Irr(H)); by Frobenius
    reciprocity column k also decomposes theta_k induced to G."""
    rows = []
    for chi in character_table(G).irreducibles:
        row = constituents(restrict(chi, H))
        if any(m < 0 for m in row):
            raise InternalCheckError(
                f"restriction from {G!r} to {H!r} has a negative multiplicity"
            )
        rows.append(row)
    return tuple(rows)


def irr_over(G, N, theta):
    """The irreducible characters of G lying over theta in Irr(N)."""
    k = character_table(N).index_of(theta)
    rows = restriction_multiplicities(G, N)
    return tuple(
        chi
        for chi, row in zip(character_table(G).irreducibles, rows)
        if row[k]
    )


def inertia_group(G, N, theta):
    """The stabilizer of theta in G under conjugation; contains N."""
    if theta.group != N:
        raise DomainError("character does not live on the named subgroup")
    if not is_normal_in(N, G):
        raise DomainError("inertia groups are defined over normal subgroups")
    members = [g for g in G.elements() if theta.conjugate_by(g) == theta]
    T = group_from_elements(G.degree, tuple(members))
    if not N.is_subgroup_of(T):
        raise InternalCheckError(
            f"inertia group does not contain the subgroup {N!r} in {G!r}"
        )
    return T


class CharacterTable:
    """The full ordinary character table of a finite permutation group."""

    def __init__(self, group, exponent, irreducibles, prime):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.exponent = exponent
        self.irreducibles = tuple(irreducibles)
        # the prime q whose field GF(q) split the class algebra
        self.prime = prime

    def degrees(self):
        return tuple(chi.degree() for chi in self.irreducibles)

    def index_of(self, chi):
        for i, row in enumerate(self.irreducibles):
            if row == chi:
                return i
        raise DomainError("character is not a row of this table")

    def __repr__(self):
        return (
            f"CharacterTable({self.group!r}, degrees={list(self.degrees())})"
        )


@lru_cache(maxsize=None)
def character_table(G):
    """Compute the ordinary character table; deterministic, exact."""
    classes = G.conjugacy_classes()
    r = len(classes)
    n = G.order()
    e = G.exponent()
    a = structure_constants(G)
    sizes = [c.size for c in classes]
    reps = [c.representative for c in classes]
    inverse_class = G.inverse_classes()

    primes = _dixon_primes(e, n)
    for q in primes:
        vectors = _common_eigenvectors(a, r, q)
        if vectors is not None:
            break
    else:
        raise InternalCheckError(
            f"eigenspace splitting failed on {G!r} "
            f"for every tried prime q in {primes}"
        )

    z = _primitive_root_of_unity(G, e, q)
    orders = [c.element_order for c in classes]
    power_class = [
        [G.class_index(power(reps[j], k)) for k in range(orders[j])]
        for j in range(r)
    ]
    # z^(e/o) is a primitive o-th root of unity mod q, for each order o.
    roots = {o: [pow(z, e // o * i, q) for i in range(o)] for o in set(orders)}

    irreducibles = []
    for w in vectors:
        if w[0] % q == 0:
            raise InternalCheckError(
                f"central character vanishes on the identity of {G!r}"
            )
        scale = pow(w[0], q - 2, q)
        w = [x * scale % q for x in w]
        s = 0
        for k in range(r):
            s = (s + w[k] * w[inverse_class[k]] * pow(sizes[k], q - 2, q)) % q
        d = _degree_from_norm(G, s, q)
        cbar = [d * w[j] * pow(sizes[j], q - 2, q) % q for j in range(r)]
        values = []
        for j in range(r):
            o = orders[j]
            zpow = roots[o]
            o_inv = pow(o, q - 2, q)
            coeffs = []
            for t in range(o):
                m = 0
                for k in range(o):
                    m = (m + cbar[power_class[j][k]] * zpow[(-t * k) % o]) % q
                m = m * o_inv % q
                if 2 * m >= q:
                    raise InternalCheckError(
                        f"lifted multiplicity out of range on {G!r}"
                    )
                coeffs.append(m)
            values.append(from_root_combination(o, coeffs))
        irreducibles.append(ClassFunction(G, values))

    irreducibles.sort(key=lambda chi: chi.sort_key())
    table = CharacterTable(G, e, irreducibles, q)
    _verify_orthogonality(table)
    return table


def _dixon_primes(e, n):
    out = []
    q = e + 1
    while len(out) < DIXON_PRIMES_TRIED:
        if q * q > 4 * n and is_prime(q):
            out.append(q)
        q += max(e, 1)
    return out


def _primitive_root_of_unity(G, e, q):
    if e == 1:
        return 1
    for z in range(2, q):
        if multiplicative_order(z, q) == e:
            return z
    raise InternalCheckError(
        f"no primitive {e}-th root of unity mod q = {q} for {G!r}"
    )


def _degree_from_norm(G, s, q):
    n = G.order()
    d_squared = n * pow(s, q - 2, q) % q
    for d in range(1, isqrt(n) + 1):
        if d * d % q == d_squared:
            return d
    raise InternalCheckError(
        f"no admissible degree for an eigenvector of {G!r} mod q = {q}"
    )


def _common_eigenvectors(a, r, q):
    """Eigenvectors of a separating combination of the class matrices,
    or None if no combination splits completely over GF(q)."""
    matrices = []
    for i in range(r):
        matrices.append([[a[i][j][k] % q for k in range(r)] for j in range(r)])
    for t in range(1, q):
        m = [[0] * r for _ in range(r)]
        weight = 1
        for i in range(r):
            plane = matrices[i]
            for j in range(r):
                row = plane[j]
                mj = m[j]
                for k in range(r):
                    mj[k] = (mj[k] + weight * row[k]) % q
            weight = weight * t % q
        vectors = _eigenvector_scan(m, r, q)
        if vectors is not None:
            return vectors
    return None


def _eigenvector_scan(m, r, q):
    """The eigenvectors of m over GF(q) in ascending eigenvalue order, or
    None unless m has r distinct eigenvalues in GF(q).

    The eigenvalues are the roots of the characteristic polynomial, found
    by evaluating it at every element of GF(q); each root then costs one
    elimination.  r distinct roots is the same condition as r eigenspaces
    of dimension one each."""
    poly = _characteristic_polynomial(m, q)
    roots = []
    for lam in range(q):
        value = 0
        for c in reversed(poly):
            value = (value * lam + c) % q
        if value == 0:
            roots.append(lam)
    if len(roots) != r:
        return None
    vectors = []
    for lam in roots:
        shifted = [
            [(m[j][k] - (lam if j == k else 0)) % q for k in range(r)]
            for j in range(r)
        ]
        vectors.append(_nullspace(shifted, q)[0])
    return vectors


def _characteristic_polynomial(m, q):
    """det(xI - m) over GF(q), coefficients low degree first.

    m is brought to upper Hessenberg form h by similarity transforms, and
    the leading principal minors p_k of xI - h satisfy
    p_k = (x - h[k-1][k-1]) p_{k-1}
          - sum_{i=1}^{k-1} h[k-i-1][k-1] h[k-1][k-2] ... h[k-i][k-i-1] p_{k-i-1}
    (the Hessenberg method; Cohen, A Course in Computational Algebraic
    Number Theory, ch. 2)."""
    r = len(m)
    h = [row[:] for row in m]
    for col in range(r - 2):
        pivot = next((i for i in range(col + 1, r) if h[i][col]), None)
        if pivot is None:
            continue
        if pivot != col + 1:
            h[pivot], h[col + 1] = h[col + 1], h[pivot]
            for row in h:
                row[pivot], row[col + 1] = row[col + 1], row[pivot]
        inv = pow(h[col + 1][col], q - 2, q)
        top = h[col + 1]
        for i in range(col + 2, r):
            f = h[i][col] * inv % q
            if not f:
                continue
            h[i] = [(x - f * y) % q for x, y in zip(h[i], top)]
            for row in h:
                row[col + 1] = (row[col + 1] + f * row[i]) % q
    polys = [[1]]
    for k in range(1, r + 1):
        d = h[k - 1][k - 1]
        prev = polys[k - 1]
        p = [0] + prev
        for t, c in enumerate(prev):
            p[t] = (p[t] - d * c) % q
        product = 1
        for i in range(1, k):
            product = product * h[k - i][k - i - 1] % q
            f = product * h[k - i - 1][k - 1] % q
            if f:
                for t, c in enumerate(polys[k - i - 1]):
                    p[t] = (p[t] - f * c) % q
        polys.append(p)
    return polys[r]


def _nullspace(rows, q):
    r = len(rows)
    m = [row[:] for row in rows]
    pivots = []
    rank = 0
    for col in range(r):
        pivot = next((i for i in range(rank, r) if m[i][col] % q), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], q - 2, q)
        m[rank] = [x * inv % q for x in m[rank]]
        for i in range(r):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(m[i][k] - f * m[rank][k]) % q for k in range(r)]
        pivots.append(col)
        rank += 1
    basis = []
    for fc in range(r):
        if fc in pivots:
            continue
        v = [0] * r
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-m[i][fc]) % q
        basis.append(v)
    return basis


def _verify_orthogonality(table):
    """Check that the rows are the irreducible characters of the group.

    First, every row must take complex-conjugate values on inverse
    classes, chi(x^-1) = conj(chi(x)).  Then X D X* = I, row
    orthonormality for the table X and D = diag(|C_k| / |G|), reads
    sum_k |C_k| chi_s(x_k) chi_u(x_k^-1) = |G| delta_su.

    That sum is ``_pairing``, in exact integer arithmetic one element
    order at a time.  A character value at an element of order o lies in
    Z[zeta_o], the ring of integers of Q(zeta_o), so it has integer
    coordinates on the power basis of conductor o; a value outside
    Q(zeta_o), or with a non-integral coordinate, is not a character
    value and fails.  The partial sum S_o over the classes of order o
    must be rational, and the S_o must add up to |G| delta_su.

    This is no weaker than checking the identity directly: the S_o add up
    to the full sum, so passing both tests proves it.  Nor does it reject
    a genuine table: for k coprime to the exponent, x -> x^k permutes the
    classes of order o and keeps their sizes, and the Galois automorphism
    zeta -> zeta^k maps chi(x) to chi(x^k); so every automorphism of
    Q(zeta_o) permutes the terms of S_o, and S_o is rational.

    The column relation needs no check of its own.  X is square, so
    X D X* = I makes D X* the inverse of X; then D X* X = I, that is
    X* X = D^-1: sum_i conj(chi_i(x_j)) chi_i(x_k) = delta_jk |G| / |C_j|.
    """
    G = table.group
    rows = table.irreducibles
    r = len(rows)
    if r != len(table.classes):
        raise InternalCheckError(f"row count differs from class count on {G!r}")
    inverse_class = G.inverse_classes()
    for s, chi in enumerate(rows):
        if any(chi.values[k] != v.conj() for k, v in zip(inverse_class, chi.values)):
            raise InternalCheckError(
                f"row {s} of {G!r} is not conjugate on inverse classes"
            )
    coords = _row_coordinates(table, rows)
    for s in range(r):
        for u in range(s, r):
            total, irrational = _pairing(table, coords[s], coords[u])
            if irrational is not None:
                raise InternalCheckError(
                    f"row orthogonality fails for rows {s}, {u} of {G!r}: "
                    f"the sum over the classes of element order {irrational} "
                    "is irrational"
                )
            if total != (G.order() if s == u else 0):
                raise InternalCheckError(
                    f"row orthogonality fails for rows {s}, {u} of {G!r}"
                )
    if rows[0] != trivial_character(G):
        raise InternalCheckError(
            f"first table row of {G!r} is not the trivial character"
        )


def _lift(table, values, error):
    """Integer power-basis coordinates of each value at the element order
    o of its class; a value outside Z[zeta_o] at class k raises
    error(k, what)."""
    out = []
    for k, (v, c) in enumerate(zip(values, table.classes)):
        o = c.element_order
        if o % v.conductor:
            raise error(k, f"a value outside Q(zeta_{o})")
        a = v.lift_coords(o)
        if any(x.denominator != 1 for x in a):
            raise error(k, "a non-integral value")
        out.append([x.numerator for x in a])
    return out


@lru_cache(maxsize=None)
def _row_coordinates(table, rows):
    """The rows, table.irreducibles, each lifted by ``_lift``; they are
    part of the key so that rows replaced on a built table are lifted
    afresh."""
    where = f"of {table.group!r} (split mod q = {table.prime})"
    return [
        _lift(table, chi.values, lambda k, what: InternalCheckError(
            f"row {s} {where} has {what} at class {k}"
        ))
        for s, chi in enumerate(rows)
    ]


def _pairing(table, a, b):
    """sum_k |C_k| a_k b_(k^-1) for lifted class functions a and b: the
    terms over the classes of order o are added as integer polynomials in
    zeta_o and reduced once mod Phi_o.  Returns (total, None), or
    (None, o) for the first order o whose partial sum is irrational."""
    sums = {}
    for c, x, k in zip(table.classes, a, table.group.inverse_classes()):
        y = b[k]
        acc = sums.setdefault(c.element_order, [0] * (2 * len(y) - 1))
        for i, xi in enumerate(x):
            if xi:
                xi *= c.size
                for j, yj in enumerate(y):
                    acc[i + j] += xi * yj
    total = 0
    for o, acc in sums.items():
        partial = _reduce_mod_cyclotomic(acc, o)
        if any(partial[1:]):
            return None, o
        total += partial[0]
    return total, None


def _reduce_mod_cyclotomic(poly, o):
    """The integer polynomial poly (low degree first) reduced mod Phi_o."""
    phi = cyclotomic_polynomial(o)
    d = len(phi) - 1
    poly = poly[:]
    for t in range(len(poly) - 1, d - 1, -1):
        c = poly[t]
        if c:
            for i, f in enumerate(phi):
                poly[t - d + i] -= c * f
    return poly[:d]
