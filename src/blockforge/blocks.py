"""p-blocks: partition, defects, defect groups, idempotents, Brauer
homomorphism, block induction, Brauer correspondents, dimensions and
covering.

Block data depends only on the group and the prime.  Each group's
blocks are computed under the reduction map at its own exponent, into
the product of all the residue fields above p at once
(``finitefield``): the partition does not depend on the maximal ideal
above p, since Osima's criterion (Navarro, *Characters and Blocks of
Finite Groups*, ch. 3; see below) names no ideal.  Block induction
from a subgroup reduces the subgroup's central character under the
target group's map.

Every character value is read in the table's one representation,
its ``coords``: integer coordinates on the power basis at each class's
element order o, an integral basis of Z[zeta_o].  A central
character value is an exact integer quotient of those coordinates, an
idempotent coefficient a sum of them, and the reduction map reads them
directly; no cyclotomic value is built here.

The partition is found twice and must agree.  Rows are bucketed by
their reduced central characters (``_partition``), which also serve
block induction and the defect classes.  By Osima's criterion, chi and
psi share a block exactly when a chain joins them whose neighbours have
a nonzero sum of chi(x) psi(x^-1) over p-regular x: one dot product of
the table's embedded rows mod Q over the p-regular classes, which
decides it (``osima_partition``).

Then the idempotents must be p-local and sum to one, and each defect
group must pass the Brauer-image gate.  No square e_B^2 = e_B is taken,
and no check is weaker for it.  A split bucket, a proper subset S of a
block, fails p-locality: a p-integral e_S would be an idempotent of
Z(OG), so a sum of block idempotents.  A merged bucket is a sum of
block idempotents, so a square cannot see it; the Osima comparison has
no residue field and sees merges and splits alike.  And
``finitefield.build_reduction`` proves the reduction a ring
homomorphism, so once these gates pass e_B^2 = e_B is a theorem.

The dimensions sum to |G| with no gate of their own: ``_partition``
puts each row in exactly one block, and sum chi(1)^2 = |G| is the
column relation at the identity, which the table gate proves
(``chartab._verify_orthogonality``).

Defect groups come from defect classes (the Min-Max theorem, Navarro,
*Characters and Blocks of Finite Groups*, ch. 4): one centralizer and
one Sylow subgroup per block, certified by the Brauer image of the
block idempotent at that one subgroup.

Every ``InternalCheckError`` raised here names the group, the prime
and, where there is one, the block index.
"""

from functools import lru_cache
from operator import mul

from .arith import p_part, vp
from .chartab import (
    character_action,
    character_table,
    class_fusion,
    restriction_multiplicities,
)
from .errors import DomainError, InternalCheckError
from .finitefield import build_reduction
from .permgroup import (
    _stabilizer,
    centralizer,
    is_normal_in,
    normalizer,
    sylow_subgroup,
)
from .perms import identity, right_factor


def _where(G, p, index=None):
    """Error context: the group, the prime and the block index, if any."""
    where = f"{G!r} at p = {p}"
    return where if index is None else f"{where}, block {index}"


def _reduced_central(table, i, rmap, p):
    """The central character of row i, omega(C) = |C| chi(x) / chi(1),
    reduced under rmap.

    The power basis is an integral basis of Z[zeta_o], so omega(C) is an
    algebraic integer exactly when chi(1) divides every coordinate of
    |C| chi(x), and the quotients are its coordinates."""
    d = table.degrees[i]
    row = table.coords[i]
    out = []
    for c, x in zip(table.classes, row):
        scaled = [c.size * a for a in x]
        if any(a % d for a in scaled):
            raise InternalCheckError(
                f"central character of row {i} is not integral"
                f" on {_where(table.group, p)}"
            )
        out.append(rmap.reduce([a // d for a in scaled], c.element_order))
    return tuple(out)


def components(n, links):
    """The connected components of the graph on 0, ..., n - 1 whose edges
    are the pairs in links, as a set of frozensets."""
    part = {i: frozenset((i,)) for i in range(n)}
    for i, j in links:
        if part[i] != part[j]:
            merged = part[i] | part[j]
            part.update(dict.fromkeys(merged, merged))
    return set(part.values())


def osima_partition(table, p):
    """The p-blocks of the table's rows by Osima's criterion, as a set of
    frozensets: rows s and u are linked when
    sum |C_k| chi_s(x_k) chi_u(x_k^-1) over the p-regular classes k is
    nonzero.  The sum is a rational integer below the table's Q in
    absolute value (``chartab._verify_orthogonality``), so it is nonzero
    exactly when its residue, one dot product of the embedded rows, is."""
    regular = p_regular_classes(table.group, p)
    weighted = [[row[k] for k in regular] for row in table.weighted]
    inverted = [[row[k] for k in regular] for row in table.inverted]
    r, Q = len(weighted), table.modulus
    return components(
        r,
        (
            (s, u)
            for s, a in enumerate(weighted)
            for u in range(s + 1, r)
            if sum(map(mul, a, inverted[u])) % Q
        ),
    )


def p_regular_classes(G, p):
    """Indices of the classes of elements of order coprime to p."""
    return tuple(
        c.index for c in G.conjugacy_classes() if c.element_order % p != 0
    )


class Block:
    """One p-block: its characters, defect, invariants and field data.

    With a = vp(|G|), the defect is a - min vp(chi(1)) over the block,
    so every height vp(chi(1)) - (a - defect) is >= 0 and the minimum
    has height 0: neither needs a gate.

    Blocks compare by identity: ``block_data`` is cached, so there is
    one BlockSet per (G, p)."""

    __slots__ = (
        "blockset",
        "index",
        "char_indices",
        "defect",
        "dim",
        "reduced_central",
        "idempotent",
        "heights",
        "height_zero",
        "_defect_group",
    )

    def __init__(self, blockset, index, char_indices, reduced_central):
        self.blockset = blockset
        self.index = index
        self.char_indices = tuple(char_indices)
        self.reduced_central = reduced_central
        G = blockset.group
        p = blockset.prime
        degrees = [blockset.table.degrees[i] for i in char_indices]
        a = vp(G.order(), p)
        self.defect = a - min(vp(d, p) for d in degrees)
        self.dim = sum(d * d for d in degrees)
        self.heights = tuple(vp(d, p) - (a - self.defect) for d in degrees)
        self.height_zero = tuple(
            i for i, h in zip(self.char_indices, self.heights) if h == 0
        )
        self.idempotent = None
        self._defect_group = None

    def degrees(self):
        return tuple(self.blockset.table.degrees[i] for i in self.char_indices)

    def height_zero_degrees(self):
        return tuple(self.blockset.table.degrees[i] for i in self.height_zero)

    def defect_group(self):
        if self._defect_group is None:
            self._defect_group = _defect_group_from_defect_class(self)
        return self._defect_group

    def __repr__(self):
        return (
            f"Block(p={self.blockset.prime}, degrees={list(self.degrees())},"
            f" defect={self.defect})"
        )


class BlockSet:
    """All p-blocks of one group under one reduction map."""

    def __init__(self, group, prime, rmap):
        self.group = group
        self.prime = prime
        self.rmap = rmap
        self.table = character_table(group)
        self.blocks = self._partition()
        blocks = {frozenset(b.char_indices) for b in self.blocks}
        if osima_partition(self.table, prime) != blocks:
            raise InternalCheckError(
                "Osima's criterion disagrees with the central characters"
                f" on {_where(group, prime)}"
            )
        zero = (0,) * rmap.width
        columns = zip(*map(block_idempotent, self.blocks))
        total = [tuple(sum(t) % prime for t in zip(*c)) for c in columns]
        if total != [(1,) + zero[1:]] + [zero] * (len(total) - 1):
            raise InternalCheckError(
                f"block idempotents do not sum to one on {_where(group, prime)}"
            )

    def _partition(self):
        buckets = {}
        for i in range(len(self.table.values)):
            lam = _reduced_central(self.table, i, self.rmap, self.prime)
            buckets.setdefault(lam, []).append(i)
        ordered = sorted(buckets.items(), key=lambda kv: min(kv[1]))
        return tuple(
            Block(self, idx, members, lam)
            for idx, (lam, members) in enumerate(ordered)
        )

    def block_of(self, char_index):
        for b in self.blocks:
            if char_index in b.char_indices:
                return b
        raise DomainError("character index outside the table")

    def block_with_central(self, lam):
        for b in self.blocks:
            if b.reduced_central == lam:
                return b
        return None

    def __repr__(self):
        return (
            f"BlockSet({self.group!r}, p={self.prime},"
            f" blocks={len(self.blocks)})"
        )


@lru_cache(maxsize=None, typed=True)
def block_data(G, p):
    """Blocks of G at p, under the reduction map at G's exponent, which
    rejects a p that is not a prime int; the cache is typed for 2.0."""
    return BlockSet(G, p, build_reduction(G.exponent(), p))


def block_idempotent(block):
    """Idempotent coefficients of the block on the class-sum basis, as
    residue coefficient tuples.

    The coefficient at class K is (1/|G|) sum over chi in B of
    chi(1) chi(x_K^-1).  The sum is taken on row coordinates, and the
    coefficient is p-local exactly when |G|_p divides every coordinate
    of it (the power basis is an integral basis); the quotient, times
    the inverse of the p'-part of |G| mod p, is then reduced."""
    if block.idempotent is not None:
        return block.idempotent
    bs = block.blockset
    G = bs.group
    rows = bs.table.coords
    n = G.order()
    n_p = p_part(n, bs.prime)
    inv_m = pow(n // n_p, -1, bs.prime)
    terms = list(zip(block.degrees(), block.char_indices))
    coeffs = []
    for c, k in zip(G.conjugacy_classes(), G.inverse_classes()):
        total = [
            sum(d * rows[i][k][t] for d, i in terms)
            for t in range(len(rows[0][k]))
        ]
        if any(x % n_p for x in total):
            raise InternalCheckError(
                "idempotent coefficient is not p-local"
                f" on {_where(G, bs.prime, block.index)}"
            )
        local = [x // n_p * inv_m for x in total]
        coeffs.append(bs.rmap.reduce(local, c.element_order))
    block.idempotent = tuple(coeffs)
    return block.idempotent


def brauer_image_is_nonzero(block, Q):
    """Whether the Brauer homomorphism at Q keeps the block idempotent
    alive: some class with a nonzero coefficient must meet C_G(Q)."""
    G = block.blockset.group
    factors = [(h, right_factor(h)) for h in Q.generators]
    return any(
        all(by_h(x) == right_factor(x)(h) for h, by_h in factors)
        for k, a in enumerate(block_idempotent(block))
        if any(a)
        for x in G.class_elements(k)
    )


def _defect_group_from_defect_class(block):
    """A Sylow p-subgroup of C_G(x_K) for the first p-regular class K
    with lambda_B(K^) != 0 and |C_G(x_K)|_p = p^d.

    By the Min-Max theorem (Navarro, *Characters and Blocks of Finite
    Groups*, ch. 4), lambda_B(K^) != 0 puts a defect group of B inside
    a Sylow p-subgroup of C_G(x_K) up to conjugacy, so at equal orders
    the two are conjugate.  Such a class exists: a defect class of B
    (lambda_B(K^) != 0 and a nonzero idempotent coefficient at K) is
    p-regular, and its centralizer's Sylow subgroups are the defect
    groups.  Defect zero needs no special case, since its defect class
    has p'-centralizer and the Sylow subgroup is trivial.  As
    |C_G(x_K)| = |G| / |K|, only the centralizer kept is built.

    Gate: Br_Q(e_B) != 0 exactly when Q lies in a defect group up to
    conjugacy, so a nonzero Brauer image at the returned subgroup of
    order p^d certifies it from the idempotent alone.
    """
    bs = block.blockset
    G = bs.group
    p = bs.prime
    classes = G.conjugacy_classes()
    for k in p_regular_classes(G, p):
        if not any(block.reduced_central[k]):
            continue
        if vp(G.order() // classes[k].size, p) == block.defect:
            x_K = classes[k].representative
            C = centralizer(G, (x_K,))
            D = sylow_subgroup(C, p)
            if not brauer_image_is_nonzero(block, D):
                raise InternalCheckError(
                    "Brauer image of the idempotent vanishes at the defect"
                    f" group on {_where(G, p, block.index)}"
                )
            return D
    raise InternalCheckError(
        f"no p-regular defect class on {_where(G, p, block.index)}"
    )


def induced_central(b, G):
    """The induced central function lambda_b^G on the classes of G.

    Through the class fusion of H = b's group into G,
    lambda_b^G(K^) = sum of lambda_b(L^) over the classes L of H whose
    representative lies in K.  lambda_b is the central character of one
    member of b, reduced from H's row coordinates under G's own map, so
    the result can be compared with the central characters of G's
    blocks.

    Every value is reduced under G's map alone, so all of them, and the
    central characters of G's blocks, lie in one ring."""
    H = b.blockset.group
    p = b.blockset.prime
    rmap = block_data(G, p).rmap
    lam = _reduced_central(b.blockset.table, b.char_indices[0], rmap, p)
    values = [(0,) * rmap.width] * len(G.conjugacy_classes())
    for k, v in zip(class_fusion(G, H), lam):
        values[k] = tuple((a + b) % p for a, b in zip(values[k], v))
    return tuple(values)


def induced_block(b, G):
    """Brauer induction b^G: the block of G whose central character is
    the induced one.

    b belongs to a subgroup H with D C_G(D) <= H for a p-subgroup D of
    H, as H = N_G(D) does; then b^G is defined for every block b of H
    (Navarro, *Characters and Blocks of Finite Groups*, ch. 4), so an
    induced function that matches no block of G is an internal error."""
    H = b.blockset.group
    if H == G:
        return b
    target = block_data(G, b.blockset.prime)
    found = target.block_with_central(induced_central(b, G))
    if found is None:
        raise InternalCheckError(
            f"induced central character of block {b.index} of {H!r}"
            f" matches no block of {_where(G, b.blockset.prime)}"
        )
    return found


def brauer_correspondent(block):
    """The unique block b of N_G(D) with defect group D and b^G = B.

    D is normal in N_G(D), so it lies in every defect group of every
    block of N_G(D); a block of N_G(D) of the same defect as B therefore
    has defect group exactly D, and only defects are compared."""
    bs = block.blockset
    G = bs.group
    D = block.defect_group()
    H = normalizer(G, D)
    local = block_data(H, bs.prime)
    hits = []
    for b in local.blocks:
        if b.defect == block.defect and induced_block(b, G) == block:
            hits.append(b)
    if len(hits) != 1:
        raise InternalCheckError(
            f"Brauer correspondent not unique: {len(hits)} candidates"
            f" on {_where(G, bs.prime, block.index)}"
        )
    return hits[0]


def covered_blocks(block, N):
    """Blocks of the normal subgroup N covered by the given block.

    They are checked to be a single orbit under conjugation: the blocks
    of the row orbit of the first covered block's first row, read off
    one ``permgroup._stabilizer`` call on row indices with the moves of
    ``character_action``, seeded with the trivial group."""
    bs = block.blockset
    G = bs.group
    if not is_normal_in(N, G):
        raise DomainError("covering is only defined over a normal subgroup")
    local = block_data(N, bs.prime)
    rows = restriction_multiplicities(G, N)
    covered = []
    for i in block.char_indices:
        for k, m in enumerate(rows[i]):
            if m:
                b = local.block_of(k)
                if b not in covered:
                    covered.append(b)
    moves = [(g, a.__getitem__) for g, a in character_action(G, N)]
    seed = [identity(G.degree)], []
    orbit = _stabilizer(G, covered[0].char_indices[0], moves, *seed)[0]
    if {local.block_of(v) for v in orbit} != set(covered):
        raise InternalCheckError(
            "covered blocks do not form a single orbit"
            f" on {_where(G, bs.prime, block.index)}"
        )
    return tuple(covered)
