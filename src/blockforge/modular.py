"""Irreducible Brauer characters, decomposition matrices and the
modular side of block data.

One row reduction gives the irreducible Brauer characters and the
decomposition matrix.  Its columns are the ordinary irreducibles
restricted to the p-regular classes, ascending by the table's row key
tuple(v.sort_key() for v in values), fed to it one at a time: a column
outside the span of those before it extends the basis and is a Brauer
character, and every other column comes back as its coordinates on
them, its decomposition row.  For p-solvable groups that finds them
all, since every irreducible Brauer character is the restriction of an
ordinary irreducible (Fong-Swan), and a reducible restriction is a sum
of irreducible ones of smaller degree, found before it.  For groups
that are not p-solvable a stored table, keyed by the group's canonical
class representatives and in the same order, enters as the leading
columns, and every restriction must fall in its span.

As on the ordinary side, Brauer character j is no object: it is its
degree, its lift (the ordinary row whose restriction found it, whose
decomposition row is e_j; None for a stored one) and column j of the
decomposition matrix.

Linear algebra reads each value in the character table's one
representation (``CharacterTable.coords``), its integer coordinates on
the power basis at its class's element order: lifting to a multiple of
that order is injective and linear, so independence and decompositions
are unchanged by it.  The stored table's coordinates are integers too.
The row reduction is the incremental ``chartab._echelon`` mod the
Mersenne prime P = 2^521 - 1, and its result is exact in three steps:

1. A pivot mod P is independent over Q: its minor is a nonzero integer.
2. Each decomposition row, lifted to (-P/2, P/2), must be nonnegative
   and rebuild its restriction in integers: each dependence holds over Q.
3. The elimination misses no dependence when P exceeds the Hadamard
   bound, the product of the l largest column norms for l Brauer
   characters.  Measured bounds are about 2^185 for D194 at 2, 2^79 for
   D188 at 2 and 2^54 for S3 wr C4 at 3: margins of 336, 442 and 467 bits.

So a prime too small can only fail a gate, never return a wrong table.
Every ``InternalCheckError`` raised here names the group, the prime
and, where there is one, the block index.
"""

import json
from functools import lru_cache
from pathlib import Path

from .arith import vp
from .blocks import _where, block_data, components, p_regular_classes
from .chartab import _echelon, character_table, is_p_solvable
from .cyclotomic import Cyclotomic
from .errors import DomainError, InternalCheckError

_FIXTURE_DIR = Path(__file__).parent / "data" / "fixtures"
# the Mersenne prime of the row reduction
_PRIME = (1 << 521) - 1


def restriction_to_p_regular(G, i, p):
    """The values of the ordinary character chi_i, row i of the table,
    on the p-regular classes, and their coordinates, one class after
    another."""
    table = character_table(G)
    regular = p_regular_classes(G, p)
    return (
        tuple(table.values[i][k] for k in regular),
        tuple(x for k in regular for x in table.coords[i][k]),
    )


def _fixture_brauer_characters(G, p):
    """The stored IBr(G) at p as (values, coordinates) pairs, ascending by
    the row key, or None when no fixture matches G's classes."""
    for path in sorted(_FIXTURE_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if data["prime"] != p or data["group_degree"] != G.degree:
            continue
        if data["group_order"] != G.order():
            continue
        reps = [tuple(r) for r in data["class_representatives"]]
        if not all(G.contains(r) for r in reps):
            continue
        regular = p_regular_classes(G, p)
        positions = {}
        for rep, values in zip(reps, data["characters_by_class"]):
            positions[G.class_index(rep)] = values
        if sorted(positions) != sorted(regular):
            continue
        classes = G.conjugacy_classes()
        characters = []
        for row in range(len(data["characters_by_class"][0])):
            values = []
            for k in regular:
                values.append(Cyclotomic(*positions[k][row]))
            lifted = (
                x
                for v, k in zip(values, regular)
                for x in v.lift_coords(classes[k].element_order)
            )
            characters.append((tuple(values), tuple(lifted)))
        characters.sort(key=lambda c: tuple(v.sort_key() for v in c[0]))
        return tuple(characters)
    return None


def brauer_decomposition(G, p):
    """IBr(G) at p by the one row reduction of the module docstring: the
    Brauer degrees, ascending by the row key; for each Brauer character
    the ordinary row it was found from, its lift, or None for a stored
    one; and the decomposition matrix.  The columns are fed to
    ``_echelon`` in order, the stored characters, then the restrictions;
    a pivot mod _PRIME is independent over Q, every decomposition row is
    checked in integers, and the elimination is complete while _PRIME
    exceeds the Hadamard bound."""
    stored = ()
    if G.order() % p == 0 and not is_p_solvable(G, p):
        stored = _fixture_brauer_characters(G, p)
        if stored is None:
            raise DomainError(
                "no stored Brauer character table for this group;"
                " the lifting method needs a p-solvable group"
            )
    restrictions = [
        restriction_to_p_regular(G, i, p)
        for i in range(len(character_table(G).values))
    ]
    order = sorted(
        range(len(restrictions)),
        key=lambda i: tuple(v.sort_key() for v in restrictions[i][0]),
    )
    columns = [*stored, *(restrictions[i] for i in order)]
    feed = _echelon(_PRIME)
    degrees, lifts, basis = [], [], []
    rows = [None] * len(restrictions)
    for c, (values, coords) in enumerate(columns):
        i = order[c - len(stored)] if c >= len(stored) else None
        found = feed(coords)
        if found is None:
            if i is not None:
                if stored:
                    raise InternalCheckError(
                        "ordinary character does not decompose over the"
                        f" Brauer characters on {_where(G, p)}"
                    )
                rows[i] = (0,) * len(degrees) + (1,)
            degrees.append(values[0].integer_value())
            lifts.append(i)
            basis.append(coords)
        elif i is None:
            raise InternalCheckError(
                "stored Brauer character depends on earlier ones"
                f" on {_where(G, p)}"
            )
        else:
            row = tuple(d - _PRIME if 2 * d > _PRIME else d for d in found)
            rebuilt = [0] * len(coords)
            for d, pivot in zip(row, basis):
                if d:
                    rebuilt = [x + d * y for x, y in zip(rebuilt, pivot)]
            if any(d < 0 for d in row) or tuple(rebuilt) != coords:
                raise InternalCheckError(
                    "decomposition number is not a nonnegative integer"
                    f" on {_where(G, p)}"
                )
            rows[i] = row
    expected = len(p_regular_classes(G, p))
    if len(degrees) != expected:
        raise InternalCheckError(
            f"found {len(degrees)} Brauer characters,"
            f" expected {expected}, on {_where(G, p)}"
        )
    # a row is 0 on the Brauer characters found after its column
    rows = tuple(row + (0,) * (len(degrees) - len(row)) for row in rows)
    return tuple(degrees), tuple(lifts), rows


class ModularData:
    """Ordinary blocks together with the Brauer degrees, their ordinary
    lifts, the decomposition matrix and height data on the modular side.
    Brauer character j is column j of the decomposition matrix."""

    def __init__(self, blockset):
        self.blockset = blockset
        G = blockset.group
        p = blockset.prime
        self.group = G
        self.prime = p
        self.brauer_degrees, self.lifts, self.decomposition = brauer_decomposition(G, p)
        self._verify_brauer_graph()
        rows = self.decomposition
        self.block_of_brauer = tuple(
            blockset.block_of(next(i for i, row in enumerate(rows) if row[j])).index
            for j in range(len(self.brauer_degrees))
        )
        a = vp(G.order(), p)
        self.brauer_heights = tuple(
            vp(d, p) - (a - blockset.blocks[b].defect)
            for d, b in zip(self.brauer_degrees, self.block_of_brauer)
        )
        if any(h < 0 for h in self.brauer_heights):
            raise InternalCheckError(
                f"negative Brauer character height on {_where(G, p)}"
            )

    def _verify_brauer_graph(self):
        """Linking ordinary characters through shared Brauer
        constituents must reproduce the block partition exactly.

        Once it does, Brauer character j lies in the block of any row
        with a nonzero entry in column j, and every block B holds
        1 <= l(B) <= k(B) of them, with no gate of their own:

        - the nonzero rows of a column are chained links, so they lie in
          one component, which is one block;
        - every decomposition row is nonzero: a lift's row is a unit
          vector, and every other row rebuilds chi^0, chi restricted to
          the p-regular classes, whose degree chi(1) is nonzero;
        - the Brauer characters are a basis of V, the class functions on
          the p-regular classes: they are independent, and there are
          dim V of them (``brauer_decomposition``).  The r table rows
          restrict onto V, and each chi^0 lies in the span V_B of its own
          block's Brauer characters, so the chi^0 of B, none of them
          zero, span V_B and 1 <= l(B) = dim V_B <= k(B).  A column with
          no nonzero entry would leave the chi^0 short of V, so every
          column has one.
        """
        n = len(self.decomposition)
        links = []
        for j in range(len(self.brauer_degrees)):
            linked = [i for i in range(n) if self.decomposition[i][j]]
            links += zip(linked, linked[1:])
        blocks = {frozenset(b.char_indices) for b in self.blockset.blocks}
        if components(n, links) != blocks:
            raise InternalCheckError(
                "decomposition linkage disagrees with the block partition"
                f" on {_where(self.group, self.prime)}"
            )

    def brauer_indices_of_block(self, block):
        return tuple(
            j
            for j, b in enumerate(self.block_of_brauer)
            if b == block.index
        )

    def height_zero_brauer(self, block):
        return tuple(
            j
            for j in self.brauer_indices_of_block(block)
            if self.brauer_heights[j] == 0
        )

    def height_zero_brauer_degrees(self, block):
        return tuple(
            self.brauer_degrees[j] for j in self.height_zero_brauer(block)
        )


@lru_cache(maxsize=None, typed=True)
def modular_data(G, p):
    """Modular character data for G at p, typed like ``block_data``."""
    return ModularData(block_data(G, p))
