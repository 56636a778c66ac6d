"""Irreducible Brauer characters, decomposition matrices and the
modular side of block data.

For p-solvable groups the irreducible Brauer characters are exactly the
restrictions of ordinary irreducibles to p-regular classes, so they are
found by a greedy scan: walk candidate restrictions in ascending degree
order and keep the ones outside the span of the characters kept so far.
Groups that are not p-solvable fall outside that theorem; for them a
stored table is consulted instead, keyed by the group's canonical class
representatives.

Linear algebra reads each value in the character table's one
representation (``chartab.row_coordinates``), on the power basis at its
class's element order: lifting to a multiple of that order is injective
and linear, so independence and decompositions are unchanged by it.

Every ``InternalCheckError`` raised here names the group, the prime
and, where there is one, the block index.
"""

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .arith import solve_rational, vp
from .blocks import _where, block_data, p_regular_classes
from .chartab import character_table, is_p_solvable, row_coordinates
from .cyclotomic import Cyclotomic
from .errors import DomainError, InternalCheckError

_FIXTURE_DIR = Path(__file__).parent / "data" / "fixtures"


class BrauerCharacter:
    """A class function on the p-regular classes, in class-index order;
    coords holds the coordinates of its values, one class after another."""

    __slots__ = ("group", "prime", "values", "coords")

    def __init__(self, group, prime, values, coords):
        self.group = group
        self.prime = prime
        self.values = tuple(values)
        self.coords = tuple(coords)

    def degree(self):
        return self.values[0].integer_value()

    def sort_key(self):
        return (self.degree(),) + tuple(v.sort_key() for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, BrauerCharacter)
            and self.group == other.group
            and self.prime == other.prime
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.group, self.prime, self.values))

    def __repr__(self):
        return f"BrauerCharacter(p={self.prime}, degree={self.degree()})"


def restriction_to_p_regular(G, i, p):
    """The values of the ordinary character chi_i, row i of the table,
    on the p-regular classes."""
    table = character_table(G)
    chi = table.irreducibles[i]
    row = row_coordinates(table, table.irreducibles)[i]
    regular = p_regular_classes(G, p)
    return BrauerCharacter(
        G,
        p,
        (chi.values[k] for k in regular),
        (x for k in regular for x in row[k]),
    )


def _greedy_brauer_characters(G, p):
    """IBr(G) for p-solvable G: each chi restricted to the p-regular
    classes, in ascending degree, kept unless it lies in the span of
    those kept before it.  By Fong-Swan every irreducible Brauer
    character is such a restriction.  A reducible one is a sum of
    irreducible ones of strictly smaller degree, which the scan has
    already kept; IBr is linearly independent, so an irreducible one is
    kept."""
    seen = set()
    candidates = []
    for i in range(len(character_table(G).irreducibles)):
        c = restriction_to_p_regular(G, i, p)
        if c not in seen:
            seen.add(c)
            candidates.append(c)
    candidates.sort(key=lambda c: c.sort_key())
    accepted, columns = [], []
    for c in candidates:
        if solve_rational(columns, c.coords) is None:
            accepted.append(c)
            columns.append(c.coords)
    expected = len(p_regular_classes(G, p))
    if len(accepted) != expected:
        raise InternalCheckError(
            f"found {len(accepted)} Brauer characters,"
            f" expected {expected}, on {_where(G, p)}"
        )
    return tuple(accepted)


def _fixture_brauer_characters(G, p):
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
                conductor, coords = positions[k][row]
                values.append(
                    Cyclotomic(
                        conductor,
                        tuple(Fraction(n, d) for n, d in coords),
                    )
                )
            lifted = (
                x
                for v, k in zip(values, regular)
                for x in v.lift_coords(classes[k].element_order)
            )
            characters.append(BrauerCharacter(G, p, values, lifted))
        characters.sort(key=lambda c: c.sort_key())
        return tuple(characters)
    return None


def brauer_characters(G, p):
    """The irreducible Brauer characters at p, ascending by degree."""
    if G.order() % p == 0 and not is_p_solvable(G, p):
        stored = _fixture_brauer_characters(G, p)
        if stored is None:
            raise DomainError(
                "no stored Brauer character table for this group;"
                " the lifting method needs a p-solvable group"
            )
        return stored
    return _greedy_brauer_characters(G, p)


class ModularData:
    """Ordinary blocks together with the Brauer characters, the
    decomposition matrix and height data on the modular side."""

    def __init__(self, blockset):
        self.blockset = blockset
        G = blockset.group
        p = blockset.prime
        self.group = G
        self.prime = p
        self.brauer_characters = brauer_characters(G, p)
        self.decomposition = self._decomposition_matrix()
        self.block_of_brauer = self._assign_blocks()
        self._verify_brauer_graph()
        a = vp(G.order(), p)
        self.brauer_heights = tuple(
            vp(phi.degree(), p)
            - (a - blockset.blocks[b].defect)
            for phi, b in zip(self.brauer_characters, self.block_of_brauer)
        )
        if any(h < 0 for h in self.brauer_heights):
            raise InternalCheckError(
                f"negative Brauer character height on {_where(G, p)}"
            )

    def _decomposition_matrix(self):
        G = self.group
        table = self.blockset.table
        columns = [phi.coords for phi in self.brauer_characters]
        matrix = []
        for i in range(len(table.irreducibles)):
            target = restriction_to_p_regular(G, i, self.prime).coords
            solution = solve_rational(columns, target)
            if solution is None:
                raise InternalCheckError(
                    "ordinary character does not decompose over the"
                    f" Brauer characters on {_where(G, self.prime)}"
                )
            row = []
            for d in solution:
                if d.denominator != 1 or d < 0:
                    raise InternalCheckError(
                        "decomposition number is not a nonnegative integer"
                        f" on {_where(G, self.prime)}"
                    )
                row.append(int(d))
            matrix.append(tuple(row))
        return tuple(matrix)

    def _assign_blocks(self):
        G, p = self.group, self.prime
        assignments = []
        for j in range(len(self.brauer_characters)):
            owners = {
                self.blockset.block_of(i).index
                for i, row in enumerate(self.decomposition)
                if row[j]
            }
            if len(owners) != 1:
                raise InternalCheckError(
                    f"Brauer character {j} is spread over several blocks"
                    f" on {_where(G, p)}"
                )
            assignments.append(owners.pop())
        for b in self.blockset.blocks:
            count = assignments.count(b.index)
            if count < 1:
                raise InternalCheckError(
                    f"block without a Brauer character on {_where(G, p, b.index)}"
                )
            if count > len(b.char_indices):
                raise InternalCheckError(
                    "block has more Brauer characters than ordinary ones"
                    f" on {_where(G, p, b.index)}"
                )
        return tuple(assignments)

    def _verify_brauer_graph(self):
        """Linking ordinary characters through shared Brauer
        constituents must reproduce the block partition exactly."""
        n = len(self.decomposition)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for j in range(len(self.brauer_characters)):
            linked = [i for i in range(n) if self.decomposition[i][j]]
            for i in linked[1:]:
                parent[find(i)] = find(linked[0])
        components = {}
        for i in range(n):
            components.setdefault(find(i), set()).add(i)
        blocks = {frozenset(b.char_indices) for b in self.blockset.blocks}
        if {frozenset(c) for c in components.values()} != blocks:
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
            self.brauer_characters[j].degree()
            for j in self.height_zero_brauer(block)
        )


@lru_cache(maxsize=None)
def modular_data(G, p):
    """Modular character data for G at p."""
    return ModularData(block_data(G, p))
