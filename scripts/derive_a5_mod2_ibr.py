"""Derive the irreducible Brauer characters of A5 at p = 2 and write
them to src/blockforge/data/fixtures/a5_p2_ibr.json.

A5 is the image of SL(2,4) acting on the projective line over GF(4),
and that action is faithful because the center of SL(2,4) is trivial in
characteristic 2.  The simple modules in defining characteristic are
the trivial module, the natural 2-dimensional module, its Frobenius
twist, and their tensor product.  Each Brauer character value is the
sum of the lifts of the eigenvalues of the acting matrix: eigenvalues
live in GF(16), and the lift sends the generator t of GF(16)^* to a
primitive 15th root of unity, so t^k lifts to zeta_15^k.  The two
fields are built here, as GF(2)[t] modulo t^2 + t + 1 and t^4 + t + 1,
in each of which t has the full order 3 and 15.  A value
is built once, from the multiset of exponents k it sums.

Run from the repository root:

    python3 scripts/derive_a5_mod2_ibr.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blockforge.blocks import p_regular_classes
from blockforge.chartab import character_table
from blockforge.cyclotomic import Cyclotomic, divide_monic, reduce_mod_cyclotomic
from blockforge.permgroup import PermutationGroup

OUT = (
    Path(__file__).resolve().parent.parent
    / "src"
    / "blockforge"
    / "data"
    / "fixtures"
    / "a5_p2_ibr.json"
)


class Char2Field:
    """GF(2^f) as GF(2)[t] modulo the monic t^f + modulus(t), on
    coefficient tuples, constant term first: the little arithmetic this
    derivation needs.  In characteristic 2, minus is plus."""

    def __init__(self, modulus):
        self.f = f = len(modulus)
        self.modulus = (*modulus, 1)
        self.zero = (0,) * f
        self.one = (1,) + self.zero[1:]
        self.t = (0, 1) + self.zero[2:]

    def elements(self):
        """Every element, in encoding order (binary digits of 0, ...,
        2^f - 1, least significant first)."""
        return [
            tuple(code >> i & 1 for i in range(self.f)) for code in range(2**self.f)
        ]

    def add(self, x, y):
        return tuple(a ^ b for a, b in zip(x, y))

    def mul(self, x, y):
        raw = [0] * (2 * self.f - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                raw[i + j] += a * b
        return tuple(c % 2 for c in divide_monic(raw, self.modulus)[1])

    def inverse(self, x):
        return next(y for y in self.elements() if self.mul(x, y) == self.one)


def alternating5():
    return PermutationGroup(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], name="A5")


def special_linear_2_4():
    field = Char2Field((1, 1))
    elements = field.elements()
    matrices = []
    for a in elements:
        for b in elements:
            for c in elements:
                for d in elements:
                    if field.add(field.mul(a, d), field.mul(b, c)) == field.one:
                        matrices.append((a, b, c, d))
    assert len(matrices) == 60
    return field, matrices


def projective_points(field):
    points = [(field.one, y) for y in field.elements()]
    points.append((field.zero, field.one))
    return points


def normalize(x, y, field):
    if x != field.zero:
        return (field.one, field.mul(y, field.inverse(x)))
    return (field.zero, field.one)


def permutation_of(matrix, points, field):
    a, b, c, d = matrix
    add, mul = field.add, field.mul
    images = []
    for x, y in points:
        images.append(
            normalize(add(mul(a, x), mul(b, y)), add(mul(c, x), mul(d, y)), field)
        )
    return tuple(points.index(q) for q in images)


def eigenvalue_lifts(matrix, field, big, embed, log):
    """The exponent k of the root of unity zeta_15^k that each eigenvalue
    of the matrix lifts to."""
    a, b, c, d = matrix
    trace = embed[field.add(a, d)]
    if trace == big.zero:
        return [0, 0]
    roots = [
        lam
        for lam in big.elements()
        if big.add(big.add(big.mul(lam, lam), big.mul(trace, lam)), big.one)
        == big.zero
    ]
    assert len(roots) == 2
    return [log[lam] for lam in roots]


def root_sum(exponents):
    """The sum of zeta_15^k over the multiset of exponents k."""
    coefficients = [0] * 15
    for k in exponents:
        coefficients[k % 15] += 1
    return Cyclotomic(15, reduce_mod_cyclotomic(coefficients, 15))


def derive():
    """The fixture's JSON text."""
    group = alternating5()
    field, matrices = special_linear_2_4()
    points = projective_points(field)

    perm_to_matrix = {}
    for m in matrices:
        perm_to_matrix[permutation_of(m, points, field)] = m
    assert len(perm_to_matrix) == 60
    assert set(perm_to_matrix) == group.element_set()

    big = Char2Field((1, 1, 0, 0))
    w = big.t
    log = {}
    powers = []
    power = big.one
    for j in range(15):
        log[power] = j
        powers.append(power)
        power = big.mul(power, w)
    g3 = powers[5]
    u = field.t
    embed = {
        field.zero: big.zero,
        field.one: big.one,
        u: g3,
        field.mul(u, u): big.mul(g3, g3),
    }
    for x in field.elements():
        for y in field.elements():
            assert embed[field.add(x, y)] == big.add(embed[x], embed[y])
            assert embed[field.mul(x, y)] == big.mul(embed[x], embed[y])

    def frobenius(matrix):
        return tuple(field.mul(entry, entry) for entry in matrix)

    regular = p_regular_classes(group, 2)
    reps = [group.conjugacy_classes()[k].representative for k in regular]

    by_class = []
    for rep in reps:
        m = perm_to_matrix[rep]
        natural = eigenvalue_lifts(m, field, big, embed, log)
        twisted = eigenvalue_lifts(frobenius(m), field, big, embed, log)
        row = [
            root_sum([0]),
            root_sum(natural),
            root_sum(twisted),
            root_sum([a + b for a in natural for b in twisted]),
        ]
        by_class.append([[v.conductor, list(v.coords)] for v in row])

    identity_row = [Cyclotomic(*entry) for entry in by_class[0]]
    assert [v.integer_value() for v in identity_row] == [1, 2, 2, 4]
    assert sorted(character_table(group).degrees) == [1, 3, 3, 4, 5]

    payload = {
        "group_degree": 5,
        "group_order": 60,
        "prime": 2,
        "class_representatives": [list(r) for r in reps],
        "characters_by_class": by_class,
        "derivation": "scripts/derive_a5_mod2_ibr.py",
    }
    return json.dumps(payload, indent=1) + "\n"


def main():
    text = derive()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT}")
    payload = json.loads(text)
    reps, by_class = payload["class_representatives"], payload["characters_by_class"]
    for rep, entry in zip(reps, by_class):
        print(tuple(rep), [str(Cyclotomic(*v)) for v in entry])

    from blockforge.modular import modular_data

    data = modular_data(alternating5(), 2)
    print("degrees:", list(data.brauer_degrees))
    print("decomposition rows:", data.decomposition)


if __name__ == "__main__":
    main()
