import copy
import json
import random
import re
from collections import Counter
from itertools import count
from math import gcd, isqrt
from operator import mul
from pathlib import Path

import pytest

from blockforge import catalog, chartab, cyclotomic, permgroup
from blockforge.arith import is_prime, prime_factors
from blockforge.chartab import (
    CharacterTable,
    _central_characters,
    _class_column,
    _degree_from_norm,
    _echelon,
    _krylov_split,
    _prime_above,
    _root_of_unity,
    _unit_generators,
    _verify_orthogonality,
    character_table,
    class_fusion,
    inertia_group,
    irr_over,
    is_p_solvable,
    normal_subgroups,
    p_core,
    p_prime_core,
    restriction_multiplicities,
)
from blockforge.blocks import components, osima_partition, p_regular_classes
from blockforge.cli import main
from blockforge.cyclotomic import ONE, Cyclotomic, rational
from blockforge.errors import DomainError, InternalCheckError
from blockforge.groupfile import format_group_text
from blockforge.permgroup import PermutationGroup, normalizer, sylow_subgroup
from blockforge.perms import power

import oracles
from oracles import (
    characters,
    galois,
    induce,
    inner_product,
    regular_character,
    roots,
    trivial,
    zeta,
)
from conftest import (
    alternating,
    c2_wreath_s4,
    c3_wreath_c2,
    c3_wreath_c3,
    cyclic,
    dihedral,
    elementary_abelian,
    frobenius20,
    frobenius21,
    oracle_groups,
    psl_2_7,
    quaternion8,
    random_subgroup,
    s4_times_s3,
    s4_times_s4,
    sl_2_3,
    symmetric,
)


def test_c2_table():
    G = cyclic(2)
    table = character_table(G)
    assert table.values == ((ONE, ONE), (ONE, rational(-1)))


def test_degree_multisets_match_published_values(s4, a4, a5, d8, q8, sl23):
    expected = {
        "S4": (s4, [1, 1, 2, 3, 3]),
        "A4": (a4, [1, 1, 1, 3]),
        "A5": (a5, [1, 3, 3, 4, 5]),
        "D8": (d8, [1, 1, 1, 1, 2]),
        "Q8": (q8, [1, 1, 1, 1, 2]),
        "SL23": (sl23, [1, 1, 1, 2, 2, 2, 3]),
    }
    for G, degrees in expected.values():
        assert sorted(character_table(G).degrees) == degrees


def test_degrees_against_independent_eigenvector_oracle(s3, s4, a4):
    for G in (s3, s4, a4, cyclic(6), quaternion8()):
        got = sorted(character_table(G).degrees)
        want = oracles.character_degrees_common_eigenvector(G.element_set())
        assert got == want


def test_degree_oracle_fails_loudly_without_a_separating_combination():
    # 32 classes of C2^5 against q = 23: no weight t < q separates them
    message = "no combination with weights t\\^i, 0 < t < 23"
    with pytest.raises(AssertionError, match=message):
        oracles.character_degrees_common_eigenvector(
            elementary_abelian(2, 5).element_set()
        )


def test_sum_of_degree_squares(s4, a5, sl23):
    for G in (s4, a5, sl23, frobenius20(), frobenius21(), c3_wreath_c2()):
        table = character_table(G)
        assert sum(d * d for d in table.degrees) == G.order()
        for d in table.degrees:
            assert G.order() % d == 0


def test_first_row_is_trivial(s4, a5):
    for G in (s4, a5, cyclic(6)):
        table = character_table(G)
        assert table.values[0] == trivial(G).values


def test_table_gate_rejects_a_table_that_is_not_square(s4):
    # S4's table without its last row is still orthonormal, but the
    # column relation follows from row orthonormality only when the
    # table is square
    table = character_table(s4)
    message = re.escape(f"row count differs from class count on {s4!r}")
    with pytest.raises(InternalCheckError, match=message):
        _verify_orthogonality(_with_rows(table, table.values[:-1]))


def test_table_gate_rejects_a_first_row_that_is_not_trivial(s4):
    # The trivial and the sign character swapped: the rows stay
    # orthonormal, so only the first-row check fires.
    table = character_table(s4)
    rows = list(table.values)
    rows[0], rows[1] = rows[1], rows[0]
    message = re.escape(f"first table row of {s4!r} is not the trivial character")
    with pytest.raises(InternalCheckError, match=message):
        _verify_orthogonality(_with_rows(table, rows))


def test_degrees_and_row_order_match_the_values():
    # Each degree is the value at the identity class, and the rows
    # ascend strictly by the one key, so by degree.
    for G in oracle_groups([]):
        table = character_table(G)
        assert [rational(d) for d in table.degrees] == [
            row[0] for row in table.values
        ], G
        keys = [tuple(v.sort_key() for v in row) for row in table.values]
        assert all(a < b for a, b in zip(keys, keys[1:])), G
        assert list(table.degrees) == sorted(table.degrees), G


def test_row_orthogonality_explicit(s4):
    table = character_table(s4)
    for i, chi in enumerate(characters(s4)):
        for j, psi in enumerate(characters(s4)):
            want = rational(1 if i == j else 0)
            assert inner_product(chi, psi) == want


def test_galois_action_permutes_rows(s4, a5):
    for G in (s4, a5, cyclic(6), frobenius21()):
        table = character_table(G)
        rows = set(table.values)
        e = table.exponent
        for k in range(2, e):
            if gcd(k, e) == 1:
                assert {tuple(galois(v, k) for v in row) for row in rows} == rows


def test_structure_constants_s3(s3):
    table = character_table(s3)
    classes = s3.conjugacy_classes()
    assert [(c.element_order, c.size) for c in classes] == [(1, 1), (2, 3), (3, 2)]
    a = oracles.structure_constants(s3)
    assert a[1][1][0] == 3
    assert a[1][1][2] == 3
    for j in range(3):
        for k in range(3):
            want = 1 if j == k else 0
            assert a[0][j][k] == want


def _column(a, i, k):
    """Column k of class i's matrix, from the oracle's constants, as its
    nonzero {j: a_ijk}."""
    return {j: row[k] for j, row in enumerate(a[i]) if row[k]}


def test_structure_constants_match_pair_counting_oracle(s3, a4):
    # every class-matrix column, counted over one class, against a count
    # of element products
    for G in (s3, a4, cyclic(6), psl_2_7()):
        a = oracles.structure_constants(G)
        for i in range(len(a)):
            for k in range(len(a)):
                assert _class_column(G, i, k) == _column(a, i, k), (G, i, k)


# Class-matrix columns counted over a class, k > 0, for each table of
# the benchmark's table workload.  A Krylov product reads only the
# columns where its vector is nonzero, and column 0 takes no product;
# pinned, so that a split that reads more of the class algebra fails
# here.
COLUMNS_BUILT = {"S6": 20, "PSL(2,7)": 10, "S4xS3": 22, "A7": 38}


def test_table_reads_fewer_class_matrices_than_classes(monkeypatch):
    # The four groups of the benchmark's table workload: the refinement
    # splits delta_1 with a few cheap classes, and builds each column it
    # reads once; delta_1's first product reads column 0 alone.
    built = []
    class_column = chartab._class_column

    def recorded(G, i, k):
        built.append((i, k, class_column(G, i, k)))
        return built[-1][2]

    monkeypatch.setattr(chartab, "_class_column", recorded)
    for G in (symmetric(6), psl_2_7(), s4_times_s3(), alternating(7)):
        r = len(G.conjugacy_classes())
        built.clear()
        character_table.__wrapped__(G)
        read = {i for i, _, _ in built}
        assert 0 < len(read) < r, G
        assert len({(i, k) for i, k, _ in built}) == len(built), G
        assert {i for i, k, _ in built if k == 0} == read, G
        counted = sum(k > 0 for _, k, _ in built)
        assert counted == COLUMNS_BUILT[G.name], (G, counted)
        a = oracles.structure_constants(G)
        for i, k, column in built:
            assert column == _column(a, i, k), (G, i, k)


def test_tables_of_groups_with_many_classes():
    # p-groups and wreath products with many classes, where one class
    # matrix alone seldom separates the central characters mod q.
    known = {
        "D8xD8": {1: 16, 2: 8, 4: 1},
        "C2wrS4": {1: 4, 2: 2, 3: 4, 4: 4, 6: 4, 8: 2},
        "P(C2wrS4)": {1: 8, 2: 6, 4: 6},
        "C3wrC3": {1: 9, 3: 8},
    }
    groups = [(None, elementary_abelian(2, k)) for k in range(1, 7)]
    groups += [(None, elementary_abelian(3, k)) for k in range(1, 4)]
    wreath = c2_wreath_s4()
    groups += [
        ("D8xD8", sylow_subgroup(s4_times_s4(), 2)),
        ("C2wrS4", wreath),
        ("P(C2wrS4)", sylow_subgroup(wreath, 2)),
        ("C3wrC3", c3_wreath_c3()),
    ]
    for label, G in groups:
        want = known.get(label, {1: G.order()})
        assert sum(d * d * m for d, m in want.items()) == G.order()
        assert Counter(character_table.__wrapped__(G).degrees) == want, label


def test_regular_character_constituents():
    # The regular character is the trivial character of the trivial
    # subgroup induced to G, so by Frobenius reciprocity the one column
    # of the (G, 1) restriction table is its decomposition: the degrees.
    for ent in catalog.entries():
        G = ent.load()
        table = character_table(G)
        rows = restriction_multiplicities(G, PermutationGroup(G.degree, ()))
        column = tuple(row[0] for row in rows)
        assert column == table.degrees, G
        rho = regular_character(G)
        assert column == tuple(
            inner_product(rho, chi).integer_value() for chi in characters(G)
        ), G


def test_induced_trivial_is_permutation_character(s4, a4):
    psi = induce(trivial(a4), s4)
    assert psi.values[0] == rational(2)
    assert inner_product(psi, trivial(s4)) == ONE
    P = sylow_subgroup(s4, 2)
    pi = induce(trivial(P), s4)
    assert pi.values[0] == rational(3)


def test_restrict_to_whole_group_is_identity(s4):
    r = len(character_table(s4).values)
    identity = tuple(tuple(int(i == k) for k in range(r)) for i in range(r))
    assert restriction_multiplicities.__wrapped__(s4, s4) == identity


def test_class_fusion_matches_brute_force():
    not_subgroup = "restriction target is not a subgroup"
    for ent in catalog.entries():
        G = ent.load()
        brute = oracles.brute_classes(G.elements())
        sylows = [sylow_subgroup(G, p) for p in prime_factors(G.order())]
        for H in sylows + list(normal_subgroups(G)):
            fusion = class_fusion(G, H)
            assert len(fusion) == len(H.conjugacy_classes()), (G, H)
            for i, k in enumerate(fusion):
                rep = G.conjugacy_classes()[k].representative
                named = next(c for c in brute if rep in c)
                assert set(H.class_elements(i)) <= named, (G, H, i)
            twin = PermutationGroup(H.degree, reversed(H.elements()), name="twin")
            assert class_fusion(G, twin) == fusion, (G, H)
        for P in sylows:
            if P != G:
                with pytest.raises(DomainError, match=not_subgroup):
                    class_fusion(P, G)
        with pytest.raises(DomainError, match=not_subgroup):
            class_fusion(G, cyclic(G.degree + 1))


def test_restriction_table_reads_one_class_fusion(monkeypatch, s4, a4):
    calls = []

    def counted(G, H):
        calls.append((G, H))
        return class_fusion(G, H)

    monkeypatch.setattr(chartab, "class_fusion", counted)
    restriction_multiplicities.__wrapped__(s4, a4)
    assert calls == [(s4, a4)]


def test_coords_match_the_power_basis_oracle():
    # The integer coordinates a table keeps, against its printed values
    # read back at each class's element order by the oracle's recurrence,
    # with no use of the package's lift.
    for G in oracle_groups([cyclic(35)]):
        table = character_table(G)
        for values, row in zip(table.values, table.coords):
            for v, c, x in zip(values, table.classes, row):
                o = c.element_order
                assert all(type(t) is int for t in x), (G, c.index)
                assert x == oracles.power_basis_coords(o, roots(v, o)), (G, c.index)


def test_restriction_table_lifts_no_value(monkeypatch, s4, a4):
    # Building a table lifts each distinct irrational value back to its
    # class's element order once, for the round-trip gate: S4 x S3 has a
    # rational table, PSL(2,7) four irrational entries with two distinct
    # values.  The restriction table reads the coordinates both tables
    # keep and lifts no value.
    calls = []
    lift = Cyclotomic.lift_coords

    def counted(self, e):
        calls.append(e)
        return lift(self, e)

    monkeypatch.setattr(Cyclotomic, "lift_coords", counted)
    for G, distinct in ((s4_times_s3(), 0), (psl_2_7(), 2)):
        calls.clear()
        character_table.__wrapped__(G)
        assert len(calls) == distinct, G
    for G in (s4, a4):
        character_table(G)
    calls.clear()
    restriction_multiplicities.__wrapped__(s4, a4)
    assert calls == []


def test_only_irrational_values_are_canonicalized(monkeypatch):
    # The lift reduces each value's root coefficients in integers; only an
    # irrational result descends to its minimal conductor, once for each
    # distinct (element order, value).  S4 x S3 has a rational table,
    # PSL(2,7) four irrational entries with two distinct values.
    calls = []
    descend = cyclotomic._descend

    def counted(e, coords):
        calls.append(e)
        return descend(e, coords)

    monkeypatch.setattr(cyclotomic, "_descend", counted)
    for G, irrational in ((s4_times_s3(), 0), (psl_2_7(), 4)):
        calls.clear()
        table = character_table.__wrapped__(G)
        values = [
            (c.element_order, v)
            for row in table.values
            for c, v in zip(table.classes, row)
        ]
        assert sum(v.conductor != 1 for _, v in values) == irrational, G
        assert len(calls) == len({x for x in values if x[1].conductor != 1}), G


def test_table_gate_rejects_a_value_that_does_not_lift_back(monkeypatch):
    # A descent that shifts one coordinate prints a value other than the
    # one whose coordinates the table gate checks.
    descend = cyclotomic._descend

    def shifted(e, coords):
        e, coords = descend(e, coords)
        return e, [coords[0] + 1] + list(coords[1:])

    monkeypatch.setattr(cyclotomic, "_descend", shifted)
    G = psl_2_7()
    message = (
        r"value at class \d+ of "
        + re.escape(f"{G!r} (split mod q = ")
        + r"\d+\) does not lift back to its coordinates"
    )
    with pytest.raises(InternalCheckError, match=message):
        character_table.__wrapped__(G)


def test_frobenius_reciprocity_on_random_pairs(s4, a4, a5):
    rng = random.Random(77)
    v4_in_a5 = PermutationGroup(5, [(1, 0, 3, 2, 4), (2, 3, 0, 1, 4)])
    pairs = [
        (s4, a4),
        (s4, sylow_subgroup(s4, 2)),
        (a5, v4_in_a5),
    ]
    for G, H in pairs:
        chis = characters(G)
        psis = characters(H)
        for _ in range(100):
            chi = rng.choice(chis)
            psi = rng.choice(psis)
            lhs = inner_product(induce(psi, G), chi)
            rhs = inner_product(psi, oracles.restrict(chi, H))
            assert lhs == rhs


def test_induction_degree_formula(a5):
    H = sylow_subgroup(a5, 5)
    for psi in characters(H):
        d = psi.values[0].integer_value()
        assert induce(psi, a5).values[0] == rational(12 * d)


def test_sl23_linear_of_q8_induces_degree_three(sl23):
    Q = p_core(sl23, 2)
    assert Q.order() == 8
    linears = [chi for chi in characters(Q) if chi.values[0] == ONE]
    nontrivial = [chi for chi in linears if chi != trivial(Q)]
    assert len(nontrivial) == 3
    table = character_table(sl23)
    for theta in nontrivial:
        psi = induce(theta, sl23)
        assert psi.values[0] == rational(3)
        assert psi.values in table.values


def _nontrivial_linear_row(N):
    """The row index of the first nontrivial linear character of N."""
    table = character_table(N)
    return next(
        k
        for k, row in enumerate(table.values)
        if table.degrees[k] == 1 and row != trivial(N).values
    )


def test_irr_over_and_inertia_sl23(sl23):
    Q = p_core(sl23, 2)
    q8_table = character_table(Q)
    k = _nontrivial_linear_row(Q)
    T = inertia_group(sl23, Q, k)
    assert T == Q
    degrees = character_table(sl23).degrees
    over = irr_over(sl23, Q, k)
    assert [degrees[i] for i in over] == [3]
    assert q8_table.values[0] == trivial(Q).values
    assert inertia_group(sl23, Q, 0) == sl23
    over_trivial = irr_over(sl23, Q, 0)
    assert sorted(degrees[i] for i in over_trivial) == [1, 1, 1]


def test_irr_over_partitions_table(s4):
    v4 = p_core(s4, 2)
    table = character_table(v4)
    seen = []
    for k in range(len(table.values)):
        seen.extend(irr_over(s4, v4, k))
    assert set(seen) == set(range(len(character_table(s4).values)))


def test_restriction_table_matches_frobenius_reciprocity(s4, a4, a5, sl23):
    v4_in_a5 = PermutationGroup(5, [(1, 0, 3, 2, 4), (2, 3, 0, 1, 4)])
    pairs = [
        (s4, a4),
        (s4, sylow_subgroup(s4, 2)),
        (a5, v4_in_a5),
        (sl23, p_core(sl23, 2)),
    ]
    for G, H in pairs:
        chis = characters(G)
        thetas = characters(H)
        rows = restriction_multiplicities(G, H)
        assert len(rows) == len(chis)
        for chi, row in zip(chis, rows):
            assert len(row) == len(thetas)
            for theta, m in zip(thetas, row):
                assert rational(m) == inner_product(induce(theta, G), chi)
        index = G.order() // H.order()
        for k, d in enumerate(character_table(H).degrees):
            column_degree = sum(
                row[k] * e for e, row in zip(character_table(G).degrees, rows)
            )
            assert column_degree == index * d


def test_restriction_table_is_cached(s4, a4):
    table = restriction_multiplicities(s4, a4)
    assert restriction_multiplicities(s4, a4) is table


def _random_subgroups():
    """Seeded random subgroups of S5 and S6."""
    groups = []
    for seed in range(12):
        rng = random.Random(seed)
        groups.append(random_subgroup(rng, rng.choice((5, 6)), rng.choice((1, 2))))
    return groups


def test_restriction_table_matches_oracle_on_random_subgroup_pairs():
    rng = random.Random(9)
    for G in _random_subgroups():
        elements = G.elements()
        H = PermutationGroup(
            G.degree, [rng.choice(elements) for _ in range(rng.choice((1, 2)))]
        )
        assert H.is_subgroup_of(G)
        rows = restriction_multiplicities(G, H)
        for chi, row in zip(characters(G), rows):
            oracle = tuple(
                inner_product(induce(theta, G), chi).integer_value()
                for theta in characters(H)
            )
            assert row == oracle, (G, H)


def test_restriction_table_reconstruction_gate(monkeypatch, s4, a4):
    # Irr(A4) with its last row replaced by the trivial character: every
    # multiplicity is still an integer, but the restriction of the trivial
    # character of S4 is counted twice and no longer reconstructs.
    table = character_table(a4)
    rows = table.values[:-1] + (trivial(a4).values,)
    _forge_rows(monkeypatch, table, rows)
    message = "does not reconstruct on PermutationGroup 'A4'"
    with pytest.raises(InternalCheckError, match=message):
        restriction_multiplicities.__wrapped__(s4, a4)


def test_restriction_table_nonnegativity_gate(monkeypatch, s4, a4):
    # the trivial row of A4 negated: against the trivial character of S4
    # restricted it pairs to -|A4|, so the multiplicity's residue is
    # Q - 1, above the degree 1
    table = character_table(a4)
    negated = tuple(oracles.combination([(-1, v)]) for v in table.values[0])
    rows = (negated,) + table.values[1:]
    _forge_rows(monkeypatch, table, rows)
    message = (
        "from PermutationGroup 'S4'.* to PermutationGroup 'A4'.* multiplicity"
        " above the degree"
    )
    with pytest.raises(InternalCheckError, match=message):
        restriction_multiplicities.__wrapped__(s4, a4)


def _with_rows(table, rows):
    """A table of table.group with the given rows of values, their
    coordinates read off the values by the power-basis oracle."""
    coords = [
        tuple(
            oracles.power_basis_coords(c.element_order, roots(v, c.element_order))
            for v, c in zip(row, table.classes)
        )
        for row in rows
    ]
    return CharacterTable(table.group, table.exponent, rows, coords)


def _forge_rows(monkeypatch, table, rows):
    """Hand chartab a new table of table.group with the given rows; the
    cached table stays untouched."""
    forged = _with_rows(table, rows)
    G = table.group
    monkeypatch.setattr(
        chartab, "character_table", lambda H: forged if H == G else character_table(H)
    )


def _forge_last_row_of_a4(monkeypatch, a4, values):
    table = character_table(a4)
    assert [c.element_order for c in table.classes] == [1, 2, 3, 3]
    rows = table.values[:-1] + (values,)
    _forge_rows(monkeypatch, table, rows)


def test_restriction_table_rejects_a_pairing_not_divisible_by_the_order(
    monkeypatch, s4, a4
):
    # Against the trivial character of S4 restricted, a forged row
    # (1, 0, 0, 0) of Irr(A4) pairs to 1, which |A4| = 12 does not divide:
    # the residue of 1/12 mod Q lies above the degree 1.
    zero = rational(0)
    _forge_last_row_of_a4(monkeypatch, a4, (ONE, zero, zero, zero))
    message = (
        re.escape(f"restriction from {s4!r} to {a4!r}")
        + " has a multiplicity above the degree"
    )
    with pytest.raises(InternalCheckError, match=message):
        restriction_multiplicities.__wrapped__(s4, a4)


def test_restriction_table_rejects_an_irrational_pairing(monkeypatch, s4, a4):
    # zeta_3 on both classes of order 3, which are inverse to each other:
    # against the trivial character of S4 restricted, the sum over them
    # is 8 zeta_3, and the multiplicity (4 + 8 zeta_3) / 12 is no integer:
    # its residue lies above the degree 1.
    _forge_last_row_of_a4(monkeypatch, a4, (ONE, ONE, zeta(3), zeta(3)))
    message = (
        re.escape(f"restriction from {s4!r} to {a4!r}")
        + " has a multiplicity above the degree"
    )
    with pytest.raises(InternalCheckError, match=message):
        restriction_multiplicities.__wrapped__(s4, a4)


def test_lifted_rows_are_conjugate_on_inverse_classes():
    # No gate compares chi(x^-1) with conj(chi(x)): the lift gives it, at
    # g = -1 of the checked power-class closure (_verify_orthogonality).
    for G in oracle_groups([cyclic(35), cyclic(55)]):
        inverse_class = G.inverse_classes()
        for row in character_table(G).values:
            for k, v in enumerate(row):
                assert row[inverse_class[k]] == oracles.complex_conjugate(v), (G, k)


def test_equal_groups_share_cached_results():
    # caches key a group by its element set, so an equal group under
    # another name is handed the result built first, which names it
    character_table.cache_clear()
    try:
        first = character_table(elementary_abelian(3, 1))
        assert cyclic(3) == elementary_abelian(3, 1)
        assert character_table(cyclic(3)) is first
        assert character_table(cyclic(3)).group.name == "C3^1"
    finally:
        character_table.cache_clear()


def test_table_gate_rejects_rows_that_are_not_orthonormal(s4):
    table = character_table(s4)
    assert table.values[1][2] == rational(-1)  # the sign character
    rows = list(table.values)
    rows[1] = trivial(s4).values
    message = re.escape(f"row orthogonality fails for rows 0, 1 of {s4!r}")
    with pytest.raises(InternalCheckError, match=message):
        _verify_orthogonality(_with_rows(table, rows))


def test_table_gate_rejects_sums_that_fail_mod_q(s4):
    # the exact table with one embedded entry moved: row 0's weighted
    # value at the identity raised from 1 to 2 makes S_00 = |G| + 1 mod Q
    table = character_table(s4)
    forged = copy.copy(table)
    forged.weighted = ((table.weighted[0][0] + 1,) + table.weighted[0][1:],)
    forged.weighted += table.weighted[1:]
    message = re.escape(f"row orthogonality fails for rows 0, 0 of {s4!r}")
    with pytest.raises(InternalCheckError, match=message):
        _verify_orthogonality(forged)


def _exact_sum(sums):
    assert sums[0] is not None
    return sum(sums[0].values())


def test_pairing_matches_the_dense_oracle():
    # Every pair of rows of every table, against the exact pairing on
    # coordinates: the embedded gate sum is |G| delta_su mod Q, and at
    # every prime p the dot product over the p-regular classes is the
    # exact p-regular sum mod Q, so Osima's links are the oracle's.
    for G in oracle_groups([cyclic(35)]):
        table = character_table(G)
        Q, n, r = table.modulus, G.order(), len(table.values)
        exact = {}
        for s, (a, x) in enumerate(zip(table.weighted, table.coords)):
            for u, (b, y) in enumerate(zip(table.inverted, table.coords)):
                exact[s, u] = oracles.pairing_dense(table, x, y)
                assert _exact_sum(exact[s, u]) == (n if s == u else 0), G
                assert sum(map(mul, a, b)) % Q == _exact_sum(exact[s, u]) % Q, G
        for p in prime_factors(n):
            regular = p_regular_classes(G, p)
            links = set()
            for s in range(r):
                for u in range(r):
                    partials = exact[s, u][0]
                    total = sum(v for o, v in partials.items() if o % p)
                    assert abs(total) < Q, G
                    embedded = sum(
                        table.weighted[s][k] * table.inverted[u][k]
                        for k in regular
                    )
                    assert embedded % Q == total % Q, (G, p)
                    if total and s != u:
                        links.add((s, u))
            assert osima_partition(table, p) == components(r, links), (G, p)


def test_restriction_pairings_match_the_dense_oracle():
    # Every fused row of G against every row of H's table: H a normal
    # subgroup of a catalog group, or the normalizer of a Sylow
    # p-subgroup of an oracle group at each prime.  The exact pairing is
    # |H| times the restriction table's multiplicity.
    names = {ent.load().name for ent in catalog.entries()}
    for G in oracle_groups([]):
        big = character_table(G)
        primes = prime_factors(G.order())
        subgroups = [normalizer(G, sylow_subgroup(G, p)) for p in primes]
        if G.name in names:
            subgroups += normal_subgroups(G)
        for H in subgroups:
            fusion = class_fusion(G, H)
            sub = character_table(H)
            rows = restriction_multiplicities(G, H)
            for x, row in zip(big.coords, rows):
                x = tuple(x[k] for k in fusion)
                for y, m in zip(sub.coords, row):
                    exact = _exact_sum(oracles.pairing_dense(sub, x, y))
                    assert exact == m * H.order(), (G, H)


def test_table_gate_reduces_no_value_of_a_rational_table(monkeypatch):
    # The gate reads its sums through the embedding, and conjugation
    # through the lift: it calls reduce_mod_cyclotomic 945 times on
    # S4 x S3 and 517 times on S6 when it reduces every sum and every
    # conjugate.
    calls = []
    reduce = chartab.reduce_mod_cyclotomic

    def counted(poly, e):
        calls.append(e)
        return reduce(poly, e)

    tables = [character_table(G) for G in (s4_times_s3(), symmetric(6))]
    monkeypatch.setattr(chartab, "reduce_mod_cyclotomic", counted)
    for table in tables:
        _verify_orthogonality(table)
        assert calls == [], table.group


def test_table_lifts_each_distinct_column_once(monkeypatch):
    # reduce_mod_cyclotomic calls of one table build: a lift per (row,
    # class) pair made C55 3,025, D94 625, S4xS3 225, A7 81 and S6 121
    calls = []
    reduce = chartab.reduce_mod_cyclotomic

    def counted(poly, e):
        calls.append(e)
        return reduce(poly, e)

    monkeypatch.setattr(chartab, "reduce_mod_cyclotomic", counted)
    for G, most in (
        (cyclic(55), 72),
        (dihedral(47), 29),
        (s4_times_s3(), 64),
        (alternating(7), 55),
        (symmetric(6), 47),
    ):
        calls.clear()
        character_table.__wrapped__(G)
        assert len(calls) <= most, (G, len(calls))


def _random_matrix(rng, r, q):
    # Half the entries zero, and sometimes a zero lower-left block, so
    # some matrices have too few eigenvalues in GF(q) or too few
    # eigenvectors for them.
    m = [
        [rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(r)]
        for _ in range(r)
    ]
    if r > 2 and rng.random() < 0.5:
        cut = rng.randrange(1, r)
        for j in range(cut, r):
            for k in range(cut):
                m[j][k] = 0
    return m


def _columns(m):
    """The matrix m as ``_krylov_split`` reads it: column k as its
    nonzero {row: entry}."""
    return lambda k: {j: row[k] for j, row in enumerate(m) if row[k]}


def _rank(vectors, q):
    # the rank of the rows, from the oracle's batch reduction
    return len(vectors[0]) - len(oracles._nullspace_mod(vectors, q)) if vectors else 0


def _times(m, v, q):
    return [sum(x * y for x, y in zip(row, v)) % q for row in m]


def test_krylov_split_keeps_repeated_and_rejects_missing_eigenvalues():
    q = 13
    # (0, 1) = ((1, 3) - (1, 0)) / 3, on the eigenvectors of 5 and 2
    parts = _krylov_split(_columns([[2, 1], [0, 5]]), [0, 1], q)
    assert sorted(_leading_one(v, q) for v in parts) == [[1, 0], [1, 3]]
    # a repeated eigenvalue with two eigenvectors: one part, u itself
    m = [[2, 0, 0], [0, 2, 0], [0, 0, 5]]
    assert _krylov_split(_columns(m), [1, 1, 0], q) == [[1, 1, 0]]
    parts = _krylov_split(_columns(m), [1, 1, 1], q)
    assert sorted(_leading_one(v, q) for v in parts) == [[0, 0, 1], [1, 1, 0]]
    # a Jordan block: (x - 2)^2, one distinct root for degree 2; its
    # eigenvector alone has minimal polynomial x - 2
    assert _krylov_split(_columns([[2, 1], [0, 2]]), [0, 1], q) is None
    assert _krylov_split(_columns([[2, 1], [0, 2]]), [1, 0], q) == [[1, 0]]
    # x^2 + 1 has no root mod 11
    assert _krylov_split(_columns([[0, 10], [1, 0]]), [1, 0], 11) is None
    # zeta_3 is not in GF(5): C3's class matrix splits x^3 - 1 into
    # (x - 1)(x^2 + x + 1) there, and delta_1 does not split
    G = cyclic(3)
    assert _krylov_split(lambda k: _class_column(G, 1, k), [1, 0, 0], 5) is None


def test_krylov_split_agrees_with_full_scan():
    # Random matrices, half of them diagonalizable, and random vectors u:
    # the split exists exactly when u lies in the span of the
    # eigenvectors that the oracle's null spaces find, and then its parts
    # are eigenvectors for distinct eigenvalues that span u.  Where every
    # eigenvalue is simple and u has a nonzero part on each, the parts
    # are the oracle's eigenvectors, each up to a scalar.
    rng = random.Random(3)
    cases = Counter()
    for q in (7, 13, 31):
        for r in range(1, 8):
            for _ in range(8):
                if rng.random() < 0.5:
                    m = _random_matrix(rng, r, q)
                else:
                    m = _diagonalizable_matrix(rng, r, q)
                want = oracles.eigenvectors_by_full_scan(m, q)
                if want is not None and rng.random() < 0.5:
                    u = [0] * r
                    for v in want:
                        f = rng.randrange(1, q)
                        u = [(x + f * y) % q for x, y in zip(u, v)]
                else:
                    u = [rng.randrange(q) for _ in range(r)]
                    if not any(u):
                        u[0] = 1
                eigen = [
                    v for lam in range(q)
                    for v in oracles._nullspace_mod(_shifted(m, lam, q), q)
                ]
                spanned = _rank(eigen + [u], q) == _rank(eigen, q)
                parts = _krylov_split(_columns(m), u, q)
                assert (parts is not None) == spanned, (m, u, q)
                if parts is None:
                    cases["short"] += 1
                    continue
                lams = []
                for v in parts:
                    mv = _times(m, v, q)
                    k = next(k for k, x in enumerate(v) if x)
                    lams.append(mv[k] * pow(v[k], q - 2, q) % q)
                    assert mv == [lams[-1] * x % q for x in v], (m, u, q)
                assert len(set(lams)) == len(parts), (m, u, q)
                assert _rank(parts + [u], q) == _rank(parts, q) == len(parts)
                if want is not None and len(parts) == r:
                    assert sorted(_leading_one(v, q) for v in parts) == sorted(
                        _leading_one(v, q) for v in want
                    )
                    cases["scan"] += 1
                cases["split"] += 1
    assert cases["scan"] > 20 and cases["short"] > 20, cases


def test_delta_one_is_the_degree_weighted_sum_of_central_characters():
    # The start of the split: sum_chi (chi(1)^2 / |G|) omega_chi = delta_1
    # mod q, every coefficient nonzero.  omega_chi(K_k) =
    # |C_k| chi(x_k) / chi(1) is read off the finished table, each value
    # reduced by zeta_o -> z^(e/o), the root of unity of the lift, and
    # the central characters of the split must be these.
    for G in oracle_groups([]):
        table = character_table(G)
        n, e = G.order(), table.exponent
        q = _prime_above(e, isqrt(4 * n))
        z = _root_of_unity(e, q)
        omegas = []
        for d, row in zip(table.degrees, table.coords):
            omega = []
            for c, x in zip(table.classes, row):
                o = c.element_order
                value = sum(t * pow(z, e // o * i, q) for i, t in enumerate(x))
                omega.append(c.size * value * pow(d, q - 2, q) % q)
            omegas.append(omega)
        assert sorted(_central_characters(G, q)) == sorted(omegas), G
        total = [0] * len(omegas)
        for d, omega in zip(table.degrees, omegas):
            f = d * d * pow(n, q - 2, q) % q
            assert f, G
            total = [(x + f * y) % q for x, y in zip(total, omega)]
        assert total == [int(k == 0) for k in range(len(total))], G


def _integer_vectors(rng, count, length):
    # random integer vectors, a third of them integer combinations of
    # those before, so some are dependent mod any q
    vectors = []
    for _ in range(count):
        if vectors and rng.random() < 0.35:
            v = [0] * length
            for w in rng.sample(vectors, min(3, len(vectors))):
                f = rng.randrange(-3, 4)
                v = [x + f * y for x, y in zip(v, w)]
        else:
            v = [rng.randrange(-9, 10) for _ in range(length)]
        vectors.append(v)
    return vectors


def test_echelon_pivots_match_a_batch_reduction():
    # Fed vectors extend the basis exactly at the pivot columns of the
    # batch reduction of the matrix they are the columns of, and each
    # dependent one comes back as coordinates that rebuild it mod q.
    rng = random.Random(5)
    cases = Counter()
    for q in (7, 13, (1 << 521) - 1):
        for _ in range(30):
            count, length = rng.randrange(1, 9), rng.randrange(1, 9)
            vectors = _integer_vectors(rng, count, length)
            feed = _echelon(q)
            extended, dependent = [], []
            for c, v in enumerate(vectors):
                found = feed(v)
                if found is None:
                    extended.append(c)
                else:
                    dependent.append((c, found))
            pivots = [
                c for c in range(count)
                if _rank(vectors[: c + 1], q) > _rank(vectors[:c], q)
            ]
            assert extended == pivots, (q, vectors)
            for c, found in dependent:
                basis = [vectors[t] for t in extended if t < c]
                assert len(found) == len(basis), (q, vectors, c)
                rebuilt = [0] * length
                for f, w in zip(found, basis):
                    rebuilt = [x + f * y for x, y in zip(rebuilt, w)]
                assert all((x - y) % q == 0 for x, y in zip(rebuilt, vectors[c]))
                cases[q] += 1
    assert min(cases.values()) > 10, cases


def _shifted(m, lam, q):
    return [[(x - (lam if j == k else 0)) % q for k, x in enumerate(row)]
            for j, row in enumerate(m)]


def _leading_one(v, q):
    lead = pow(next(x for x in v if x), q - 2, q)
    return [x * lead % q for x in v]


def _diagonalizable_matrix(rng, r, q):
    # A random diagonal matrix conjugated by random transvections: adding
    # f times row j to row i and subtracting f times column i from column
    # j is one similarity transform.
    m = [[rng.randrange(q) if j == k else 0 for k in range(r)] for j in range(r)]
    for _ in range(3 * r if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        f = rng.randrange(1, q)
        m[i] = [(x + f * y) % q for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] = (row[j] - f * row[i]) % q
    return m


def test_lift_gate_rejects_a_central_character_vanishing_on_the_identity(
    monkeypatch, s4
):
    # omega(1) = 1 for every central character; eigenvectors forged to
    # vanish at the identity class leave no degree to scale them by
    real = chartab._central_characters
    monkeypatch.setattr(
        chartab, "_central_characters", lambda G, q: [[0, *w[1:]] for w in real(G, q)]
    )
    message = re.escape(f"central character vanishes on the identity of {s4!r}")
    with pytest.raises(InternalCheckError, match=message):
        character_table.__wrapped__(s4)


def test_lift_gate_rejects_a_multiplicity_out_of_range(monkeypatch, s4):
    # every degree forged to (q + 1) / 2: the identity then has the
    # eigenvalue 1 with multiplicity (q + 1) / 2 mod q, outside the range
    # 0 <= m < q / 2 that a residue must fall in to be read as an integer
    monkeypatch.setattr(chartab, "_degree_from_norm", lambda G, s, q: (q + 1) // 2)
    message = re.escape(f"lifted multiplicity out of range on {s4!r}")
    with pytest.raises(InternalCheckError, match=message):
        character_table.__wrapped__(s4)


def test_lift_gate_rejects_multiplicities_that_miss_the_degree(monkeypatch, s4):
    # every degree forged to d + q: the class function is the same mod q,
    # so every multiplicity is the same residue in range, but at the
    # identity the one multiplicity d adds up to d, not to d + q
    real = chartab._degree_from_norm
    monkeypatch.setattr(
        chartab, "_degree_from_norm", lambda G, s, q: real(G, s, q) + q
    )
    q = _prime_above(s4.exponent(), isqrt(4 * s4.order()))
    message = (
        re.escape(f"lifted multiplicities at class 0 of {s4!r} add up to ")
        + r"(\d+), not to the degree (\d+)$"
    )
    with pytest.raises(InternalCheckError, match=message) as caught:
        character_table.__wrapped__(s4)
    d, forged = map(int, re.search(message, str(caught.value)).groups())
    assert forged == d + q


def test_lift_gate_rejects_power_classes_not_closed_under_units(monkeypatch):
    # C5 with x^2 forged to x^3: the square of the class of x is then
    # the class of x^3, whose cube is x^4, where (x^2)^3 = x^6 = x
    G = cyclic(5)
    real = chartab._power_classes

    def forged(G, c):
        found = real(G, c)
        return found[:2] + found[3:4] + found[3:] if c.element_order == 5 else found

    monkeypatch.setattr(chartab, "_power_classes", forged)
    message = re.escape(f"power classes of {G!r} are not closed under x -> x^2")
    with pytest.raises(InternalCheckError, match=message):
        character_table.__wrapped__(G)


def test_unit_generators_generate_the_units():
    # each generator lies outside the span of those before it, and they
    # span every unit mod e
    for e in [1, 2, 3, 4, 8, 12, 15, 16, 24, 55, 94, 105, 420, 840]:
        units = {g for g in range(e) if gcd(g, e) == 1} if e > 1 else {0}
        span = {1 % e}
        for g in _unit_generators(e):
            assert g in units and g not in span, (e, g)
            while True:
                grown = span | {x * g % e for x in span}
                if grown == span:
                    break
                span = grown
        assert span == units, e


def test_root_of_unity_has_the_order_asked(s4):
    # the one helper serves the split's q and the embedding's Q
    for e in [1, 2, 6, 12, 55, 420]:
        for p in (_prime_above(e, e + 1), _prime_above(e, 10 ** 6)):
            assert (p - 1) % e == 0 and is_prime(p), (e, p)
            z = _root_of_unity(e, p)
            assert oracles.multiplicative_order(z, p) == e, (e, p)
    assert _prime_above(4, 8) == 13 and _prime_above(4, 12) == 13
    assert _prime_above(1, 2) == 3


def test_lift_rows_are_closed_under_the_galois_group():
    # sigma_g: zeta_o -> zeta_o^g applied to each row's coordinates at
    # class j is the row's coordinates at the class of x_j^g, for every
    # generator g of the units mod the exponent: the closure the table
    # gate's proof rests on, read off the finished table
    for G in oracle_groups([cyclic(35)]):
        table = character_table(G)
        for g in _unit_generators(table.exponent):
            for c in table.classes:
                o = c.element_order
                k = G.class_index(power(c.representative, g % o))
                for row in table.coords:
                    moved = [0] * o
                    for t, a in enumerate(row[c.index]):
                        moved[t * g % o] += a
                    assert oracles.power_basis_coords(o, moved) == row[k], (G, g)


def test_splitting_errors_name_the_group_and_prime(monkeypatch, s4):
    # 24 / 12 = 2 mod 13, and 2 is not d^2 mod 13 for any d <= sqrt 24
    message = re.escape(
        f"no admissible degree for an eigenvector of {s4!r} mod q = 13"
    )
    with pytest.raises(InternalCheckError, match=message):
        _degree_from_norm(s4, 12, 13)
    # zeta_3 is not in GF(5): x^3 - 1 has the one root 1 there
    G = cyclic(3)
    message = re.escape(
        f"eigenspace splitting failed on {G!r} mod q = 5: the eigenspaces"
        " of class 1 fall short of the space they split"
    )
    with pytest.raises(InternalCheckError, match=message):
        _central_characters(G, 5)
    # every class matrix forged to the identity, column k one 1 at row k
    monkeypatch.setattr(chartab, "_class_column", lambda G, i, k: {k: 1})
    message = re.escape(
        f"eigenspace splitting failed on {G!r} mod q = 7: the class matrices"
        " leave a common eigenspace of dimension above one"
    )
    with pytest.raises(InternalCheckError, match=message):
        _central_characters(G, 7)


def test_inertia_group_error_names_the_groups(monkeypatch, sl23, q8):
    # a linear character of Q8 moved by SL(2,3); an action fixing every
    # row puts it in an orbit of one, so T is SL(2,3), whose own
    # generators then move it
    k = _nontrivial_linear_row(q8)
    every_row = tuple(range(len(character_table(q8).values)))
    fixed = tuple((g, every_row) for g in sl23.generators)
    monkeypatch.setattr(chartab, "character_action", lambda G, N: fixed)
    message = re.escape(
        f"inertia group of a character of {q8!r} in {sl23!r} fails the"
        " orbit-stabilizer gate: orbit 1, stabilizer order 24"
    )
    with pytest.raises(InternalCheckError, match=message):
        inertia_group(sl23, q8, k)


def test_character_action_rejects_a_conjugate_outside_the_table(
    monkeypatch, sl23, q8
):
    # Irr(Q8) with one nontrivial linear row replaced by the trivial
    # character: SL(2,3) permutes the three nontrivial linear characters
    # cyclically, so the one it sends to the replaced row has a conjugate
    # that is no longer a row
    table = character_table(q8)
    rows = list(table.values)
    rows[_nontrivial_linear_row(q8)] = trivial(q8).values
    _forge_rows(monkeypatch, table, rows)
    message = (
        re.escape(f"of {q8!r} conjugated by a generator of {sl23!r}")
        + " is not a row of its table"
    )
    with pytest.raises(InternalCheckError, match=message):
        chartab.character_action.__wrapped__(sl23, q8)


def test_inertia_group_builds_one_group_per_call(monkeypatch, sl23, q8):
    cases = [(symmetric(6), alternating(6)), (sl23, q8)]
    built = []
    init = PermutationGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    # warming calls fill the character action and the classes of N
    for G, N in cases:
        for k in range(len(character_table(N).values)):
            inertia_group(G, N, k)
    monkeypatch.setattr(PermutationGroup, "__init__", counting_init)
    invariant = []
    for G, N in cases:
        action = chartab.character_action(G, N)
        invariant.append(0)
        for k in range(len(character_table(N).values)):
            # the warming call left T in the cache of group_from_elements
            permgroup.group_from_elements.cache_clear()
            built.clear()
            T = inertia_group(G, N, k)
            if all(a[k] == k for _, a in action):
                # an invariant theta has T = G, returned as it is
                invariant[-1] += 1
                assert not built and T is G, (G, k)
            else:
                assert len(built) == 1, (G, k)
    # 5 of the 7 rows of A6 and 2 of the 5 rows of Q8 are invariant
    assert invariant == [5, 2]


def test_inertia_group_walks_the_generators_of_the_shared_action():
    # the character action is cached per pair of equal groups, so a group
    # equal to H but listing other generators is handed the action built
    # for H: the walk must move by the action's generators, not the group's
    for H in (sl_2_3(), s4_times_s3()):
        for G in (
            PermutationGroup(H.degree, H.generators[::-1]),
            permgroup.group_from_elements(H.degree, H.element_set()),
        ):
            for N in normal_subgroups(H):
                chartab.character_action.cache_clear()
                action = chartab.character_action(H, N)
                assert chartab.character_action(G, N) is action
                assert tuple(g for g, _ in action) != G.generators
                for k, theta in enumerate(characters(N)):
                    want = oracles.inertia_group_by_scan(G, N, theta)
                    got = inertia_group(G, N, k)
                    assert got.element_set() == want.element_set(), (G, N, k)


def test_inertia_gate_conjugates_every_generator_of_an_invariant_theta(
    monkeypatch, sl23, q8
):
    # the degree-2 character of Q8 is SL(2,3)-invariant, so T is SL(2,3);
    # one generator forged to swap the classes of 1 and -1 moves theta,
    # and the direct conjugation still catches it
    k = character_table(q8).degrees.index(2)
    assert inertia_group(sl23, q8, k) is sl23
    g = chartab.character_action(sl23, q8)[0][0]
    real = chartab._conjugate_classes

    def forged(N, h):
        c = real(N, h)
        return (c[1], c[0], *c[2:]) if h == g else c

    monkeypatch.setattr(chartab, "_conjugate_classes", forged)
    message = re.escape(
        f"inertia group of a character of {q8!r} in {sl23!r} fails the"
        " orbit-stabilizer gate: orbit 1, stabilizer order 24"
    )
    with pytest.raises(InternalCheckError, match=message):
        inertia_group(sl23, q8, k)


def _clifford_groups():
    return oracle_groups([
        elementary_abelian(2, 5),
        sylow_subgroup(s4_times_s4(), 2),
        c2_wreath_s4(),
        c3_wreath_c3(),
    ])


def test_normal_subgroups_match_join_oracle(monkeypatch):
    # uncached tables, here and below: a cached table of an unnamed group
    # would be handed to an equal, named group of a later test
    monkeypatch.setattr(chartab, "character_table", character_table.__wrapped__)
    for G in _clifford_groups():
        found = normal_subgroups(G)
        want = oracles.normal_subgroups_by_joins(G)
        assert [N.elements() for N in found] == [N.elements() for N in want], G


def test_cores_and_p_solvability_match_closure_oracles(monkeypatch):
    monkeypatch.setattr(chartab, "character_table", character_table.__wrapped__)
    families = [
        elementary_abelian(2, 5),
        elementary_abelian(3, 3),
        s4_times_s4(),
        c2_wreath_s4(),
        c3_wreath_c3(),
    ]
    verdicts = Counter()
    for G in oracle_groups(families):
        n = G.order()
        primes = list(prime_factors(n))
        primes.append(next(q for q in count(2) if is_prime(q) and n % q))
        for p in primes:
            O_p, O_p_prime = oracles.cores_by_class_closures(G, p)
            assert p_core(G, p).element_set() == O_p.element_set(), (G, p)
            assert p_prime_core(G, p).element_set() == O_p_prime.element_set(), (G, p)
            solvable = is_p_solvable(G, p)
            assert solvable == oracles.is_p_solvable_by_quotients(G, p), (G, p)
            verdicts[solvable] += 1
    assert verdicts == {True: 81, False: 40}


def test_inertia_groups_match_scan_oracle():
    # start from an empty table cache; oracle_groups empties it after
    # each group, so no table outlives its group
    character_table.cache_clear()
    cases = 0
    for G in _clifford_groups():
        for N in normal_subgroups(G):
            for k, theta in enumerate(characters(N)):
                T = inertia_group(G, N, k)
                want = oracles.inertia_group_by_scan(G, N, theta)
                assert T.element_set() == want.element_set(), (G, N)
                cases += 1
    assert cases > 4000


def test_inner_product_requires_same_group(s4, a4):
    with pytest.raises(DomainError):
        inner_product(trivial(s4), trivial(a4))


def test_table_is_deterministic(s4):
    t1 = character_table(s4)
    assert character_table(s4) is t1
    fresh = PermutationGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    t3 = character_table(fresh)
    assert t3.values == t1.values


def _table_json(tmp_path, group):
    """The bytes of ``table --format json`` on a file named after group."""
    path = tmp_path / f"{group.name}.grp"
    path.write_text(format_group_text(group), encoding="utf-8")
    out = tmp_path / "table.json"
    assert main(["table", str(path), "--format", "json", "--out", str(out)]) == 0
    return out.read_bytes()


def _golden(name):
    return (Path(__file__).parent / "data" / name).read_bytes()


@pytest.mark.parametrize(
    "group, golden, atlas_degrees",
    [
        (alternating(7), "a7_table.json", [1, 6, 10, 10, 14, 14, 15, 21, 35]),
        (
            symmetric(7),
            "s7_table.json",
            [1, 1, 6, 6, 14, 14, 14, 14, 15, 15, 20, 21, 21, 35, 35],
        ),
    ],
    ids=["A7", "S7"],
)
def test_exponent_420_tables_match_goldens(tmp_path, group, golden, atlas_degrees):
    # Both groups have exponent 420; the goldens are the byte-exact
    # ``table --format json`` output of the full-exponent Fourier lift.
    text = _table_json(tmp_path, group)
    assert text == _golden(golden)
    payload = json.loads(text)
    assert payload["exponent"] == 420
    assert [int(row[0]) for row in payload["irreducibles"]] == atlas_degrees


@pytest.mark.parametrize(
    "group, golden",
    [
        (symmetric(6), "s6_table.json"),
        (psl_2_7(), "psl27_table.json"),
        (s4_times_s3(), "s4xs3_table.json"),
    ],
    ids=["S6", "PSL(2,7)", "S4xS3"],
)
def test_benchmark_tables_match_goldens(tmp_path, group, golden):
    # With A7 above, the four groups of the ``tables`` benchmark workload;
    # each golden is the byte-exact ``table --format json`` output.
    assert _table_json(tmp_path, group) == _golden(golden)
