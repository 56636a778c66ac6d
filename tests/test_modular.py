import importlib.util
import itertools
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from blockforge import catalog, modular
from blockforge.arith import is_prime, prime_factors
from blockforge.blocks import block_data, brauer_correspondent, p_regular_classes
from blockforge.chartab import character_table, is_p_solvable
from blockforge.errors import DomainError, InternalCheckError
from blockforge.groupfile import parse_group_file
from blockforge.modular import (
    brauer_decomposition,
    modular_data,
    restriction_to_p_regular,
)

import oracles
from conftest import (
    alternating,
    c2_wreath_s4,
    c3_wreath_c2,
    cyclic,
    dihedral,
    dihedral8,
    frobenius20,
    frobenius21,
    oracle_groups,
    quaternion8,
    random_subgroup,
    s4_times_s4,
    sl_2_3,
    symmetric,
)
from oracles import combination, exhaustive_ibr, plus


def flatten(values, e):
    out = []
    for v in values:
        out.extend(v.lift_coords(e))
    return tuple(out)


def _ibr(G, p):
    """The package's IBr(G) at p as (values, coordinates) pairs on the
    p-regular classes: a lifted Brauer character read off its ordinary
    row, a stored one off the fixture, each checked against its degree."""
    degrees, lifts, _ = brauer_decomposition(G, p)
    stored = modular._fixture_brauer_characters(G, p) if None in lifts else ()
    ibr = [
        stored[j] if i is None else restriction_to_p_regular(G, i, p)
        for j, i in enumerate(lifts)
    ]
    assert [values[0].integer_value() for values, _ in ibr] == list(degrees)
    return ibr


def test_s4_p2_brauer_degrees(s4):
    assert brauer_decomposition(s4, 2)[0] == (1, 2)


def test_s4_p2_decomposition_matrix(s4):
    data = modular_data(s4, 2)
    assert data.decomposition == ((1, 0), (1, 0), (0, 1), (1, 1), (1, 1))


def test_s4_p3_brauer_degrees(s4):
    assert brauer_decomposition(s4, 3)[0] == (1, 1, 3, 3)


def test_sl23_p3_brauer_degrees(sl23):
    assert brauer_decomposition(sl23, 3)[0] == (1, 2, 3)


def test_sl23_p3_linear_decomposes_trivially(sl23):
    data = modular_data(sl23, 3)
    table = character_table(sl23)
    for i, d in enumerate(table.degrees):
        if d == 1:
            assert data.decomposition[i] == (1, 0, 0)


def test_a4_p2_brauer_degrees(a4):
    assert brauer_decomposition(a4, 2)[0] == (1, 1, 1)


def test_coprime_prime_restriction_is_identity(s4):
    data = modular_data(s4, 5)
    n = len(data.brauer_degrees)
    assert n == 5
    table_degrees = sorted(character_table(s4).degrees)
    assert sorted(data.brauer_degrees) == table_degrees
    for row in data.decomposition:
        assert sum(row) == 1


def _catalog_and_bench_groups():
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
    groups = [ent.load() for ent in catalog.entries()]
    return groups + [parse_group_file(path) for path in sorted(bench.glob("*.grp"))]


def test_a5_p2_fixture_degrees(a5):
    assert brauer_decomposition(a5, 2)[0] == (1, 2, 2, 4)


def test_a5_p2_fixture_is_its_derivation():
    # the committed fixture is exactly what its derivation script writes
    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "derive_a5_mod2_ibr.py"
    spec = importlib.util.spec_from_file_location("derive_a5_mod2_ibr", script)
    derive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(derive)
    fixture = root / "src" / "blockforge" / "data" / "fixtures" / "a5_p2_ibr.json"
    assert derive.derive().encode("utf-8") == fixture.read_bytes()


def test_character_values_hold_int_coordinates(a5):
    # Character values are algebraic integers, so every coordinate the
    # package builds or stores is an int: the tables of the catalog and
    # benchmark groups, values and coords, and the stored A5 Brauer values.
    found = []
    for G in _catalog_and_bench_groups():
        table = character_table(G)
        found += (x for row in table.values for v in row for x in v.coords)
        found += (x for row in table.coords for xs in row for x in xs)
    for values, lifted in modular._fixture_brauer_characters(a5, 2):
        found += (x for v in values for x in v.coords)
        found += lifted
    assert found and {type(x) for x in found} == {int}


def test_a5_p2_decomposition_matrix(a5):
    data = modular_data(a5, 2)
    assert data.decomposition == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 1, 0),
    )


def test_a5_p2_brauer_block_assignment(a5):
    data = modular_data(a5, 2)
    assert data.block_of_brauer == (0, 0, 0, 1)
    bs = data.blockset
    assert data.brauer_indices_of_block(bs.blocks[0]) == (0, 1, 2)
    assert data.height_zero_brauer_degrees(bs.blocks[0]) == (1,)
    assert data.height_zero_brauer_degrees(bs.blocks[1]) == (4,)


def test_a5_p2_counterexample_counts(a5):
    data = modular_data(a5, 2)
    principal = data.blockset.blocks[0]
    left = data.height_zero_brauer_degrees(principal)
    b = brauer_correspondent(principal)
    local = modular_data(b.blockset.group, 2)
    right = local.height_zero_brauer_degrees(b)
    assert len(left) == 1
    assert len(right) == 3


def test_s4_p2_height_zero_brauer(s4):
    data = modular_data(s4, 2)
    principal = data.blockset.blocks[0]
    assert data.height_zero_brauer_degrees(principal) == (1,)
    b = brauer_correspondent(principal)
    local = modular_data(b.blockset.group, 2)
    assert local.height_zero_brauer_degrees(b) == (1,)


@pytest.mark.parametrize("p", [4, 2.0, "2", True], ids=repr)
def test_non_prime_p_is_rejected_by_block_and_modular_data(s4, p):
    # a float or a string reached the arithmetic as a TypeError; the
    # data at 2 is built first, so 2.0 cannot meet it in a cache
    modular_data(s4, 2)
    for entry in (block_data, modular_data):
        with pytest.raises(DomainError) as err:
            entry(s4, p)
        assert str(err.value) == f"{p!r} is not prime"


def test_unavailable_table_raises():
    s5 = symmetric(5)
    with pytest.raises(DomainError):
        brauer_decomposition(s5, 2)


def test_brauer_characters_match_exhaustive_oracle():
    cases = [
        (symmetric(4), 2),
        (symmetric(4), 3),
        (sl_2_3(), 2),
        (sl_2_3(), 3),
        (alternating(4), 2),
        (alternating(4), 3),
        (frobenius20(), 2),
        (frobenius20(), 5),
        (frobenius21(), 3),
        (frobenius21(), 7),
        (c3_wreath_c2(), 2),
        (c3_wreath_c2(), 3),
        (dihedral8(), 2),
        (quaternion8(), 2),
        (cyclic(6), 2),
        (cyclic(6), 3),
    ]
    # seeded subgroups of S5 and S6 (orders 2 to 72 among the p-solvable
    # ones), at every prime dividing the order where G is p-solvable
    for seed in range(40):
        rng = random.Random(seed)
        degree = rng.choice((5, 6))
        G = random_subgroup(rng, degree, rng.choice((1, 2)))
        cases.extend(
            (G, p) for p in prime_factors(G.order()) if is_p_solvable(G, p)
        )
    for G, p in cases:
        e = G.exponent()
        table = character_table(G)
        seen = []
        for i in range(len(table.values)):
            values, _ = restriction_to_p_regular(G, i, p)
            pair = (values[0].integer_value(), flatten(values, e))
            if pair not in seen:
                seen.append(pair)
        count = len(p_regular_classes(G, p))
        subset = exhaustive_ibr(seen, count)
        oracle = sorted(seen[i] for i in subset)
        found = sorted(
            (values[0].integer_value(), flatten(values, e)) for values, _ in _ibr(G, p)
        )
        assert found == oracle, (G.name, p)


def test_decomposition_reconstructs_restrictions():
    for G, p in ((symmetric(4), 2), (sl_2_3(), 3), (alternating(5), 2)):
        data = modular_data(G, p)
        table = character_table(G)
        ibr = _ibr(G, p)
        for i in range(len(table.values)):
            target = restriction_to_p_regular(G, i, p)[0]
            rebuilt = None
            for j, (values, _) in enumerate(ibr):
                d = data.decomposition[i][j]
                if not d:
                    continue
                term = tuple(combination([(d, v)]) for v in values)
                if rebuilt is None:
                    rebuilt = term
                else:
                    rebuilt = tuple(plus(a, b) for a, b in zip(rebuilt, term))
            assert rebuilt == target


def test_block_counts_ordinary_vs_brauer():
    for G, p in (
        (symmetric(4), 2),
        (symmetric(4), 3),
        (alternating(5), 2),
        (sl_2_3(), 3),
        (frobenius20(), 5),
    ):
        data = modular_data(G, p)
        for b in data.blockset.blocks:
            l = len(data.brauer_indices_of_block(b))
            assert 1 <= l <= len(b.char_indices)


def _stored_a5_table(monkeypatch, a5, table):
    """Replace the stored table of A5 at 2 by table(stored)."""
    stored = modular._fixture_brauer_characters(a5, 2)
    assert [values[0].integer_value() for values, _ in stored] == [1, 2, 2, 4]
    monkeypatch.setattr(
        modular, "_fixture_brauer_characters", lambda G, p: table(stored)
    )


def test_modular_gate_names_group_and_prime(monkeypatch, a5):
    # A stored table without the Brauer character of degree 4: the
    # ordinary character of degree 4 has no decomposition.
    _stored_a5_table(monkeypatch, a5, lambda stored: stored[:3])
    message = re.escape(
        "ordinary character does not decompose over the Brauer characters"
        f" on {a5!r} at p = 2"
    )
    with pytest.raises(InternalCheckError, match=message):
        brauer_decomposition(a5, 2)


def test_stored_table_gate_rejects_a_dependent_character(monkeypatch, a5):
    _stored_a5_table(monkeypatch, a5, lambda stored: stored[:1] + stored)
    message = re.escape(
        f"stored Brauer character depends on earlier ones on {a5!r} at p = 2"
    )
    with pytest.raises(InternalCheckError, match=message):
        brauer_decomposition(a5, 2)


def test_decomposition_gate_rejects_a_negative_number(monkeypatch, a5):
    # phi_2 replaced by chi_5 restricted, which is 1 + phi_2 + phi_3: the
    # ordinary character 1 + phi_2 of degree 3 is then chi_5 - phi_3.
    five = restriction_to_p_regular(a5, 4, 2)
    assert five[0][0].integer_value() == 5
    _stored_a5_table(monkeypatch, a5, lambda stored: (stored[0], five) + stored[2:])
    message = re.escape(
        f"decomposition number is not a nonnegative integer on {a5!r} at p = 2"
    )
    with pytest.raises(InternalCheckError, match=message):
        brauer_decomposition(a5, 2)


def test_brauer_count_gate(monkeypatch, s4):
    # Every restriction read as the trivial one reduces to it: one Brauer
    # character is found where S4 has two 2-regular classes.
    trivial = restriction_to_p_regular(s4, 0, 2)
    monkeypatch.setattr(modular, "restriction_to_p_regular", lambda G, i, p: trivial)
    message = re.escape(f"found 1 Brauer characters, expected 2, on {s4!r} at p = 2")
    with pytest.raises(InternalCheckError, match=message):
        brauer_decomposition(s4, 2)


def test_brauer_height_gate_fires_on_a_forged_degree(monkeypatch, s4):
    # phi_2, chi_3 restricted, lies alone in a block of defect 0.  Its
    # degree forged from 3 to 1, as a wrong stored table could give it,
    # has height -1 there; a lifted phi has its lift's degree, so only
    # stored data can do it.
    degrees, lifts, rows = brauer_decomposition(s4, 3)
    assert degrees == (1, 1, 3, 3) and rows[3] == (0, 0, 1, 0)
    assert block_data(s4, 3).blocks[1].char_indices == (3,)
    forged = ((1, 1, 1, 3), lifts, rows)
    monkeypatch.setattr(modular, "brauer_decomposition", lambda G, p: forged)
    message = re.escape(f"negative Brauer character height on {s4!r} at p = 3")
    with pytest.raises(InternalCheckError, match=message):
        modular.ModularData(block_data(s4, 3))


def test_linkage_gate_fires_on_a_forged_decomposition_number(monkeypatch, s4):
    # The blocks are {chi_0, chi_1, chi_2}, {chi_3} and {chi_4}; a 1
    # forged into row 3 at phi_0's column links chi_3 to the principal
    # block.
    degrees, lifts, rows = brauer_decomposition(s4, 3)
    blocks = [b.char_indices for b in block_data(s4, 3).blocks]
    assert blocks == [(0, 1, 2), (3,), (4,)] and rows[3] == (0, 0, 1, 0)
    forged = (degrees, lifts, rows[:3] + ((1, 0, 1, 0),) + rows[4:])
    monkeypatch.setattr(modular, "brauer_decomposition", lambda G, p: forged)
    message = re.escape(
        f"decomposition linkage disagrees with the block partition on {s4!r} at p = 3"
    )
    with pytest.raises(InternalCheckError, match=message):
        modular.ModularData(block_data(s4, 3))


def test_brauer_decomposition_matches_two_solve_oracle():
    # every prime dividing the order and one that does not; groups that
    # are not p-solvable and have no stored table raise on both routes
    cases = Counter()
    for G in oracle_groups([dihedral(23), s4_times_s4(), c2_wreath_s4()]):
        n = G.order()
        primes = list(prime_factors(n))
        primes.append(next(q for q in itertools.count(2) if is_prime(q) and n % q))
        for p in primes:
            try:
                want_ibr, want_rows = oracles.brauer_by_solves(G, p)
            except DomainError:
                with pytest.raises(DomainError):
                    brauer_decomposition(G, p)
                cases["unavailable"] += 1
                continue
            assert _ibr(G, p) == list(want_ibr), (G, p)
            assert brauer_decomposition(G, p)[2] == want_rows, (G, p)
            lifted = n % p or is_p_solvable(G, p)
            cases["lifted" if lifted else "stored"] += 1
    # A5 at 2 is stored: from the catalog and as a random subgroup of S5
    assert cases == {"lifted": 78, "stored": 2, "unavailable": 38}


def test_the_prime_is_a_mersenne_prime():
    # Lucas-Lehmer: for an odd prime n, 2^n - 1 is prime iff n - 2 steps
    # of s -> s^2 - 2 mod 2^n - 1, from s = 4, end at 0
    n = modular._PRIME.bit_length()
    assert modular._PRIME == (1 << n) - 1 and n == 521
    s = 4
    for _ in range(n - 2):
        s = (s * s - 2) % modular._PRIME
    assert s == 0


def test_a_small_prime_only_stops_the_elimination(monkeypatch):
    # Mod a prime too small for the group, columns independent over Q
    # may look dependent; a gate must then raise.  Every result that
    # passes the gates must be the one the real prime gives.
    cases = []
    for G in _catalog_and_bench_groups():
        for p in prime_factors(G.order()):
            try:
                cases.append((G, p, brauer_decomposition(G, p)))
            except DomainError:
                pass  # not p-solvable, and no stored table
    outcomes = Counter()
    for small in (2, 3, 5, 7):
        monkeypatch.setattr(modular, "_PRIME", small)
        for G, p, want in cases:
            try:
                got = brauer_decomposition(G, p)
            except InternalCheckError:
                outcomes["raised"] += 1
                continue
            assert got == want, (G, p, small)
            outcomes["matched"] += 1
    assert outcomes["raised"] and outcomes["matched"], outcomes


def test_each_brauer_character_is_its_lift_restricted():
    # Every (group, prime) with Brauer data, a prime prime to the order
    # among them.  Where G is p-solvable, row lifts[j] of the
    # decomposition matrix is the unit vector e_j, and phi_j has the
    # degree of its lift.  Everywhere, the invariants that the package
    # proves rather than gates hold (the ``Block`` and
    # ``ModularData._verify_brauer_graph`` docstrings): each block has
    # heights >= 0 with one of height 0, the dimensions sum to |G|,
    # 1 <= l(B) <= k(B), and each Brauer column is nonzero only inside
    # its own block.
    cases = Counter()
    for G in oracle_groups([]):
        n = G.order()
        primes = list(prime_factors(n))
        primes.append(next(q for q in itertools.count(2) if is_prime(q) and n % q))
        degrees = character_table(G).degrees
        for p in primes:
            try:
                md = modular.ModularData(block_data.__wrapped__(G, p))
            except DomainError:
                continue  # not p-solvable, and no stored table
            blocks = md.blockset.blocks
            assert sum(b.dim for b in blocks) == n, (G, p)
            for b in blocks:
                assert min(b.heights) == 0, (G, p, b.index)
                l = len(md.brauer_indices_of_block(b))
                assert 1 <= l <= len(b.char_indices), (G, p, b.index)
            for j, k in enumerate(md.block_of_brauer):
                rows = {i for i, row in enumerate(md.decomposition) if row[j]}
                assert rows <= set(blocks[k].char_indices), (G, p, j)
            if not is_p_solvable(G, p):
                cases["stored"] += 1
                continue
            count = len(md.brauer_degrees)
            assert len(md.lifts) == count, (G, p)
            for j, i in enumerate(md.lifts):
                unit = tuple(int(t == j) for t in range(count))
                assert md.decomposition[i] == unit, (G, p, j)
                assert md.brauer_degrees[j] == degrees[i], (G, p, j)
            cases["lifted"] += 1
    # A5 at 2 is stored: from the catalog and as a random subgroup of S5
    assert cases == {"lifted": 69, "stored": 2}


def test_brauer_heights_a5(a5):
    data = modular_data(a5, 2)
    assert data.brauer_heights == (0, 1, 1, 0)
