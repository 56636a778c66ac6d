"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion; each test also prints its own verdict line so
``pytest -s`` shows them inline.
"""

import time
from pathlib import Path

from blockforge import catalog
from blockforge.arith import p_part
from blockforge.blocks import block_data, p_regular_classes
from blockforge.chartab import character_table, is_p_solvable, p_prime_core
from blockforge.cli import main
from blockforge.correspond import (
    glauberman_correspondent,
    glauberman_instances,
    navarro_instances,
    regular_covering_instances,
    verify_sylow_normalizer_divisibility,
)
from blockforge.modular import modular_data
from blockforge.permgroup import PermutationGroup, are_conjugate_subgroups
from blockforge.perms import order as perm_order
from blockforge.report import build_report, collect_verdicts
from oracles import (
    character_degrees_common_eigenvector,
    characters,
    complex_conjugate,
    conjugate_character,
    defect_group_by_subgroup_search,
    exhaustive_ibr,
    inner_product,
    plus,
    times,
    zeta,
)

PUBLISHED_DEGREES = {
    "S4": [1, 1, 2, 3, 3],
    "A4": [1, 1, 1, 3],
    "A5": [1, 3, 3, 4, 5],
    "SL(2,3)": [1, 1, 1, 2, 2, 2, 3],
    "D8": [1, 1, 1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
}


def _catalog_groups():
    return [(ent, ent.load()) for ent in catalog.entries()]


def _catalog_pairs():
    return [
        (ent, G, p) for ent, G in _catalog_groups() for p in ent.primes
    ]


def _flatten(values, e):
    out = []
    for v in values:
        out.extend(v.lift_coords(e))
    return tuple(out)


def test_criterion_1_character_tables():
    started = time.monotonic()
    for ent, G in _catalog_groups():
        table = character_table(G)
        degrees = sorted(table.degrees)
        if ent.name in PUBLISHED_DEGREES:
            assert degrees == PUBLISHED_DEGREES[ent.name], ent.name
        oracle = character_degrees_common_eigenvector(G.element_set())
        assert degrees == oracle, ent.name
        # exact row orthogonality
        irr = characters(G)
        for i, chi in enumerate(irr):
            for j, psi in enumerate(irr):
                ip = inner_product(chi, psi)
                assert ip.integer_value() == (1 if i == j else 0), ent.name
        # exact column orthogonality
        sizes = [c.size for c in table.classes]
        for a in range(len(irr)):
            for b in range(len(irr)):
                total = plus(
                    *(times(chi.values[a], complex_conjugate(chi.values[b])) for chi in irr)
                )
                expected = G.order() // sizes[a] if a == b else 0
                assert total.integer_value() == expected, ent.name
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"character tables took {elapsed:.1f}s"
    print("criterion 1 (character tables vs oracle, orthogonality): PASS")


def test_criterion_2_block_data():
    a5 = catalog.entry("A5").load()
    bs = block_data(a5, 2)
    assert [list(B.degrees()) for B in bs.blocks] == [[1, 3, 3, 5], [4]]
    assert [B.defect for B in bs.blocks] == [2, 0]
    D = bs.blocks[0].defect_group()
    assert D.order() == 4
    assert sorted(perm_order(x) for x in D.element_set()) == [1, 2, 2, 2]

    sl23 = catalog.entry("SL(2,3)").load()
    assert [B.defect for B in block_data(sl23, 3).blocks] == [1, 1, 0]

    s4 = catalog.entry("S4").load()
    s4_blocks = block_data(s4, 2).blocks
    assert len(s4_blocks) == 1 and s4_blocks[0].defect == 3

    for ent, G, p in _catalog_pairs():
        bs = block_data(G, p)
        md = modular_data(G, p)
        # linkage via shared Brauer constituents must reproduce the
        # central-character partition
        k = len(bs.table.values)
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for j in range(len(md.brauer_degrees)):
            rows = [i for i in range(k) if md.decomposition[i][j]]
            for other in rows[1:]:
                parent[find(other)] = find(rows[0])
        components = {}
        for i in range(k):
            components.setdefault(find(i), set()).add(i)
        assert {frozenset(c) for c in components.values()} == {
            frozenset(B.char_indices) for B in bs.blocks
        }, (ent.name, p)
        # defect groups via defect classes and via the subgroup search
        # with the Brauer homomorphism agree up to conjugacy
        for B in bs.blocks:
            one = B.defect_group()
            two = defect_group_by_subgroup_search(B)
            assert one.order() == two.order() == p**B.defect
            assert are_conjugate_subgroups(G, one, two), (ent.name, p)
    print("criterion 2 (block data, cross-method agreement): PASS")


def test_criterion_3_height_zero_matchings():
    for ent, G, p in _catalog_pairs():
        report = build_report(G, p, kinds=("am",))
        records = report["blocks"]
        if is_p_solvable(G, p):
            assert collect_verdicts(report)["am"] == "pass", (ent.name, p)
            for rec in records:
                assert "irr0_matching" in rec, (ent.name, p)
                assert "ibr0_matching" in rec, (ent.name, p)
        else:
            assert (ent.name, p) == ("A5", 2)
            principal = records[0]
            assert "irr0_matching" in principal
            assert principal["ibr0_left"] == [1]
            assert principal["ibr0_right"] == [1, 1, 1]
            assert principal["ibr0_violator"]["reason"] == "size mismatch"
    print("criterion 3 (height-zero matchings, A5 expected fail): PASS")


def test_criterion_4_dimension_divisibility():
    for ent, G, p in _catalog_pairs():
        report = build_report(G, p, kinds=("dim",))
        records = report["blocks"]
        if is_p_solvable(G, p):
            assert collect_verdicts(report)["dim"] == "pass", (ent.name, p)
        for rec in records:
            assert rec["dim_p_part_divides"], (ent.name, p)
        if (ent.name, p) == ("S4", 2):
            assert records[0]["dim_B"] == 24
            assert records[0]["dim_b"] == 8
            assert records[0]["dim_divides"]
        if (ent.name, p) == ("A5", 2):
            assert records[0]["dim_B"] == 44
            assert records[0]["dim_b"] == 12
            assert not records[0]["dim_divides"]
            assert p_part(44, 2) == p_part(12, 2) == 4
    print("criterion 4 (block dimension divisibility): PASS")


def test_criterion_5_sylow_normalizer_indices():
    for name in ("S4", "SL(2,3)", "F20", "F21"):
        ent = catalog.entry(name)
        G = ent.load()
        for p in ent.primes:
            (record,) = navarro_instances(G, p, [])
            assert record["kind"] == "exhaustive"
            assert record["classes"] >= 2, (name, p)
            assert record["violations"] == 0, (name, p)

    s4 = catalog.entry("S4").load()
    for u_gens, p_gens in catalog.navarro_fixed("S4", 2):
        U = PermutationGroup(4, u_gens)
        P = PermutationGroup(4, p_gens)
        rec = verify_sylow_normalizer_divisibility(s4, 2, U, P)
        assert P.order() == 2
        assert rec["index_in_subgroup"] == 2
        assert rec["index_in_group"] == 3
        assert not rec["divides"]

    a5 = catalog.entry("A5").load()
    for u_gens, p_gens in catalog.navarro_fixed("A5", 3):
        U = PermutationGroup(5, u_gens)
        P = PermutationGroup(5, p_gens)
        assert U.order() == 12
        rec = verify_sylow_normalizer_divisibility(a5, 3, U, P)
        assert rec["index_in_subgroup"] == 4
        assert rec["index_in_group"] == 10
        assert not rec["divides"]
    print("criterion 5 (index divisibility, both counterexamples): PASS")


def test_criterion_6_regular_covering():
    wanted = {
        ("S4", 12),
        ("S4", 4),
        ("SL(2,3)", 8),
        ("A4", 4),
    }
    seen = set()
    for name in ("S4", "SL(2,3)", "A4"):
        ent = catalog.entry(name)
        G = ent.load()
        for p in ent.primes:
            for rec in regular_covering_instances(G, p):
                assert rec["verdict"] == "pass", (name, p, rec)
                assert isinstance(rec["n"], int) and rec["n"] > 0
                seen.add((name, rec["normal_order"]))
                if (name, p, rec["normal_order"]) == ("S4", 2, 12):
                    assert rec["n"] == 2
    assert wanted <= seen
    print("criterion 6 (regular character covering): PASS")


def test_criterion_7_fong_swan():
    for ent, G, p in _catalog_pairs():
        if not is_p_solvable(G, p):
            continue
        e = G.exponent()
        table = character_table(G)
        regular = p_regular_classes(G, p)

        def restricted(i):
            return _flatten((table.values[i][k] for k in regular), e)

        seen = []
        for i, d in enumerate(table.degrees):
            pair = (d, restricted(i))
            if pair not in seen:
                seen.append(pair)
        md = modular_data(G, p)
        count = len(md.brauer_degrees)
        subset = exhaustive_ibr(seen, count)
        oracle = sorted(seen[i] for i in subset)
        # each Brauer character's values are its ordinary lift's
        found = sorted(
            (d, restricted(i)) for d, i in zip(md.brauer_degrees, md.lifts)
        )
        assert found == oracle, (ent.name, p)
        for row in md.decomposition:
            assert all(d >= 0 for d in row), (ent.name, p)
    s4 = catalog.entry("S4").load()
    rows = sorted(modular_data(s4, 2).decomposition)
    assert rows == [(0, 1), (1, 0), (1, 0), (1, 1), (1, 1)]
    print("criterion 7 (Fong-Swan Brauer characters vs oracle): PASS")


def test_criterion_8_glauberman():
    for ent, G, p in _catalog_pairs():
        records = glauberman_instances(G, p)
        for rec in records:
            if not rec["hypothesis_met"]:
                continue
            # the unique-constituent gate ran without an internal error
            # and the correspondent degree divides the original
            assert rec["verdict"] == "pass", (ent.name, p)
            assert rec["theta_degree"] % rec["correspondent_degree"] == 0

    G = catalog.entry("C3wrC2").load()
    L = p_prime_core(G, 2)
    Q = PermutationGroup(6, [(3, 4, 5, 0, 1, 2)])
    diagonal = (1, 2, 0, 4, 5, 3)
    k = next(
        k
        for k, t in enumerate(characters(L))
        if all(conjugate_character(t, g) == t for g in G.generators)
        and t.values[L.class_index(diagonal)] == zeta(3, 2)
    )
    C, j = glauberman_correspondent(L, Q, k, 2)
    f = characters(C)[j]
    assert f.values[f.group.class_index(diagonal)] == times(zeta(3, 1), zeta(3, 1))
    print("criterion 8 (Glauberman correspondence): PASS")


def test_criterion_9_determinism(capsys):
    first = main(["verify", "all", "--seed", "0"])
    out_first = capsys.readouterr().out
    second = main(["verify", "all", "--seed", "0"])
    out_second = capsys.readouterr().out
    assert first == 0 and second == 0
    assert out_first == out_second
    assert out_first.endswith("overall: all verdicts as expected\n")
    data = Path(__file__).parent / "data"
    assert out_first == (data / "verify_all.txt").read_text(encoding="utf-8")
    # The JSON report also carries fields the text omits, such as the
    # Brauer side of the Glauberman lift.
    assert main(["verify", "all", "--seed", "0", "--format", "json"]) == 0
    out_json = capsys.readouterr().out
    assert out_json == (data / "verify_all.json").read_text(encoding="utf-8")
    print("criterion 9 (byte-identical repeat verification): PASS")


def test_s4xs3_verify_all_matches_golden(tmp_path):
    # Beyond the catalog: a 15-character group whose report pins every
    # "characters over theta" answer (covering, Fong's lemma,
    # Fong-Reynolds, the Glauberman lift) byte for byte.
    data = Path(__file__).parent / "data"
    out = tmp_path / "report.json"
    main(
        [
            "verify", "all", str(data / "s4xs3.grp"), "-p", "2",
            "--format", "json", "--out", str(out),
        ]
    )
    golden = data / "s4xs3_p2_verify_all.json"
    assert out.read_bytes() == golden.read_bytes()
