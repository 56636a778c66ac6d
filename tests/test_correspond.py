import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import blockforge
from blockforge import catalog, correspond, matching, permgroup
from blockforge.arith import prime_factors, vp
from blockforge.blocks import block_data
from blockforge.chartab import character_table, is_p_solvable, p_prime_core
from blockforge.correspond import (
    _brauer_degrees_over,
    _matchings,
    block_section,
    coprime_setup,
    find_good_character,
    fong_block_instances,
    fong_reynolds_instances,
    glauberman_correspondent,
    glauberman_instances,
    navarro_instances,
    question35_instances,
    regular_covering_instances,
    verify_glauberman_lifts,
    verify_sylow_normalizer_divisibility,
)
from blockforge.errors import DomainError, InternalCheckError
from blockforge.groupfile import parse_group_file
from blockforge.modular import modular_data
from blockforge.permgroup import PermutationGroup, sylow_numbers_by_class, sylow_subgroup
from blockforge.report import build_report, collect_verdicts

import oracles
from conftest import (
    alternating,
    c2_wreath_s4,
    c3_wreath_c2,
    c3_wreath_c3,
    elementary_abelian,
    frobenius20,
    oracle_groups,
    s4_times_s4,
)


def _block_section_verdicts(G, p):
    """block_section's records, and the am and dim verdicts the report
    reads off them."""
    records = block_section(G, p)
    report = build_report(G, p, kinds=("am", "dim"))
    assert report["blocks"] == records
    return records, collect_verdicts(report)


def test_block_section_s4_p2(s4):
    records, verdicts = _block_section_verdicts(s4, 2)
    assert verdicts == {"am": "pass", "dim": "pass"}
    assert len(records) == 1
    rec = records[0]
    assert rec["degrees"] == [1, 1, 2, 3, 3]
    assert rec["defect"] == 3
    assert rec["defect_group_order"] == 8
    assert rec["correspondent"]["group_order"] == 8
    assert rec["irr0_left"] == [1, 1, 3, 3]
    assert rec["irr0_right"] == [1, 1, 1, 1]
    assert sorted(map(tuple, rec["irr0_matching"])) == [
        (1, 1), (1, 1), (3, 1), (3, 1),
    ]
    assert rec["ibr0_left"] == [1]
    assert rec["ibr0_right"] == [1]
    assert rec["dim_B"] == 24
    assert rec["dim_b"] == 8
    assert rec["dim_divides"] and rec["dim_p_part_divides"]


def test_block_section_a5_p2(a5):
    records, verdicts = _block_section_verdicts(a5, 2)
    assert verdicts == {"am": "fail", "dim": "fail"}
    principal, small = records
    # the ordinary height-zero sets still admit a matching; the failure
    # is on the Brauer side, where the counts differ
    assert principal["irr0_left"] == [1, 3, 3, 5]
    assert principal["irr0_right"] == [1, 1, 1, 3]
    assert "irr0_matching" in principal
    assert principal["ibr0_left"] == [1]
    assert principal["ibr0_right"] == [1, 1, 1]
    assert principal["ibr0_violator"] == {
        "side": "right",
        "degrees": [1, 1, 1],
        "reason": "size mismatch",
    }
    assert principal["dim_B"] == 44
    assert principal["dim_b"] == 12
    assert not principal["dim_divides"]
    assert principal["dim_p_part_divides"]
    assert small["defect"] == 0
    assert small["correspondent"]["group_order"] == 60
    assert small["dim_B"] == 16 and small["dim_b"] == 16


def test_block_section_sl23_p3(sl23):
    records, verdicts = _block_section_verdicts(sl23, 3)
    assert verdicts == {"am": "pass", "dim": "pass"}
    assert [rec["degrees"] for rec in records] == [
        [1, 1, 1], [2, 2, 2], [3],
    ]
    assert [rec["correspondent"]["group_order"] for rec in records] == [
        6, 6, 24,
    ]
    assert [rec["correspondent"]["degrees"] for rec in records] == [
        [1, 1, 1], [1, 1, 1], [3],
    ]
    assert [rec["ibr0_left"] for rec in records] == [[1], [2], [3]]
    assert [rec["ibr0_right"] for rec in records] == [[1], [1], [3]]
    assert [rec["dim_b"] for rec in records] == [3, 3, 9]


def test_block_section_asks_no_correspondent_for_brauer_data_g_lacks(
    monkeypatch, a5
):
    # A5 at 5 has no Brauer character data: it is not 5-solvable and no
    # table is stored.  Modular data is asked for A5 alone, never for a
    # block's correspondent, and every record says unavailable.
    calls = []
    real = correspond.modular_data

    def counted(H, p):
        calls.append((H.order(), p))
        return real(H, p)

    monkeypatch.setattr(correspond, "modular_data", counted)
    records = block_section(a5, 5)
    assert calls == [(60, 5)]
    assert len(records) == 2
    for rec in records:
        assert rec["ibr0_left"] is None and rec["ibr0_right"] is None
        assert rec["ibr0_unavailable"] == "no Brauer character data"


def test_coprime_setup_prefers_sylow_when_product_normal(s4, sl23):
    L, Q = coprime_setup(s4, 3)
    assert L.order() == 4 and Q.order() == 3
    L, Q = coprime_setup(sl23, 3)
    assert L.order() == 8 and Q.order() == 3
    # Sylow 2-subgroup of S4 is not normal over the trivial odd core,
    # so the setup falls back to the 2-core
    L, Q = coprime_setup(s4, 2)
    assert L.order() == 1 and Q.order() == 4


def test_glauberman_s4_p3(s4):
    records = glauberman_instances(s4, 3)
    assert len(records) == 4
    met = [r for r in records if r["hypothesis_met"]]
    assert len(met) == 1
    rec = met[0]
    assert rec["theta_degree"] == 1
    assert rec["ordinary_left"] == [1, 1, 2]
    assert rec["ordinary_right"] == [1, 1, 2]
    assert rec["brauer_left"] == [1, 1]
    assert rec["brauer_right"] == [1, 1]
    assert rec["verdict"] == "pass"
    for rec in records:
        if not rec["hypothesis_met"]:
            assert rec["verdict"] == "hypothesis not met"
            assert rec["reason"] == "character is not invariant"


def test_glauberman_sl23_p3(sl23):
    records = glauberman_instances(sl23, 3)
    met = [r for r in records if r["hypothesis_met"]]
    assert len(met) == 2 and len(records) == 5
    by_degree = {r["theta_degree"]: r for r in met}
    assert by_degree[1]["ordinary_left"] == [1, 1, 1]
    assert by_degree[2]["ordinary_left"] == [2, 2, 2]
    assert by_degree[2]["ordinary_right"] == [1, 1, 1]
    assert by_degree[2]["correspondent_degree"] == 1
    assert all(r["verdict"] == "pass" for r in met)


def test_glauberman_a5_p2_vacuous(a5):
    # trivial odd core and trivial 2-core give the identity instance
    records = glauberman_instances(a5, 2)
    assert len(records) == 1
    rec = records[0]
    assert rec["l_order"] == 1 and rec["q_order"] == 1
    assert rec["ordinary_left"] == [1, 3, 3, 4, 5]
    assert rec["ordinary_right"] == [1, 3, 3, 4, 5]
    assert "brauer_left" not in rec
    assert rec["verdict"] == "pass"


def test_glauberman_wreath_correspondent_value():
    G = c3_wreath_c2()
    L = p_prime_core(G, 2)
    assert L.order() == 9
    Q = PermutationGroup(6, [(3, 4, 5, 0, 1, 2)])
    diagonal = (1, 2, 0, 4, 5, 3)
    invariant = [
        theta
        for theta in oracles.characters(L)
        if all(oracles.conjugate_character(theta, g) == theta for g in G.generators)
    ]
    assert len(invariant) == 3
    want = [
        theta
        for theta in invariant
        if theta.values[L.class_index(diagonal)] == oracles.zeta(3, 2)
    ]
    assert len(want) == 1
    theta = want[0]
    k = oracles.characters(L).index(theta)
    C, j = glauberman_correspondent(L, Q, k, 2)
    f = oracles.characters(C)[j]
    assert f.group.order() == 3
    assert character_table(C).degrees[j] == 1
    # the correspondent of a product character is the square: its value
    # at the diagonal generator is the factor value squared
    value = f.values[f.group.class_index(diagonal)]
    assert value == oracles.times(oracles.zeta(3, 1), oracles.zeta(3, 1))
    assert value == theta.values[L.class_index(diagonal)]


def test_glauberman_wreath_instances():
    G = c3_wreath_c2()
    records = glauberman_instances(G, 2)
    met = [r for r in records if r["hypothesis_met"]]
    assert len(met) == 3 and len(records) == 9
    assert all(r["verdict"] == "pass" for r in met)
    assert all(r["counts_equal"] for r in met)


def test_glauberman_frobenius20():
    G = frobenius20()
    records = glauberman_instances(G, 2)
    met = [r for r in records if r["hypothesis_met"]]
    assert len(met) == 1 and len(records) == 5
    assert met[0]["ordinary_left"] == [1, 1, 1, 1]
    assert met[0]["verdict"] == "pass"


def test_glauberman_correspondent_uniqueness_gates(monkeypatch, s4):
    V4 = PermutationGroup(4, [(1, 0, 3, 2), (3, 2, 1, 0)])
    C3 = PermutationGroup(4, [(1, 2, 0, 3)])
    C, j = glauberman_correspondent(V4, C3, 0, 3)
    assert character_table(C).degrees[j] == 1
    with pytest.raises(DomainError):
        glauberman_correspondent(V4, C3, 0, 2)  # C3 is not a 2-group
    with pytest.raises(DomainError):
        # non-coprime action
        glauberman_correspondent(V4, PermutationGroup(4, [(1, 0, 3, 2)]), 0, 2)
    # S3 on points 0-2 and C5 on points 3-7 commute, so C = C_L(Q) is L
    # itself and theta = 1 restricts to itself.  Its restriction row is
    # forged to two constituents prime to 5, then to the one constituent
    # of degree 2, which does not divide theta(1) = 1.
    L = PermutationGroup(8, [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 0, 3, 4, 5, 6, 7)])
    C5 = PermutationGroup(8, [(0, 1, 2, 4, 5, 6, 7, 3)])
    assert character_table(L).degrees == (1, 1, 2)
    forgeries = (
        ((1, 1, 0), "expected one constituent of multiplicity prime to 5, found 2,"),
        ((0, 0, 1), "correspondent degree does not divide the original degree"),
    )
    for row, message in forgeries:
        monkeypatch.setattr(
            correspond, "restriction_multiplicities", lambda G, H, row=row: (row,)
        )
        message = re.escape(f"{message} on {L!r} at p = 5")
        with pytest.raises(InternalCheckError, match=message):
            glauberman_correspondent(L, C5, 0, 5)


def test_glauberman_entry_points_reject_a_non_prime(s4):
    # vp looped forever at p = 1 and divided by zero at p = 0
    V4 = PermutationGroup(4, [(1, 0, 3, 2), (3, 2, 1, 0)])
    C3 = PermutationGroup(4, [(1, 2, 0, 3)])
    for p in (0, 1, 4):
        with pytest.raises(DomainError, match=f"{p} is not prime"):
            glauberman_correspondent(V4, C3, 0, p)
        with pytest.raises(DomainError, match=f"{p} is not prime"):
            verify_glauberman_lifts(s4, V4, C3, p)
    for p in (-2, 0, 1):
        with pytest.raises(ValueError, match="undefined"):
            vp(12, p)


def test_glauberman_lift_rejects_p_divisible_core(s4):
    V4 = PermutationGroup(4, [(1, 0, 3, 2), (3, 2, 1, 0)])
    with pytest.raises(DomainError):
        verify_glauberman_lifts(s4, V4, sylow_subgroup(s4, 2), 2)


def test_brauer_restriction_gates(s4):
    md = modular_data(s4, 3)
    V4 = p_prime_core(s4, 3)
    assert _brauer_degrees_over(md, V4, 0) == [1, 1]


def test_brauer_restriction_lift_gate(s4):
    # phi_0 forged to have no ordinary lift, as a stored Brauer
    # character has none.
    md = modular_data(s4, 3)
    assert md.lifts[0] is not None
    forged = SimpleNamespace(
        group=md.group,
        prime=md.prime,
        brauer_degrees=md.brauer_degrees,
        lifts=(None,) + md.lifts[1:],
    )
    V4 = p_prime_core(s4, 3)
    message = re.escape(f"Brauer character 0 of {s4!r} at p = 3")
    with pytest.raises(InternalCheckError, match=message):
        _brauer_degrees_over(forged, V4, 0)


def test_brauer_restrictions_match_oracle_on_catalog():
    # Every p-solvable catalog (group, prime): the ordinary-lift route
    # and the direct restriction of the Brauer values agree on every
    # irreducible of the p'-core.
    checked = 0
    for ent in catalog.entries():
        G = ent.load()
        for p in ent.primes:
            if not is_p_solvable(G, p):
                continue
            md = modular_data(G, p)
            ibr, _ = oracles.brauer_by_solves(G, p)
            K = p_prime_core(G, p)
            for k, theta in enumerate(oracles.characters(K)):
                want = oracles.brauer_degrees_over(G, p, ibr, theta)
                assert _brauer_degrees_over(md, K, k) == want
                checked += K.order() > 1
    assert checked


def test_navarro_fixed_s4(s4):
    U = PermutationGroup(4, [(1, 2, 3, 0), (1, 0, 3, 2)])
    P = PermutationGroup(4, [(1, 0, 3, 2)])
    rec = verify_sylow_normalizer_divisibility(s4, 2, U, P)
    assert not rec["hypothesis_met"]
    assert rec["reasons"] == [
        "intersection is not a Sylow p-subgroup of U",
        "P is not a Sylow p-subgroup of G",
    ]
    assert rec["index_in_subgroup"] == 2
    assert rec["index_in_group"] == 3
    assert not rec["divides"]
    assert rec["verdict"] == "hypothesis not met"


def test_navarro_fixed_a5(a5):
    U = alternating(4)
    U = PermutationGroup(5, [g + (4,) for g in U.generators])
    P = PermutationGroup(5, [(1, 2, 0, 3, 4)])
    rec = verify_sylow_normalizer_divisibility(a5, 3, U, P)
    assert not rec["hypothesis_met"]
    assert rec["reasons"] == ["group is not p-solvable"]
    assert rec["index_in_subgroup"] == 4
    assert rec["index_in_group"] == 10
    assert not rec["divides"]


def test_navarro_hypothesis_met_divides(s4):
    # the Klein four group sits inside every Sylow 2-subgroup
    U = PermutationGroup(4, [(1, 0, 3, 2), (3, 2, 1, 0)])
    P = sylow_subgroup(s4, 2)
    rec = verify_sylow_normalizer_divisibility(s4, 2, U, P)
    assert rec["hypothesis_met"]
    assert rec["index_in_subgroup"] == 1
    assert rec["index_in_group"] == 3
    assert rec["divides"]
    assert rec["verdict"] == "pass"


def test_navarro_exhaustive_s4(s4):
    records = navarro_instances(s4, 2, [])
    assert records == navarro_instances(s4, 2, [])
    assert records == [
        {
            "kind": "exhaustive",
            "classes": 9,
            "sylow_number": 3,
            "violations": 0,
            "verdict": "pass",
        }
    ]


def test_navarro_sampling_skipped_for_non_solvable(a5):
    records = navarro_instances(a5, 2, [])
    assert records == []


def _s4xs3():
    return parse_group_file(Path(__file__).parent / "data" / "s4xs3.grp")


def test_navarro_classes_match_subgroup_oracle():
    # every p-solvable catalog job, the fixed instances' extra primes and
    # C3 wr C3, a 3-group where every subgroup is 3-generated
    cases = [(c3_wreath_c3(), 3)]
    for ent in catalog.entries():
        G = ent.load()
        for p in ent.primes + tuple(catalog.navarro_extra_primes(ent.name)):
            if is_p_solvable(G, p):
                cases.append((G, p))
    assert len(cases) == 17
    for G, p in cases:
        index_big, pairs = sylow_numbers_by_class(G, p)
        want = oracles.navarro_classes_by_subgroups(G, p)
        assert (sorted(pairs), index_big) == want, (G, p)
        assert navarro_instances(G, p, [])[0]["classes"] == len(pairs)


def test_navarro_class_counts():
    # classes of p-generated subgroups, the trivial one included
    s4xs3, s4xs4, c2wrs4 = _s4xs3(), s4_times_s4(), c2_wreath_s4()
    cases = [
        (s4xs3, 2, 51),
        (s4xs3, 3, 8),
        (c3_wreath_c3(), 3, 20),
        (s4xs4, 2, 229),
        (s4xs4, 3, 14),
        (c2wrs4, 2, 178),
        (c2wrs4, 3, 6),
        (elementary_abelian(2, 5), 2, 374),
    ]
    for G, p, classes in cases:
        (rec,) = navarro_instances(G, p, [])
        assert rec["kind"] == "exhaustive"
        assert rec["classes"] == classes, (G, p)
        assert rec["violations"] == 0 and rec["verdict"] == "pass", (G, p)
    # every U of C2^5 is its own class: the 374 subgroups of GF(2)^5
    assert rec["sylow_number"] == 1


def test_navarro_violations_on_forged_sylow_number(monkeypatch):
    # p-solvable groups never violate, so n_p(G) is forged to m: each
    # class whose n_p(U) does not divide m gives one violation record,
    # with the class's order and that non-dividing pair
    cases = [
        (_s4xs3(), 2),
        (_s4xs3(), 3),
        (catalog.entry("S4").load(), 2),
        (c2_wreath_s4(), 3),
        (s4_times_s4(), 3),
    ]
    cases = [(G, p, sylow_numbers_by_class(G, p)[1]) for G, p in cases]
    for m in (1, 2, 3, 4):
        for G, p, pairs in cases:
            monkeypatch.setattr(
                correspond, "sylow_numbers_by_class", lambda G, p: (m, pairs)
            )
            head, *violations = navarro_instances(G, p, [])
            want = [(order, n) for order, n in pairs if m % n]
            assert head["sylow_number"] == m
            assert head["violations"] == len(want) == len(violations), (m, p)
            assert head["verdict"] == ("fail" if want else "pass")
            for rec, (order, n) in zip(violations, want):
                assert rec == {
                    "kind": "violation",
                    "subgroup_order": order,
                    "index_in_subgroup": n,
                    "index_in_group": m,
                    "verdict": "fail",
                }
                assert isinstance(n, int) and m % n
            assert m > 1 or want


def test_navarro_sylow_number_gate(s4, monkeypatch):
    # n_p(G) is counted twice: as the orbit of one Sylow subgroup and as
    # |G : N_G(P)|; a forged normalizer of order 6, index 4, fires the gate
    s3 = PermutationGroup(4, [(1, 0, 2, 3), (1, 2, 0, 3)])
    monkeypatch.setattr(permgroup, "normalizer", lambda G, H: s3)
    with pytest.raises(InternalCheckError, match="S4.* at p = 2"):
        navarro_instances(s4, 2, [])


def test_regular_covering_s4_p2(s4):
    records = regular_covering_instances(s4, 2)
    assert [r["normal_order"] for r in records] == [1, 4, 12, 24]
    assert [r["n"] for r in records] == [24, 6, 2, 1]
    assert all(r["verdict"] == "pass" for r in records)
    assert all(r["dim_divides"] for r in records)


def test_regular_covering_s4_p3(s4):
    records = regular_covering_instances(s4, 3)
    by_normal = {}
    for r in records:
        by_normal.setdefault(r["normal_order"], []).append(r)
    assert [r["n"] for r in by_normal[4]] == [6, 3, 3]
    assert [r["covered_blocks"] for r in by_normal[4]] == [1, 3, 3]
    assert [r["n"] for r in by_normal[12]] == [2, 1, 1]
    assert all(r["verdict"] == "pass" for r in records)


def test_regular_covering_sl23_q8(sl23):
    records = regular_covering_instances(sl23, 3)
    over_q8 = [r for r in records if r["normal_order"] == 8]
    assert [r["n"] for r in over_q8] == [3, 3, 3]
    assert [r["covered_blocks"] for r in over_q8] == [1, 1, 3]
    assert all(r["verdict"] == "pass" for r in records)


def test_fong_block_sl23_p3(sl23):
    records = fong_block_instances(sl23, 3)
    assert [r["theta_degree"] for r in records] == [1, 2]
    assert all(r["is_one_block"] for r in records)
    assert all(r["sylow_defect"] for r in records)
    assert all(r["verdict"] == "pass" for r in records)


def test_fong_block_s4(s4):
    for p, expected_rows in ((2, 1), (3, 1)):
        records = fong_block_instances(s4, p)
        assert len(records) == expected_rows
        assert all(r["verdict"] == "pass" for r in records)


def test_fong_reynolds_sl23_p3(sl23):
    records = fong_reynolds_instances(sl23, 3)
    assert [r["inertia_index"] for r in records] == [1, 1, 3]
    assert [r["theta_degree"] for r in records] == [1, 2, 1]
    assert [r["characters"] for r in records] == [3, 3, 1]
    assert all(r["verdict"] == "pass" for r in records)


def test_fong_reynolds_s4_p3(s4):
    records = fong_reynolds_instances(s4, 3)
    assert [r["inertia_index"] for r in records] == [1, 3, 3]
    assert all(r["bijective"] for r in records)
    assert all(r["heights_preserved"] for r in records)
    assert all(r["defect_preserved"] for r in records)
    assert all(r["verdict"] == "pass" for r in records)


def test_good_character_gate_names_group_prime_and_block(s4, monkeypatch):
    # With every Fong-Reynolds check forced to fail, no constituent of
    # the principal block's restriction to the 3'-core is good.
    monkeypatch.setattr(
        correspond, "verify_fong_reynolds", lambda B, L, k: {"verdict": "fail"}
    )
    B = block_data(s4, 3).blocks[0]
    message = re.escape(
        f"no good character over the p'-core on {s4!r} at p = 3, block 0"
    )
    with pytest.raises(InternalCheckError, match=message):
        find_good_character(B, p_prime_core(s4, 3))


def test_fong_reynolds_record_is_computed_once(s4, monkeypatch):
    # Each block's record is the one find_good_character passed: no
    # candidate is verified a second time.
    calls = []
    verify = correspond.verify_fong_reynolds

    def counted(B, L, k):
        calls.append(B.index)
        return verify(B, L, k)

    monkeypatch.setattr(correspond, "verify_fong_reynolds", counted)
    records = fong_reynolds_instances(s4, 3)
    tried = len(calls)
    calls.clear()
    K = p_prime_core(s4, 3)
    for B, rec in zip(block_data(s4, 3).blocks, records):
        k, outcome = find_good_character(B, K)
        assert rec == {"block": B.index, **outcome}
        assert outcome["theta_degree"] == character_table(K).degrees[k]
    assert len(calls) == tried


def test_question35_s4_p2(s4):
    records = question35_instances(s4, 2)
    assert len(records) == 1
    rec = records[0]
    assert rec["result"] == "found"
    assert rec["brauer_witness"] == [[1, 1]]


def test_question35_sl23_p3(sl23):
    records = question35_instances(sl23, 3)
    assert [r["result"] for r in records] == ["found", "found", "found"]
    assert records[1]["ordinary_witness"] == [[2, 1], [2, 1], [2, 1]]
    assert records[2]["ordinary_witness"] == [[3, 3]]


def test_question35_skips_non_solvable(a5):
    records = question35_instances(a5, 2)
    assert records == [{"result": "skipped", "reason": "group is not p-solvable"}]


def test_perfect_matchings_enumeration():
    assert list(_matchings([2, 2], [1, 2])) == [(0, 1), (1, 0)]
    assert list(_matchings([3], [2])) == []
    assert len(list(_matchings([1, 1, 1], [1, 1, 1]))) == 6


def test_question35_agrees_with_pair_search():
    # The reference walks every ordinary matching against every Brauer
    # one; blocks with more pairs than its cap are left out.
    compared = 0
    for G in oracle_groups([]):
        for p in prime_factors(G.order()):
            if not is_p_solvable(G, p):
                continue
            records = question35_instances(G, p)
            wants = oracles.question35_by_pairs(G, p, 10**5)
            assert len(records) == len(wants)
            for rec, want in zip(records, wants):
                if want is None:
                    continue
                keys = ("result", "ordinary_witness", "brauer_witness")
                assert {k: rec[k] for k in keys if k in rec} == want, (G.name, p)
                compared += 1
    assert compared >= 50


def test_question35_s4xs4_p2_found():
    # more than 10^6 ordinary height-zero matchings, one Brauer matching
    (rec,) = question35_instances(s4_times_s4(), 2)
    assert rec["result"] == "found"
    assert rec["brauer_witness"] == [[1, 1]]


def _forge_correspondent_rows(monkeypatch, G, forge):
    """Replace the decomposition matrix D_b of each correspondent of a
    block of G that lives on a proper subgroup by forge(D_b), for the
    package and for the pair-search oracle, and forbid the Hall-violator
    scan."""
    real = correspond.modular_data

    def forged(H, q):
        md = real(H, q)
        if H.order() == G.order():
            return md
        return SimpleNamespace(
            decomposition=forge(md.decomposition),
            height_zero_brauer=md.height_zero_brauer,
            height_zero_brauer_degrees=md.height_zero_brauer_degrees,
            brauer_degrees=md.brauer_degrees,
        )

    def no_violator(*args):
        raise AssertionError("question 3.5 scanned for a Hall violator")

    monkeypatch.setattr(correspond, "modular_data", forged)
    monkeypatch.setattr(oracles, "modular_data", forged)
    monkeypatch.setattr(matching, "_hall_violator", no_violator)


def _sevens(decomposition):
    # no row of D_B can equal a row of 7s
    return [[7] * len(row) for row in decomposition]


def _rotated(decomposition):
    # S3's rows (1, 0), (0, 1), (1, 1) for degrees 1, 1, 2 become
    # (1, 1), (1, 0), (0, 1): every row of S4's block still has an equal
    # row, but under either Brauer matching one of them sits on degree 2,
    # which does not divide the degree 1 of its only partner
    return decomposition[-1:] + decomposition[:-1]


@pytest.mark.parametrize("forge", [_sevens, _rotated], ids=["sevens", "rotated"])
def test_question35_none_when_no_brauer_matching_admits_one(monkeypatch, s4, forge):
    # S4 at 3: block 0 has Brauer degrees [1, 1] on both sides, so two
    # Brauer matchings, and its correspondent lives on S3.
    _forge_correspondent_rows(monkeypatch, s4, forge)
    rec = question35_instances(s4, 3)[0]
    assert rec == {"block": 0, "result": "none"}
    assert oracles.question35_by_pairs(s4, 3, 10**5)[0] == {"result": "none"}


def test_question35_inconclusive_past_the_brauer_matching_cap(monkeypatch, s4):
    _forge_correspondent_rows(monkeypatch, s4, _sevens)
    monkeypatch.setattr(correspond, "BRAUER_MATCHING_CAP", 1)
    rec = question35_instances(s4, 3)[0]
    assert rec["result"] == "inconclusive"
    assert rec["reason"] == "Brauer matchings exceed the cap"
    # two Brauer matchings and a cap of two: both are tried, so none
    monkeypatch.setattr(correspond, "BRAUER_MATCHING_CAP", 2)
    assert question35_instances(s4, 3)[0]["result"] == "none"


_Q35_C2_4 = """
import json
from blockforge.correspond import question35_instances
from blockforge.permgroup import PermutationGroup
gens = [(1, 0, 2, 3, 4, 5, 6, 7), (0, 1, 3, 2, 4, 5, 6, 7),
        (0, 1, 2, 3, 5, 4, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6)]
G = PermutationGroup(8, gens, name="C2^4")
print(json.dumps(question35_instances(G, 2)))
# the child's own peak resident set, in kB
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def test_question35_counts_matchings_without_storing_them():
    # C2^4 at p = 2 has 16! ordinary height-zero matchings and one Brauer
    # matching; the search walks the Brauer side and matches the
    # ordinary side once, storing neither set.  Run in a child process
    # that reports its own peak RSS (VmHWM).  The rusage of a child
    # would not do: a forked child starts with the parent's high-water
    # mark, so it would read the peak of the test process.
    src = str(Path(blockforge.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _Q35_C2_4],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    out, peak_kb = done.stdout.splitlines()
    (record,) = json.loads(out)
    assert record["result"] == "found"
    assert record["brauer_witness"] == [[1, 1]]
    assert int(peak_kb) / 1024 < 60


def test_matching_gate_names_group_prime_and_block(monkeypatch, s4):
    # every matched pair collapsed onto the first: the bijection gate
    # fires inside block_section, on S4's only 2-block
    check = matching._check_matching
    monkeypatch.setattr(
        matching,
        "_check_matching",
        lambda left, right, pairs, where: check(
            left, right, (pairs[0],) * len(pairs), where
        ),
    )
    message = re.escape(
        f"matching of irr0 degrees on {s4!r} at p = 2, block 0 is not a bijection"
    )
    with pytest.raises(InternalCheckError, match=message):
        block_section(s4, 2)
