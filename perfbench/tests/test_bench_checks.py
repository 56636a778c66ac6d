"""The benchmark's own output checkers."""

import checks
import workloads


def _block(**fields):
    rec = {
        "id": 0,
        "degrees": [1, 1],
        "dim_B": 2,
        "dim_b": 2,
        "dim_divides": True,
        "dim_p_part_divides": True,
        "correspondent": {"degrees": [1, 1]},
        "irr0_left": [1, 1],
        "irr0_right": [1, 1],
        "irr0_matching": [[1, 1], [1, 1]],
        "ibr0_left": [1],
        "ibr0_right": [1],
        "ibr0_matching": [[1, 1]],
    }
    rec.update(fields)
    return rec


def _report(blocks, order=2, p=2):
    return {"group": "C2", "order": order, "prime": p, "blocks": blocks, "propositions": {}}


def test_forged_non_dividing_matching_is_caught():
    rec = {"irr0_left": [4, 6], "irr0_right": [2, 4], "irr0_matching": [[4, 4], [6, 4]]}
    problems = checks.matching_problems(rec)
    assert any("non-divisor" in msg for msg in problems)
    assert any("does not cover irr0_right" in msg for msg in problems)


def test_genuine_matching_passes():
    rec = {"irr0_left": [4, 6], "irr0_right": [2, 4], "irr0_matching": [[4, 4], [6, 2]]}
    assert checks.matching_problems(rec) == []


def test_matching_that_skips_a_degree_is_caught():
    rec = {"irr0_left": [4, 6], "irr0_right": [2, 2], "irr0_matching": [[4, 2], [4, 2]]}
    assert any("does not cover irr0_left" in msg for msg in checks.matching_problems(rec))


def test_violators_are_rechecked():
    genuine = {"side": "right", "degrees": [1, 1, 1], "reason": "size mismatch"}
    assert checks.violator_holds([1], [1, 1, 1], genuine)
    invented = {"side": "left", "degrees": [4], "reason": "hall violator"}
    assert not checks.violator_holds([4, 6], [2, 3], invented)
    rec = {"ibr0_left": [4, 6], "ibr0_right": [2, 3], "ibr0_violator": invented}
    assert checks.violator_problems(rec)


def test_unwitnessed_fail_is_counted():
    block = _block(ibr0_left=None, ibr0_right=None, ibr0_unavailable="no Brauer character data")
    del block["ibr0_matching"]
    report = _report([block])
    assert checks.report_problems(report, [1, 1]) == []
    assert checks.uncertified_fails(report, {"am": "fail", "dim": "pass"}) == ["am"]


def test_fail_with_violator_is_certified():
    block = _block(
        ibr0_left=[1],
        ibr0_right=[1, 1, 1],
        ibr0_violator={"side": "right", "degrees": [1, 1, 1], "reason": "size mismatch"},
    )
    del block["ibr0_matching"]
    report = _report([block])
    assert checks.report_problems(report, [1, 1]) == []
    assert checks.uncertified_fails(report, {"am": "fail"}) == []


def test_dim_fail_is_certified_by_arithmetic():
    block = _block(degrees=[1, 2], dim_B=5, dim_b=2, correspondent={"degrees": [1, 1]},
                   dim_divides=False)
    report = _report([block], order=5, p=5)
    assert checks.report_problems(report, [1, 2]) == []
    assert checks.uncertified_fails(report, {"dim": "fail"}) == []


def test_false_divisibility_claim_is_caught():
    block = _block(degrees=[1, 2], dim_B=5, dim_b=2, correspondent={"degrees": [1, 1]})
    report = _report([block], order=5, p=5)
    assert any("dim_divides is wrong" in msg for msg in checks.report_problems(report, [1, 2]))


def test_wrong_degrees_and_dimensions_are_caught():
    report = _report([_block()], order=4)
    problems = checks.report_problems(report, [1, 1, 1, 1])
    assert any("differ" in msg for msg in problems)
    assert any("sum of dim_B" in msg for msg in problems)


def test_sampled_navarro_fail_is_uncertified():
    report = _report([])
    report["propositions"] = {"navarro": [{"kind": "sampled", "violations": 1, "verdict": "fail"}]}
    assert checks.uncertified_fails(report, {"navarro": "fail"}) == ["navarro"]
    report["propositions"]["navarro"].append(
        {"kind": "fixed", "index_in_group": 3, "index_in_subgroup": 2, "divides": False,
         "verdict": "fail"}
    )
    assert checks.report_problems(report, []) == []
    assert checks.uncertified_fails(report, {"navarro": "fail"}) == []


def test_unexpected_verdicts_follow_the_catalog():
    assert checks.unexpected_verdicts({"am": "fail", "dim": "pass"}, ("am", "dim")) == [
        "dim: pass (expected fail)"
    ]
    assert checks.unexpected_verdicts({"am": "unavailable"}, ()) == []


def test_table_degrees_are_checked():
    payload = {
        "order": 6,
        "classes": [
            {"size": 1, "element_order": 1},
            {"size": 3, "element_order": 2},
            {"size": 2, "element_order": 3},
        ],
        "irreducibles": [["1", "1", "1"], ["1", "-1", "1"], ["2", "0", "-1"]],
    }
    assert checks.table_problems(payload, [1, 1, 2]) == []
    assert checks.table_problems(payload, [1, 1, 1])


def test_published_degrees_square_sum_to_the_order():
    orders = {g["name"]: g["order"] for g in workloads.catalog_index()["groups"]}
    orders.update({label: workloads.stated_order(workloads.group_path(label))
                   for label in workloads.BENCH_GROUPS})
    assert set(orders) == set(workloads.PUBLISHED_DEGREES)
    for label, degrees in workloads.PUBLISHED_DEGREES.items():
        assert sum(d * d for d in degrees) == orders[label], label


def test_real_reports_pass_the_checks():
    from blockforge import build_report, collect_verdicts
    from blockforge.catalog import entry

    ent = entry("S4")
    report = build_report(ent.load(), 3, name="S4", kinds=("am", "dim", "navarro"))
    verdicts = collect_verdicts(report)
    assert checks.report_problems(report, workloads.PUBLISHED_DEGREES["S4"]) == []
    assert checks.uncertified_fails(report, verdicts) == []
    assert verdicts["am"] == "pass"
