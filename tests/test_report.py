import hashlib
import json
from pathlib import Path

import pytest

from blockforge import catalog, clear_caches, report
from blockforge.cli import main
from blockforge.errors import DomainError
from blockforge.groupfile import parse_group_file
from blockforge.permgroup import PermutationGroup
from blockforge.report import (
    KINDS,
    SECTIONS,
    build_report,
    collect_verdicts,
    to_json,
    to_text,
)

from conftest import c2_wreath_s4, s4_times_s4, symmetric


def test_schema_key_order(s4):
    rep = build_report(s4, 2, name="S4")
    assert list(rep.keys()) == [
        "group",
        "order",
        "prime",
        "p_solvable",
        "blocks",
        "propositions",
        "elapsed_ms",
    ]
    assert list(rep["propositions"].keys()) == [
        "glauberman",
        "navarro",
        "regular_covering",
        "fong_block",
        "fong_reynolds",
        "question35",
    ]
    assert rep["group"] == "S4"
    assert rep["order"] == 24
    assert rep["p_solvable"] is True


def test_elapsed_defaults_to_null(s4):
    rep = build_report(s4, 3)
    assert rep["elapsed_ms"] is None
    timed = build_report(s4, 3, timings=True)
    assert isinstance(timed["elapsed_ms"], int)


def test_unrequested_kinds_are_empty(s4):
    rep = build_report(s4, 2, kinds=("am",))
    assert rep["blocks"]
    assert all(not v for v in rep["propositions"].values())
    rep = build_report(s4, 2, kinds=("glauberman",))
    assert rep["blocks"] == []
    assert rep["propositions"]["glauberman"]
    assert rep["propositions"]["navarro"] == []


def test_unknown_kind_is_rejected(s4):
    with pytest.raises(DomainError, match="'amm'") as err:
        build_report(s4, 2, kinds=("am", "amm"))
    assert ", ".join(KINDS) in str(err.value)


def test_string_kinds_are_rejected(s4):
    # a string would be read one letter at a time, as the kind 'a'
    with pytest.raises(DomainError, match="not the string 'am'") as err:
        build_report(s4, 2, kinds="am")
    assert ", ".join(KINDS) in str(err.value)


@pytest.mark.parametrize(
    "kinds", [KINDS, ("navarro",), ()], ids=["all", "navarro", "none"]
)
@pytest.mark.parametrize("p", [4, 1, 0, -3, 2.0, True, "2"], ids=repr)
def test_non_prime_p_is_rejected_before_any_section(s4, p, kinds):
    # p is checked before any layer sees it: a float or a string would
    # reach the group layer as a TypeError, and each layer words its own
    # rejection of a non-prime int
    with pytest.raises(DomainError) as err:
        build_report(s4, p, kinds=kinds)
    assert str(err.value) == f"{p!r} is not prime"


KIND_RECORDS = {
    "am": {"blocks"},
    "dim": {"blocks"},
    "glauberman": {"glauberman"},
    "navarro": {"navarro"},
    "regular": {"regular_covering"},
    "fong": {"fong_block", "fong_reynolds"},
    "q35": {"question35"},
}


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_fills_only_its_records(s4, kind):
    rep = build_report(s4, 2, kinds=(kind,))
    lists = {"blocks": rep["blocks"], **rep["propositions"]}
    assert {key for key, recs in lists.items() if recs} == KIND_RECORDS[kind]
    # am and dim both read the block records, so a report holding them
    # carries both verdicts; the CLI counts only the requested kinds.
    expected = {"am": {"am", "dim"}, "dim": {"am", "dim"}, "q35": set()}
    assert set(collect_verdicts(rep)) == expected.get(kind, {kind})
    # the report alone stamps each proposition record with its job
    for key, recs in rep["propositions"].items():
        for rec in recs:
            assert list(rec)[:2] == ["group", "prime"], (key, rec)
            assert (rec["group"], rec["prime"]) == ("S4", 2), (key, rec)


def test_verifiers_return_records_without_job_fields(s4):
    # the catalog's fixed navarro instances on S4 at 2 are verified too
    fixed = catalog.navarro_fixed("S4", 2)
    assert fixed
    for key, (_, _, compute) in SECTIONS.items():
        recs = compute(s4, 2, fixed)
        assert recs, key
        for rec in recs:
            assert not {"group", "prime"} & set(rec), (key, rec)


def test_each_section_is_computed_once_per_report(s4, monkeypatch):
    # am and dim share the block list, and a repeat for an equal group
    # under another name reads every section from the cache; compute
    # looks each correspond function up at call time, so a wrapper on
    # the module's name (as perfbench's tracer installs) sees every call
    names = (
        "block_section",
        "glauberman_instances",
        "navarro_instances",
        "regular_covering_instances",
        "fong_block_instances",
        "fong_reynolds_instances",
        "question35_instances",
    )
    calls = []
    for name in names:
        real = getattr(report, name)
        monkeypatch.setattr(
            report, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
        )
    clear_caches()
    first = to_json(build_report(s4, 2))
    assert calls == list(names)
    calls.clear()
    twin = PermutationGroup(4, s4.generators[::-1], name="twin")
    again = build_report(twin, 2)
    assert calls == []
    assert again["group"] == "twin"
    for key, recs in again["propositions"].items():
        assert recs and all(rec["group"] == "twin" for rec in recs), key
    assert to_json(again).replace('"twin"', '"S4"') == first
    clear_caches()
    assert to_json(build_report(twin, 2)) == to_json(again)


def test_edits_to_a_report_do_not_reach_the_next(s4):
    clear_caches()
    cold = to_json(build_report(s4, 2))
    # the first report's records are the ones just computed, the second
    # report's come from the cache: edit both
    for _ in range(2):
        rep = build_report(s4, 2)
        block = rep["blocks"][0]
        block["degrees"].append(99)
        block["irr0_matching"][0][1] = 99
        block["correspondent"]["degrees"].clear()
        block["correspondent"]["id"] = 99
        rep["propositions"]["navarro"][0]["verdict"] = "fail"
        assert to_json(build_report(s4, 2)) == cold


def test_fixed_instances_as_lists_share_the_cache_entry(s4):
    fixed = catalog.navarro_fixed("S4", 2)
    assert fixed and hash(fixed)
    as_lists = [([list(g) for g in u], [list(g) for g in q]) for u, q in fixed]
    clear_caches()
    one = build_report(s4, 2, kinds=("navarro",), navarro_fixed=fixed)
    two = build_report(s4, 2, kinds=("navarro",), navarro_fixed=as_lists)
    assert one == two
    assert one["propositions"]["navarro"][-1]["kind"] == "fixed"
    info = report._section.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_repeat_report_on_a_parsed_copy_computes_no_classes(monkeypatch):
    # the command line parses the group file for each job; a second parse
    # of the same file returns the first parse's group, whose classes the
    # first report computed, so the repeat computes none
    path = Path(__file__).parents[1] / "perfbench" / "groups" / "s6.grp"
    computed = []
    real = PermutationGroup._compute_classes
    monkeypatch.setattr(
        PermutationGroup,
        "_compute_classes",
        lambda self: computed.append(self) or real(self),
    )
    clear_caches()
    G = parse_group_file(path)
    first = build_report(G, 3)
    copy = parse_group_file(path)
    assert copy is G
    before = len(computed)
    assert build_report(copy, 3) == first
    assert len(computed) == before
    assert sum(H is G for H in computed) == 1


def test_json_round_trip(s4):
    rep = build_report(s4, 2)
    text = to_json(rep)
    assert text.endswith("\n")
    assert json.loads(text) == rep


def _stdlib_json(obj):
    return json.dumps(obj, indent=2) + "\n"


def test_renderer_matches_stdlib_on_goldens():
    goldens = sorted((Path(__file__).parent / "data").glob("*.json"))
    assert len(goldens) == 7
    for path in goldens:
        text = path.read_text(encoding="utf-8")
        value = json.loads(text)
        assert to_json(value) == _stdlib_json(value) == text, path


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "catalog:S4"),
        ("blocks", "catalog:S4", "-p", "2"),
        ("verify", "all", "catalog:A5", "-p", "2", "--timings"),
        ("catalog", "list"),
    ],
)
def test_renderer_matches_stdlib_on_cli_output(capsys, argv):
    main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    value = json.loads(out)
    assert to_json(value) == _stdlib_json(value) == out


def test_renderer_matches_stdlib_on_edge_values():
    value = {
        "empty": [{}, [], [[]], {"x": {}}, ()],
        "tuple": (1, (2, -3), [()]),
        "words": [True, False, None],
        "ints": [0, -1, 10**30, -(10**30)],
        "floats": [0.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
        "strings": ['"', "\\", "\n\t\x00\x1f\x7f", "é€\U0001d11e", ""],
        'key "with" \\ and é': "",
    }
    assert to_json(value) == _stdlib_json(value)
    assert to_json([]) == "[]\n" and to_json("x") == '"x"\n'


@pytest.mark.parametrize(
    "value", [{1: 2}, {"a": {None: 1}}, {(1,): 2}, {True: 1}, {0.5: 1}]
)
def test_renderer_rejects_keys_that_are_not_strings(value):
    # json.dumps would coerce these keys; no report holds one
    with pytest.raises(TypeError):
        to_json(value)


@pytest.mark.parametrize("value", [{1}, b"x", object(), [1j], {"a": range(2)}])
def test_renderer_rejects_other_types(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_reports_are_reproducible(s4):
    one = to_json(build_report(s4, 2))
    two = to_json(build_report(s4, 2))
    assert one == two


def test_collect_verdicts_s4(s4):
    rep = build_report(s4, 2)
    verdicts = collect_verdicts(rep)
    assert verdicts == {
        "am": "pass",
        "dim": "pass",
        "glauberman": "pass",
        "navarro": "pass",
        "regular": "pass",
        "fong": "pass",
    }


def test_collect_verdicts_a5(a5):
    rep = build_report(a5, 2)
    verdicts = collect_verdicts(rep)
    assert verdicts["am"] == "fail"
    assert verdicts["dim"] == "fail"
    assert verdicts["glauberman"] == "pass"
    assert verdicts["regular"] == "pass"
    # no navarro records at all: the exhaustive pass needs p-solvability and
    # no fixed instances were passed in
    assert "navarro" not in verdicts


def test_question35_never_produces_a_verdict(s4):
    rep = build_report(s4, 2, kinds=("q35",))
    assert rep["propositions"]["question35"]
    assert collect_verdicts(rep) == {}


def test_text_carries_the_same_verdicts(s4, a5):
    rep = build_report(s4, 2)
    text = to_text(rep)
    assert text.count("matched") == 2
    assert "violator" not in text
    props = rep["propositions"]
    verdict_records = sum(
        len(props[key])
        for key in (
            "glauberman",
            "navarro",
            "regular_covering",
            "fong_block",
            "fong_reynolds",
        )
    )
    assert text.count(": pass") == verdict_records
    assert "hypothesis not met" not in text

    bad = build_report(a5, 2)
    bad_text = to_text(bad)
    assert "violator right [1,1,1] (size mismatch)" in bad_text
    assert "dims 44 vs 12  divides no" in bad_text
    assert "skipped (group is not p-solvable)" in bad_text


def test_text_header_and_structure(sl23):
    rep = build_report(sl23, 3, name="SL(2,3)")
    text = to_text(rep)
    lines = text.splitlines()
    assert lines[0] == "group SL(2,3)  order 24  prime 3  p-solvable yes"
    assert sum(1 for ln in lines if ln.startswith("block ")) == 3
    assert "question 3.5:" in text
    assert text.endswith("\n")


def test_kinds_constant_is_complete():
    assert KINDS == (
        "am", "dim", "glauberman", "navarro", "regular", "fong", "q35",
    )


# sha256 of to_json(build_report(G, p)) on groups that no golden and no
# benchmark job covers.  They were taken before normalizers,
# centralizers and conjugacy tests became orbit walks, which left every
# byte as it was.
REPORT_DIGESTS = (
    (lambda: symmetric(7), 2, "26fc10a3a49e089ca93425dcf398b1daf2d2ae52e99261b652167b9b922a2999"),
    (s4_times_s4, 2, "9f547e926f6887698875fa39f13b2375aa063ebbf5c44b44d93396f21d81fb2a"),
    (s4_times_s4, 3, "80a16e06ec2b0c3361ed46c8f4cdfc55bc8cef0cb6e146037f04d9396419f556"),
    (c2_wreath_s4, 2, "2a08c0e0a9a9bcbeacb30732dabcf047892206d0aa74b1982d8d297c22131d6c"),
)


def test_report_bytes_are_pinned_beyond_the_goldens():
    for build, p, digest in REPORT_DIGESTS:
        G = build()
        text = to_json(build_report(G, p))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (G, p)
        clear_caches()
