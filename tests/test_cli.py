import json

import pytest

from blockforge import clear_caches, groupfile
from blockforge.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("C6")
    assert lines[-1].startswith("A5")
    assert "expected-fail 2:am,dim" in lines[-1]


def test_catalog_list_json(capsys):
    # one record per text line, with the same fields, in the same order
    code, out, err = run(capsys, "catalog", "list", "--format", "json")
    assert code == 0
    records = json.loads(out)
    _, text, _ = run(capsys, "catalog", "list")
    assert len(records) == len(text.splitlines()) == 10
    assert records[0] == {
        "name": "C6",
        "order": 6,
        "degree": 6,
        "primes": [2, 3],
        "expected_fail": {},
    }
    assert records[-1]["expected_fail"] == {"2": ["am", "dim"]}
    for rec, line in zip(records, text.splitlines()):
        name, _, order, _, degree, _, primes = line.split()[:7]
        assert name == rec["name"]
        assert (int(order), int(degree)) == (rec["order"], rec["degree"])
        assert primes == ",".join(map(str, rec["primes"]))
    assert run(capsys, "catalog", "list", "--format", "json")[1] == out


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "catalog:S4")
    assert code == 0
    assert out.splitlines()[0] == "group S4  order 24  exponent 12"
    assert "chi4" in out


def test_table_json(capsys):
    code, out, err = run(capsys, "table", "C6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert len(payload["irreducibles"]) == 6
    assert payload["irreducibles"][0] == ["1"] * 6


def test_repeated_table_on_a_file_builds_the_group_once(
    capsys, tmp_path, monkeypatch
):
    path = tmp_path / "s4.grp"
    path.write_text("degree: 4\n(1 2)\n(1 2 3 4)\n")
    built = []
    real = groupfile.PermutationGroup
    monkeypatch.setattr(
        groupfile,
        "PermutationGroup",
        lambda *args, **kwargs: built.append(args) or real(*args, **kwargs),
    )
    clear_caches()
    first = run(capsys, "table", str(path))
    assert run(capsys, "table", str(path)) == first
    assert first[0] == 0
    assert len(built) == 1


def test_blocks_text(capsys):
    code, out, err = run(capsys, "blocks", "S4", "-p", "2")
    assert code == 0
    assert "blocks 1" in out.splitlines()[0]
    assert "degrees [1,1,2,3,3]" in out


def test_blocks_json(capsys):
    code, out, err = run(capsys, "blocks", "SL(2,3)", "-p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [b["degrees"] for b in payload["blocks"]] == [
        [1, 1, 1], [2, 2, 2], [3],
    ]
    assert [b["defect"] for b in payload["blocks"]] == [1, 1, 0]


def test_verify_single_group_pass(capsys):
    code, out, err = run(capsys, "verify", "am", "S4", "-p", "2")
    assert code == 0
    assert "overall: all verdicts as expected" in out


def test_verify_catalog_a5_expected_fail(capsys):
    code, out, err = run(capsys, "verify", "all", "catalog:A5", "-p", "2")
    assert code == 0
    assert "violator" in out


def test_verify_file_group_unexpected_fail(capsys, tmp_path):
    grp = tmp_path / "alt5.grp"
    grp.write_text("degree: 5\n(1 2 3)\n(1 2 3 4 5)\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "am", str(grp), "-p", "2")
    assert code == 1
    assert "unexpected: alt5 p=2 am: fail (expected pass)" in out
    assert "overall: 1 unexpected verdict" in out


def test_verify_full_catalog_deterministic(capsys):
    code1, out1, err1 = run(capsys, "verify", "all")
    code2, out2, err2 = run(capsys, "verify", "all")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "overall: all verdicts as expected" in out1
    # one report per catalog (group, prime) pair plus the extra
    # fixed-instance run for A5 at 3
    assert out1.count("group ") >= 18
    assert "group A5  order 60  prime 3" in out1


def test_verify_json_format(capsys):
    code, out, err = run(
        capsys, "verify", "navarro", "S4", "-p", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["unexpected"] == []
    records = payload["reports"][0]["propositions"]["navarro"]
    assert records[0]["kind"] == "exhaustive"
    assert records[0]["classes"] == 9
    # the catalog carries a fixed pair for S4 at 2
    assert records[1]["kind"] == "fixed"
    assert records[1]["divides"] is False


def test_verify_q35_never_fails_exit(capsys):
    code, out, err = run(capsys, "verify", "q35", "A5", "-p", "2")
    assert code == 0
    assert "skipped (group is not p-solvable)" in out


def test_bad_group_file_exit_2(capsys, tmp_path):
    grp = tmp_path / "bad.grp"
    grp.write_text("degree: 4\n(1 2)(2 3)\n", encoding="utf-8")
    code, out, err = run(capsys, "table", str(grp))
    assert code == 2
    assert "line 2" in err
    assert "column" in err


def test_unknown_group_exit_2(capsys):
    code, out, err = run(capsys, "table", "nosuchthing")
    assert code == 2
    assert "unknown group" in err


def test_unknown_catalog_group_exit_2(capsys):
    # a plain DomainError, not a usage or group-file error
    code, out, err = run(capsys, "table", "catalog:NOPE")
    assert (code, out) == (2, "")
    assert err == "error: no catalog group named 'NOPE'\n"


def test_missing_prime_exit_2(capsys):
    code, out, err = run(capsys, "blocks", "S4")
    assert code == 2
    assert "needs a prime" in err


def test_non_prime_exit_2(capsys):
    code, out, err = run(capsys, "verify", "am", "S4", "-p", "6")
    assert code == 2
    assert "not a prime" in err


def test_prime_without_group_exit_2(capsys):
    code, out, err = run(capsys, "verify", "all", "-p", "2")
    assert code == 2
    assert "explicit group" in err


def test_unknown_kind_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "everything"])
    assert info.value.code == 2


def test_verify_only_flags_exit_2_elsewhere(capsys):
    for flags in (["--seed", "1"], ["--timings"]):
        with pytest.raises(SystemExit) as info:
            main(["table", "S4", *flags])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    # The parser is built once per process; a usage error and a valid
    # call give the same output and exit code in one process as each
    # does on a freshly built parser, as in separate runs.
    def usage_error():
        with pytest.raises(SystemExit) as info:
            main(["table", "S4", "--seed", "1"])
        return info.value.code, capsys.readouterr()

    def valid():
        return run(capsys, "table", "S4", "--format", "json")

    build_parser.cache_clear()
    alone = [usage_error()]
    build_parser.cache_clear()
    alone.append(valid())
    build_parser.cache_clear()
    together = [usage_error(), valid()]
    assert together == alone
    assert alone[0][0] == 2 and alone[1][0] == 0
    assert build_parser() is build_parser()


def test_verify_kind_defaults_to_all():
    args = build_parser().parse_args(["verify"])
    assert args.kind == "all"
    assert args.group is None


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "dim", "S4", "-p", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["reports"][0]["prime"] == 3


@pytest.mark.parametrize(
    "argv", [("table", "S4"), ("verify", "dim", "S4", "-p", "3")], ids=["table", "verify"]
)
def test_unwritable_out_exit_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_seed_env_and_flag(capsys):
    # the benchmark's invocation: --seed is accepted and changes no byte
    # of the output
    outputs = set()
    for flags in (["--seed", "0"], ["--seed", "7"], []):
        code, out, err = run(capsys, "verify", "all", "--format", "json", *flags)
        assert code == 0 and err == ""
        outputs.add(out)
    assert len(outputs) == 1
    assert '"seed"' not in out


def test_malformed_seed_env_is_ignored(capsys, monkeypatch):
    # BLOCKFORGE_SEED is no longer read, so a malformed value neither
    # exits 2 nor changes a byte of the output
    monkeypatch.delenv("BLOCKFORGE_SEED", raising=False)
    code, expected, err = run(capsys, "verify", "all", "--format", "json")
    assert code == 0 and err == ""
    monkeypatch.setenv("BLOCKFORGE_SEED", "abc")
    code, out, err = run(capsys, "verify", "all", "--format", "json")
    assert code == 0 and err == ""
    assert out == expected


def test_timings_flag(capsys):
    code, out, err = run(capsys, "verify", "dim", "C6", "-p", "2", "--timings")
    assert code == 0
    assert "elapsed" in out
