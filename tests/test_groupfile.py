import pytest

from blockforge import clear_caches
from blockforge.errors import GroupFileError
from blockforge.groupfile import (
    format_group_text,
    parse_group_file,
    parse_group_text,
    parse_perm,
)

from conftest import alternating, symmetric


def test_parse_simple_group():
    text = "degree: 4\n(1 2)\n(1 2 3 4)\n"
    G = parse_group_text(text)
    assert G.order() == 24


def test_comments_and_blank_lines():
    text = "# symmetric group\ndegree: 3\n\n(1 2)  # a transposition\n(1 2 3)\n"
    G = parse_group_text(text)
    assert G.order() == 6


def test_identity_line():
    G = parse_group_text("degree: 3\n()\n")
    assert G.order() == 1


def test_roundtrip(s4, a5):
    for G in (s4, a5):
        again = parse_group_text(format_group_text(G))
        assert again.order() == G.order()
        assert set(again.elements()) == set(G.elements())


def test_parse_perm_positions():
    with pytest.raises(GroupFileError) as e:
        parse_perm("(1 x)", 4, line_no=7)
    assert e.value.line == 7
    assert e.value.column == 4
    assert "line 7, column 4" in str(e.value)


def test_unclosed_cycle():
    with pytest.raises(GroupFileError) as e:
        parse_perm("(1 2", 4, line_no=2)
    assert e.value.line == 2


def test_point_out_of_range():
    with pytest.raises(GroupFileError):
        parse_perm("(1 5)", 4, line_no=1)
    with pytest.raises(GroupFileError):
        parse_perm("(0 1)", 4, line_no=1)


def test_repeated_point():
    with pytest.raises(GroupFileError):
        parse_perm("(1 2)(2 3)", 4, line_no=1)


def test_missing_degree_header():
    with pytest.raises(GroupFileError) as e:
        parse_group_text("(1 2)\n")
    assert e.value.line == 1


def test_bad_degree_value():
    with pytest.raises(GroupFileError):
        parse_group_text("degree: zero\n(1 2)\n")


def test_missing_file(tmp_path):
    with pytest.raises(GroupFileError):
        parse_group_file(tmp_path / "absent.grp")


def test_file_roundtrip(tmp_path):
    G = symmetric(4)
    path = tmp_path / "s4.grp"
    path.write_text(format_group_text(G, comment="symmetric on four points"))
    H = parse_group_file(path)
    assert H.order() == 24
    assert H.name == "s4"


def test_name_comes_from_stem(tmp_path):
    G = alternating(4)
    path = tmp_path / "alt4.grp"
    path.write_text(format_group_text(G))
    assert parse_group_file(path).name == "alt4"


S4_TEXT = "degree: 4\n(1 2)\n(1 2 3 4)\n"


def test_same_text_and_name_give_the_same_group():
    G = parse_group_text(S4_TEXT, name="S4")
    assert parse_group_text(S4_TEXT, name="S4") is G


def test_another_name_gives_another_group_with_that_name():
    G = parse_group_text(S4_TEXT, name="S4")
    H = parse_group_text(S4_TEXT, name="sym4")
    assert H is not G
    assert (H.name, G.name) == ("sym4", "S4")
    assert H == G


def test_clear_caches_drops_parsed_groups():
    G = parse_group_text(S4_TEXT)
    clear_caches()
    H = parse_group_text(S4_TEXT)
    assert H is not G
    assert H == G


def test_malformed_text_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(GroupFileError) as e:
            parse_group_text("degree: 4\n(1 5)\n")
        assert e.value.line == 2


def test_file_is_read_on_every_parse(tmp_path):
    # the same content shares one group; new content gives a new one
    path = tmp_path / "g.grp"
    path.write_text(S4_TEXT)
    G = parse_group_file(path)
    assert parse_group_file(path) is G
    path.write_text("degree: 4\n(1 2 3)\n")
    assert parse_group_file(path).order() == 3
