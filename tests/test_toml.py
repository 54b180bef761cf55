"""TOML grammar tests mirroring the reference's toml fixture corpus and
toml_parser_tests.rs semantics."""

import math

import pytest

from zparse_ray.functions.errors import ParseError
from zparse_ray.functions.toml_parser import TomlConfig, parse_toml
from zparse_ray.value import TomlDatetime


def err_id(text, **kw):
    with pytest.raises(ParseError) as ei:
        parse_toml(text, **kw)
    return ei.value.check_id


def test_basic():
    v = parse_toml('title = "TOML Example"\ncount = 3\nenabled = true\n')
    assert v == {"title": "TOML Example", "count": 3.0, "enabled": True}


def test_tables():
    v = parse_toml('[owner]\nname = "Tom"\n\n[database]\nports = [8001, 8001, 8002]\nenabled = false\n')
    assert v == {
        "owner": {"name": "Tom"},
        "database": {"ports": [8001.0, 8001.0, 8002.0], "enabled": False},
    }


def test_nested_table_paths():
    v = parse_toml("[a.b.c]\nx = 1\n")
    assert v == {"a": {"b": {"c": {"x": 1.0}}}}


def test_array_of_tables():
    v = parse_toml('[[products]]\nname = "Hammer"\n\n[[products]]\nname = "Nail"\ncolor = "gray"\n')
    assert v == {"products": [{"name": "Hammer"}, {"name": "Nail", "color": "gray"}]}


def test_nested_array_of_tables():
    v = parse_toml('[[fruit]]\nname = "apple"\n[[fruit.variety]]\nname = "red"\n[[fruit.variety]]\nname = "green"\n[[fruit]]\nname = "pear"\n')
    assert v == {
        "fruit": [
            {"name": "apple", "variety": [{"name": "red"}, {"name": "green"}]},
            {"name": "pear"},
        ]
    }


def test_inline_tables():
    v = parse_toml('point = { x = 1, y = 2 }\nmeta = { tags = ["one", "two"], ok = true }\n')
    assert v == {"point": {"x": 1.0, "y": 2.0}, "meta": {"tags": ["one", "two"], "ok": True}}


def test_dotted_keys():
    v = parse_toml("a.b.c = 1\na.b.d = 2\n")
    assert v == {"a": {"b": {"c": 1.0, "d": 2.0}}}


def test_quoted_keys():
    v = parse_toml('"a key" = 1\n\'literal\' = 2\n')
    assert v == {"a key": 1.0, "literal": 2.0}


def test_string_kinds():
    v = parse_toml("a = \"basic\\nescape\"\nb = 'literal\\n'\nc = \"\"\"multi\nline\"\"\"\nd = '''raw\nlines'''\n")
    assert v == {"a": "basic\nescape", "b": "literal\\n", "c": "multi\nline", "d": "raw\nlines"}


def test_unicode_escapes():
    v = parse_toml('a = "\\u00e9\\U0001F600"\n')
    assert v == {"a": "é😀"}


def test_numbers():
    v = parse_toml("a = 1_000\nb = -2.5\nc = 1e3\nd = +5\ne = inf\nf = -inf\n")
    assert v["a"] == 1000.0
    assert v["b"] == -2.5
    assert v["c"] == 1000.0
    assert v["d"] == 5.0
    assert v["e"] == math.inf
    assert v["f"] == -math.inf


def test_nan():
    v = parse_toml("a = nan\n")
    assert math.isnan(v["a"])


def test_datetimes():
    v = parse_toml(
        "a = 1979-05-27T07:32:00Z\nb = 1979-05-27T00:32:00-07:00\nc = 1979-05-27T07:32:00\nd = 1979-05-27\ne = 07:32:00\n"
    )
    assert v["a"] == TomlDatetime("offset-datetime", "1979-05-27T07:32:00Z")
    assert v["b"].variant == "offset-datetime"
    assert v["c"].variant == "local-datetime"
    assert v["d"] == TomlDatetime("local-date", "1979-05-27")
    assert v["e"].variant == "local-time"


def test_invalid_datetime():
    assert err_id("a = 1979-13-27\n") == "InvalidDatetime"
    assert err_id("a = 07:99:00\n") == "InvalidDatetime"


def test_duplicate_key():
    assert err_id("a = 1\na = 2\n") == "DuplicateKey"
    assert err_id("[t]\nx = 1\nx = 2\n") == "DuplicateKey"
    assert err_id("p = { x = 1, x = 2 }\n") == "DuplicateKey"


def test_key_already_assigned():
    assert err_id("a = 1\n[a]\nb = 2\n") == "InvalidKey"
    assert err_id("a = 1\na.b = 2\n") == "InvalidKey"


def test_reopening_table_allowed():
    # reference behavior: ensure_table_path finds existing Object, no error
    v = parse_toml("[a]\nx = 1\n[a]\ny = 2\n")
    assert v == {"a": {"x": 1.0, "y": 2.0}}


def test_missing_equals():
    assert err_id('name "value"\n') == "Expected"


def test_bad_table_header():
    assert err_id("[invalid\nkey = 1\n") == "InvalidKey"


def test_unterminated_string():
    assert err_id('name = "unterminated\n') == "UnterminatedString"
    assert err_id("name = 'unterminated\n") == "UnterminatedString"


def test_newline_in_inline_table():
    # after a comma the next token is Newline -> parse_key_from_token -> InvalidKey
    assert err_id("point = { x = 1,\n  y = 2 }\n") == "InvalidKey"
    # after a value, Newline hits the comma/brace check -> InvalidInlineTable
    assert err_id("point = { x = 1\n, y = 2 }\n") == "InvalidInlineTable"


def test_unterminated_array():
    assert err_id("values = [1, 2, 3\n") == "InvalidArray"


def test_trailing_comma_in_array_ok():
    assert parse_toml("a = [1, 2,]\n") == {"a": [1.0, 2.0]}


def test_multiline_array():
    assert parse_toml("a = [\n  1,\n  2,\n]\n") == {"a": [1.0, 2.0]}


def test_nested_arrays():
    assert parse_toml("a = [[1, 2], [3]]\n") == {"a": [[1.0, 2.0], [3.0]]}


def test_comments():
    v = parse_toml("# top\na = 1 # trailing\n# end\n")
    assert v == {"a": 1.0}


def test_max_depth():
    assert err_id("a = " + "[" * 200 + "]" * 200 + "\n") == "MaxDepthExceeded"
    cfg = TomlConfig(max_depth=2)
    assert err_id("a = [[[1]]]\n", config=cfg) == "MaxDepthExceeded"


def test_max_size():
    cfg = TomlConfig(max_size=4)
    assert err_id('a = "very long string"\n', config=cfg) == "MaxSizeExceeded"


def test_i64_bounds():
    assert parse_toml("a = 9223372036854775807\n") == {"a": 9.223372036854776e18}
    assert err_id("a = 9223372036854775808\n") == "InvalidNumber"


def test_bare_key_with_dashes():
    assert parse_toml("a-b-c = 1\n-lead = 2\n") == {"a-b-c": 1.0, "-lead": 2.0}


def test_empty_doc():
    assert parse_toml("") == {}
    assert parse_toml("# only comments\n") == {}


@pytest.mark.parametrize(
    "text,pos",
    [
        ("a = " + "1" * 5000, (1, 5)),
        ("a = -" + "1" * 5000, (1, 5)),
        ("x = 1\nb = [2, " + "3" * 5000 + "]\n", (2, 9)),
        ("a = " + "1" * 20, (1, 5)),
    ],
)
def test_digit_runs_past_i64_are_invalid_number(text, pos):
    # a run longer than Python's 4,300-digit int() limit must give the
    # grammar error, not a ValueError, on both the check and the parser
    from zparse_ray.functions.toml_parser import check_toml

    for fn in (check_toml, parse_toml):
        with pytest.raises(ParseError) as ei:
            fn(text)
        assert (ei.value.check_id, ei.value.line, ei.value.col) == ("InvalidNumber", *pos), fn


def test_leading_zeros_do_not_count_as_digits():
    assert parse_toml("a = " + "0" * 5000 + "42\n") == {"a": 42.0}
