"""Accept-only fast paths: ``check_json`` / ``check_jsonc`` / ``check_csv`` /
``check_xml`` / ``check_toml`` / ``check_yaml`` against the exact parsers.

A fast path may only say "valid". Everything else runs the exact parser,
so on every input the checker raises exactly when the parser raises, with
the same (check_id, message, offset, line, col). The differential
property tests below generate grammar-relevant garbage, quote-, tag-,
bracket- and indent-heavy text and one-char mutations of valid synth
payloads, and pin the hand-picked inputs that sit on either side of each
guard or subset boundary.

The column accept masks (``accept_mask_csv`` / ``_toml`` / ``_yaml``) run
on the same inputs: a span a mask accepts must pass its checker and parse
with the exact parser.
"""

import csv
import random
import sys
from xml.parsers.expat import ParserCreate

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zparse_ray.functions import csv_parser, json_parser, toml_parser, xml_parser, yaml_parser
from zparse_ray.functions.columnar import byte_view
from zparse_ray.functions.csv_parser import CsvConfig, accept_mask_csv, check_csv, parse_csv
from zparse_ray.functions.errors import ParseError
from zparse_ray.functions.json_parser import (
    JSONC_CONFIG,
    JsonConfig,
    check_json,
    check_jsonc,
    parse_json,
    parse_jsonc,
)
from zparse_ray.functions.toml_parser import TomlConfig, accept_mask_toml, check_toml, parse_toml
from zparse_ray.functions.xml_parser import XmlConfig, check_xml, parse_xml
from zparse_ray.functions.yaml_parser import YamlConfig, accept_mask_yaml, check_yaml, parse_yaml
from zparse_ray.synth import _INVALID_MENU, _valid_payload

from test_fuzz import _grammar_text

DELIMITERS = [",", ";", "\t", "|", " "]


def _outcome(fn, text, cfg=None):
    try:
        fn(text, cfg)
    except ParseError as e:
        return (e.check_id, e.message, e.offset, e.line, e.col)
    except RecursionError:
        return "RecursionError"
    return None


_MASKS = {
    "csv": (accept_mask_csv, check_csv, parse_csv),
    "toml": (accept_mask_toml, check_toml, parse_toml),
    "yaml": (accept_mask_yaml, check_yaml, parse_yaml),
}


def mask_accepts(kind, texts, cfg=None):
    """The mask's verdict per text, after checking that every accepted
    text passes the checker and parses with the exact parser."""
    mask, check, parse = _MASKS[kind]
    got = mask(pa.array(texts, pa.string()), cfg)
    assert got.dtype == bool and len(got) == len(texts)
    for text, ok in zip(texts, got):
        if ok:
            assert _outcome(check, text, cfg) is None, (kind, text, cfg)
            assert _outcome(parse, text, cfg) is None, (kind, text, cfg)
    return got.tolist()


def assert_csv_agrees(text, delimiter=","):
    cfg = CsvConfig(delimiter=delimiter)
    assert _outcome(check_csv, text, cfg) == _outcome(parse_csv, text, cfg), (text, delimiter)
    mask_accepts("csv", [text], cfg)


def assert_xml_agrees(text, cfg=None):
    assert _outcome(check_xml, text, cfg) == _outcome(parse_xml, text, cfg), text


def assert_toml_agrees(text, cfg=None):
    assert _outcome(check_toml, text, cfg) == _outcome(parse_toml, text, cfg), (text, cfg)
    mask_accepts("toml", [text], cfg)


def assert_yaml_agrees(text, cfg=None):
    assert _outcome(check_yaml, text, cfg) == _outcome(parse_yaml, text, cfg), (text, cfg)
    mask_accepts("yaml", [text], cfg)


def assert_reaches_exact(monkeypatch, module, name, check, text, cfg=None):
    """``check`` hands ``text`` to the exact parser ``module.name`` and
    ends as it does."""
    exact = getattr(module, name)
    calls = []

    def spy(*a, **k):
        calls.append(a)
        return exact(*a, **k)

    monkeypatch.setattr(module, name, spy)
    got = _outcome(check, text, cfg)
    monkeypatch.setattr(module, name, exact)
    assert calls, f"{name} not called for {text!r}"
    assert got == _outcome(exact, text, cfg), text


def assert_fast_accept(monkeypatch, module, name, check, text, cfg=None):
    """The exact parser accepts ``text``, and ``check`` accepts it
    without calling it."""
    exact = getattr(module, name)
    exact(text, cfg)

    def boom(*a, **k):
        raise AssertionError("exact parser called")

    monkeypatch.setattr(module, name, boom)
    assert check(text, cfg) is None
    monkeypatch.setattr(module, name, exact)


_csv_text = st.text(alphabet=st.sampled_from(list('"",,;\t| \x0c\n\r\r\nab1 é\x00')), max_size=60)
_xml_text = st.lists(
    st.sampled_from(
        ["<a>", "</a>", "<b>", "</b>", "<a/>", "<b ", 'x="1"', "y='2'", " ", "\n", "/>", ">",
         "<", "&amp;", "&lt;", "&#65;", "&#x41;", "&#0;", "&bogus;", "&", ";", "]]>", "<!--c-->",
         "<?p?>", "<!", "é", "t", "=", '"', "\x00", "\x0c", ":", "-", "."]
    ),
    max_size=24,
).map("".join)
_toml_text = st.lists(
    st.sampled_from(
        ["a", "k0", "b-c", "_", "1", "-2", "1.5", "123456789012345678", "1234567890123456789",
         "true", "false", "inf", "1e5", "1_0", "+1", "1979-05-27", " = ", "=", " ", "\t", "\n",
         "\r", ", ", ",", "[", "]", "[[", "]]", "{", "}", '"x"', '""', '"""', '"\\n"', "'s'",
         "#", ".", '"', "é", "\x00"]
    ),
    max_size=30,
).map("".join)
_yaml_text = st.lists(
    st.sampled_from(
        ["a", "k0", "b", ": ", ":", "- ", "-", "\n", "\n  ", "\n    ", " ", "  ", "\t", "1",
         "-5", "x y", "null", '"q"', '""', '"\\n"', "'s'", "#", "[", "]", "{", "}", ",", "\r",
         "é", "\\"]
    ),
    max_size=30,
).map("".join)
_TOML_CFGS = [None, TomlConfig(max_depth=1), TomlConfig(max_depth=2), TomlConfig(max_depth=0),
              TomlConfig(max_size=24)]
_YAML_CFGS = [None, YamlConfig(max_depth=1), YamlConfig(max_depth=2), YamlConfig(max_depth=0)]


def _mutate(text: str, rng: random.Random, alphabet: str) -> str:
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    c = rng.choice(alphabet)
    if op == 0:
        return text[:i] + c + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + c + text[i + 1:]


# -- differential properties ------------------------------------------------

@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_grammar_text, _csv_text), delimiter=st.sampled_from(DELIMITERS))
def test_check_csv_matches_parse_csv(text, delimiter):
    assert_csv_agrees(text, delimiter)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_grammar_text, _xml_text))
def test_check_xml_matches_parse_xml(text):
    assert_xml_agrees(text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_mut=st.integers(0, 3),
       delimiter=st.sampled_from(DELIMITERS))
def test_mutated_synth_csv_agrees(seed, n_mut, delimiter):
    rng = random.Random(seed)
    text = _valid_payload("csv", rng)
    if delimiter != ",":
        text = text.replace(",", delimiter)
    for _ in range(n_mut):
        text = _mutate(text, rng, '",; \t|\n\r\x0ca1')
    assert_csv_agrees(text, delimiter)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_mut=st.integers(0, 3))
def test_mutated_synth_xml_agrees(seed, n_mut):
    rng = random.Random(seed)
    text = _valid_payload("xml", rng)
    for _ in range(n_mut):
        text = _mutate(text, rng, "<>/=\"'&;#! ?a1:é\n")
    assert_xml_agrees(text)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_grammar_text, _toml_text), cfg=st.sampled_from(_TOML_CFGS))
def test_check_toml_matches_parse_toml(text, cfg):
    assert_toml_agrees(text, cfg)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_grammar_text, _yaml_text), cfg=st.sampled_from(_YAML_CFGS))
def test_check_yaml_matches_parse_yaml(text, cfg):
    assert_yaml_agrees(text, cfg)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_mut=st.integers(0, 3), cfg=st.sampled_from(_TOML_CFGS))
def test_mutated_synth_toml_agrees(seed, n_mut, cfg):
    rng = random.Random(seed)
    text = _valid_payload("toml", rng)
    for _ in range(n_mut):
        text = _mutate(text, rng, "\"'[]{}=,.#\n\r\t -+_019eEtfk:TZ\\")
    assert_toml_agrees(text, cfg)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_mut=st.integers(0, 3), cfg=st.sampled_from(_YAML_CFGS))
def test_mutated_synth_yaml_agrees(seed, n_mut, cfg):
    rng = random.Random(seed)
    text = _valid_payload("yaml", rng)
    for _ in range(n_mut):
        text = _mutate(text, rng, "\"'[]{}:,#\n\r\t -+_01k\\")
    assert_yaml_agrees(text, cfg)


@pytest.mark.parametrize("text,check", _INVALID_MENU["csv"])
@pytest.mark.parametrize("delimiter", DELIMITERS)
def test_planted_csv_errors_agree(text, check, delimiter):
    if delimiter == ",":
        assert _outcome(check_csv, text)[0] == check
    assert_csv_agrees(text.replace(",", delimiter), delimiter)


@pytest.mark.parametrize("text,check", _INVALID_MENU["xml"])
def test_planted_xml_errors_agree(text, check):
    assert _outcome(check_xml, text)[0] == check
    assert_xml_agrees(text)


@pytest.mark.parametrize("text,check", _INVALID_MENU["toml"])
def test_planted_toml_errors_agree(text, check):
    assert _outcome(check_toml, text)[0] == check
    assert_toml_agrees(text)


@pytest.mark.parametrize("text,check", _INVALID_MENU["yaml"])
def test_planted_yaml_errors_agree(text, check):
    assert _outcome(check_yaml, text)[0] == check
    assert_yaml_agrees(text)


# -- pinned guard cases -------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        'a\n"x" \n',            # ws after a closing quote: csv.Error, reference accepts
        'a\n"x"\x0c,1\n',       # formfeed too
        'a\n"x\x00y"\n',        # NUL inside a quoted field
        'a\n"' + "x" * (csv.field_size_limit() + 1) + '"\n',  # over csv's field limit
    ],
)
def test_csv_guard_cases_accepted(text):
    assert parse_csv(text) is not None
    assert check_csv(text) is None


def test_csv_guard_cases_rejected():
    long_unterminated = 'a\n"' + "x" * (csv.field_size_limit() + 1)
    # 'a\x1c"x\n"\n': the reference's second record is an unterminated
    # quote; a reader fed str.splitlines would pair the two quotes
    for text in (long_unterminated, 'a\n"x\x00y', 'a\n"x" y\n', '"ab""', 'a\x1c"x\n"\n'):
        assert _outcome(check_csv, text) is not None
        assert_csv_agrees(text)


@pytest.mark.parametrize(
    "text",
    [
        '<a x="1"y="2"/>',      # no ws between attributes: expat rejects
        "<a>&#0;</a>",          # char ref expat calls illegal
        "<a>]]></a>",           # `]]>` in text
        '<a x="<"/>',           # `<` in an attribute value
        "<a>\x0c</a>",          # control char
        "<!--c--><a/>",         # comment: guard miss
        '<?xml version="1.0"?><a/>',  # declaration: guard miss
    ],
)
def test_xml_guard_cases_accepted(text):
    parse_xml(text)
    assert check_xml(text) is None


@pytest.mark.parametrize(
    "text",
    [
        "<é/>",                 # non-ASCII name
        "\ufeff<a/>",           # BOM
        "<!DOCTYPE a [<!ENTITY e 'x'>]><a>&e;</a>",  # internal entity
    ],
)
def test_xml_guard_cases_expat_accepts_reference_rejects(text):
    # the guard keeps these away from expat, which would call them valid
    ParserCreate().Parse(text, True)
    assert _outcome(parse_xml, text) is not None
    assert_xml_agrees(text)


def test_max_size_agrees():
    for text in ("a\n" + "x" * 15, "a\n" + "x" * 14):
        for delimiter in DELIMITERS:
            cfg = CsvConfig(delimiter=delimiter, max_size=16)
            assert _outcome(check_csv, text, cfg) == _outcome(parse_csv, text, cfg)
    assert _outcome(check_csv, "a\n" + "x" * 15, CsvConfig(max_size=16))[0] == "MaxSizeExceeded"
    for text in ("<a>" + "x" * 10 + "</a>", "<a>" + "x" * 9 + "</a>"):
        cfg = XmlConfig(max_size=16)
        assert _outcome(check_xml, text, cfg) == _outcome(parse_xml, text, cfg)
    assert _outcome(check_xml, "<a>" + "x" * 10 + "</a>", XmlConfig(max_size=16))[0] == (
        "MaxSizeExceeded"
    )


def test_bad_delimiter_and_bytes_agree():
    for delimiter in ("\n", "\r", '"', ";;"):
        assert_csv_agrees('a\n"x"\n', delimiter)
    for raw in (b'a\n"x"\n', b'a\n"\xff"\n'):
        assert _outcome(check_csv, raw) == _outcome(parse_csv, raw)


def test_deep_xml_not_accepted_by_expat():
    # the exact parser recurses once per level; expat would accept a
    # document it cannot walk, so the fast path must step aside
    n = sys.getrecursionlimit()
    text = "<a>" * n + "</a>" * n
    assert _outcome(parse_xml, text) == "RecursionError"
    assert _outcome(check_xml, text) == "RecursionError"


@pytest.mark.parametrize(
    "text",
    [
        "1 = 2",                    # numeric key: InvalidKey
        "-1 = 2",
        "true = 1",                 # bool key: InvalidKey
        "false = 'x'",
        "a.b = 1",                  # dotted key
        "[t]\na = 1",               # table header
        "[[t]]\na = 1",             # array-of-tables header
        "[t]\na = 1\n[t]\nb = 2",
        'a = "x\\ty"',              # escape
        'a = "x\\qy"',              # bad escape
        "a = 's'",                  # literal string
        'a = """x\ny"""',           # multi-line string
        "a = '''x'''",
        "a = 1 # c",                # comment
        "# c\na = 1",
        "a = 1\r\nb = 2",           # \r
        "a = 1979-05-27",           # datetimes
        "a = 07:32:00",
        "a = 1979-05-27T07:32:00Z",
        "a = 1979-13-27",
        "a = 1e5",                  # exponents
        "a = 1.5E-3",
        "a = 1_000",                # separators
        "a = +1",                   # explicit sign
        "a = inf",                  # inf / nan
        "a = -nan",
        "a = 9223372036854775808",  # 19 digits, >= 2**63: InvalidNumber
        "a = 1000000000000000000",  # 19 digits, < 2**63: valid
        "a = 1.",
        "a = [\n1,\n2\n]",          # multi-line array
        "a = {\nb = 1}",
        "a = 1 b = 2",              # two pairs on one line
        'a = "x" "y"',
        "a = [1 2]",
        "a = [,]",
        "a = {,}",
        "a = {b = 1 c = 2}",
        "a = [[1]",
        "a = [1]]",
        "a = 1\na = 2",             # a repeated key at each depth
        "a = {b = 1, b = 2}",
        "a = [{b = {c = 1, c = 2}}]",
        "a = {b = {c = {d = 1, d = 2}}}",
        "a = {k = 1, kk = 2, k = 3}",
        "a = {b = 1, c = 2,}\nc = 3\na = 4",
        "a = " + "[" * 9 + "1" + "]" * 9,  # deeper than the subset's bound
        "a = \x00",
        'a = "\x00"',
    ],
)
def test_toml_guard_cases_reach_exact_parser(monkeypatch, text):
    assert_reaches_exact(monkeypatch, toml_parser, "parse_toml", check_toml, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n \n",
        'a = 1\nb = [1, -2.5, true, "x", [], {}]',
        "a = [[1], [2, [3]], {b = {a = 1}, a = [1,]},]",
        "a = {a = {a = 1}, b = 2}\nb = {a = 1}",  # one key name in several tables
        "k-1 = 1\ntrue-x = 2\ninf = 3\nk12 = 4",  # digits after the first key char
        '\t a\t=\t"x#y[z]=\'"  \n\n',
        "a = 123456789012345678\nb = -123456789012345678",
    ],
)
def test_toml_subset_accepted_without_exact_parser(monkeypatch, text):
    assert_fast_accept(monkeypatch, toml_parser, "parse_toml", check_toml, text)


@pytest.mark.parametrize(
    "text",
    [
        "a:\n\tb: 1",               # tabs
        "a:\t1",
        "- \tx",
        "a: [1, 2]",                # flow collections
        "a: {b: 1}",
        "a: {b: 1, b: 2}",
        "- [1",
        "a: 's'",                   # single quotes
        'a: "x\\ny"',               # escapes
        'a: "x\\qy"',
        'a: "x',
        "- k: v\n  j: w",           # mapping items
        "- k: v\n- k: v",
        "-x\n-y",                   # items without a space
        "-",                        # bare items
        "-\n  a: 1",
        " a: 1\n b: 2",             # non-zero root indent
        "  - x",
        "a:\n- 1\n- 2",             # key: then items at the same indent
        "a: 1\n- 2",
        "- 1\na: 2",
        "a:\n    b: 1\n  c: 2",      # a dedent onto no enclosing level
        "a:\n  - 1\n - 2",
        "a: 1\n  b: 2",              # a deeper line under a scalar
        "- 1\n  - 2",
        "a: 1\na: 2",               # a repeated key at each level
        "a:\n  b: 1\n  b: 2",
        "a:\n  b:\n    c: 1\n    c: 2\nd: 3",
        "a: 1 # c",                 # comment
        "a: x: y",                  # ':' in a plain scalar
        "a:x",
        "hello",                    # scalar document
        "a: 1\r\nb: 2",
        "a:\n" + "".join(" " * i + f"k{i}:\n" for i in range(1, 20)),  # past the bound
    ],
)
def test_yaml_guard_cases_reach_exact_parser(monkeypatch, text):
    assert_reaches_exact(monkeypatch, yaml_parser, "parse_yaml", check_yaml, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n  \n",
        "a: 1\nb:\nc: -2.5",
        'a:\n  - 1\n  - x y\n  - "q: x"\nb:\n   c: null\n   d:\n     e: ~',
        "a:\n  a:\n    a: 1\n  b: 2\nb: 3",  # one key name on several levels
        "- a\n- -5\n-  b  ",
        "k-1: x\ntrue: y\nnull: -x",
    ],
)
def test_yaml_subset_accepted_without_exact_parser(monkeypatch, text):
    assert_fast_accept(monkeypatch, yaml_parser, "parse_yaml", check_yaml, text)


def test_toml_yaml_configs_agree(monkeypatch):
    # max_size: the check raises the exact MaxSizeExceeded up front
    cfg = TomlConfig(max_size=16)
    for text in ('a = "' + "x" * 10 + '"', 'a = "' + "x" * 11 + '"', 'a = "' + "é" * 6 + '"'):
        assert_toml_agrees(text, cfg)
    assert _outcome(check_toml, 'a = "' + "é" * 6 + '"', cfg)[0] == "MaxSizeExceeded"
    assert_fast_accept(monkeypatch, toml_parser, "parse_toml", check_toml, 'a = "xxxxxxxxxx"', cfg)
    # max_depth: nesting within the limit is a fast accept; past it the
    # exact parser raises MaxDepthExceeded (and max_depth=0 has no limit)
    for depth in range(1, 11):
        text = "a = " + "[" * depth + "1" + "]" * depth
        for cfg in (TomlConfig(max_depth=2), TomlConfig(max_depth=0)):
            assert_toml_agrees(text, cfg)
    assert _outcome(check_toml, "a = [[[1]]]", TomlConfig(max_depth=2))[0] == "MaxDepthExceeded"
    assert_fast_accept(
        monkeypatch, toml_parser, "parse_toml", check_toml, "a = {b = [1]}", TomlConfig(max_depth=2)
    )
    assert_reaches_exact(
        monkeypatch, toml_parser, "parse_toml", check_toml, "a = {b = [1]}", TomlConfig(max_depth=1)
    )
    nested = "a:\n  b:\n    c: 1"
    for cfg in (YamlConfig(max_depth=1), YamlConfig(max_depth=2), YamlConfig(max_depth=0)):
        assert_yaml_agrees(nested, cfg)
    assert _outcome(check_yaml, nested, YamlConfig(max_depth=2))[0] == "MaxDepthExceeded"
    assert_reaches_exact(
        monkeypatch, yaml_parser, "parse_yaml", check_yaml, nested, YamlConfig(max_depth=2)
    )
    assert_fast_accept(monkeypatch, yaml_parser, "parse_yaml", check_yaml, nested, YamlConfig(max_depth=3))


def test_fast_paths_taken_on_synth_payloads(monkeypatch):
    # valid synth payloads never reach the exact parser
    def boom(*a, **k):
        raise AssertionError("exact parser called")

    monkeypatch.setattr(csv_parser, "parse_csv", boom)
    monkeypatch.setattr(xml_parser, "parse_xml", boom)
    monkeypatch.setattr(toml_parser, "parse_toml", boom)
    monkeypatch.setattr(yaml_parser, "parse_yaml", boom)
    rng = random.Random(7)
    for _ in range(200):
        check_csv(_valid_payload("csv", rng))
        check_xml(_valid_payload("xml", rng))
        check_toml(_valid_payload("toml", rng))
        check_yaml(_valid_payload("yaml", rng))


# -- validate_payloads: round-trip mode steps aside -------------------------

_RT_SPANS = [
    ("csv", 'a,b\n"x, y",2\n'),
    ("csv", '" "\n1\n'),                # round-trip mismatch: quoted " " header
    ("csv", _INVALID_MENU["csv"][0][0]),
    ("xml", '<r a="1&amp;2"><b/><b>t</b>  </r>'),
    ("xml", "<a>x<!--c-->y</a>"),
    ("xml", _INVALID_MENU["xml"][0][0]),
    ("toml", 'a = 1\nb = [1, "x"]\nc = {d = true}'),
    ("toml", _INVALID_MENU["toml"][0][0]),
    ("yaml", "a: 1\nb:\n  - x\n  - 2"),
    ("yaml", _INVALID_MENU["yaml"][0][0]),
]


def _write_one_doc(tmp_path, spans):
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from zparse_ray.schema import SPANS_SCHEMA

    rows = [{
        "doc_id": "d0", "partition_id": 0,
        "spans": [{"kind": k, "text": t, "media_ref": "", "offset": 10 * i}
                  for i, (k, t) in enumerate(spans)],
    }]
    d = str(tmp_path / "spans_dir")
    os.makedirs(os.path.join(d, "spans"))
    pq.write_table(pa.Table.from_pylist(rows, schema=SPANS_SCHEMA),
                   os.path.join(d, "spans", "part-00000.parquet"))
    return d


def test_round_trip_mode_uses_exact_parsers(monkeypatch, tmp_path):
    import zparse_ray.stages.spancheck as S
    from zparse_ray.oracle import oracle_validate

    def boom(*a, **k):
        raise AssertionError("fast path used in round-trip mode")

    for kind in ("csv", "toml", "yaml", "xml"):
        monkeypatch.setitem(S._CHECKERS, kind, boom)
    kinds = np.array([k for k, _ in _RT_SPANS], dtype=object)
    texts = np.array([t for _, t in _RT_SPANS], dtype=object)
    got = [
        (int(i), c, d, int(ln), int(col))
        for i, c, d, ln, col in S.validate_payloads(kinds, texts, np.arange(len(texts)), True)
    ]
    viols, _ = oracle_validate(_write_one_doc(tmp_path, _RT_SPANS), round_trip=True)
    want = [(v["span_index"], v["check_id"], v["detail"], v["line"], v["col"]) for v in viols]
    assert got == want
    assert (1, "RoundTrip", "value mismatch after round-trip", 0, 0) in got


def test_span_validator_fast_and_exact_walks_identical(monkeypatch, tmp_path):
    import glob

    import pyarrow.parquet as pq

    import zparse_ray.stages.spancheck as S
    from zparse_ray.synth import SynthConfig, gen_partition

    batch = gen_partition(SynthConfig(seed=3, n_docs=2_000, n_partitions=2), 0)

    def run(out):
        partials = S.SpanValidator(out_dir=str(out))(batch)
        (viol_file,) = glob.glob(str(out / "violations" / "*.parquet"))
        return partials, pq.read_table(viol_file)

    fast = run(tmp_path / "fast")
    # the masks accept nothing: every span takes the checkers' walk
    for kind in S._ACCEPT_MASKS:
        monkeypatch.setitem(S._ACCEPT_MASKS, kind, lambda texts, cfg: np.zeros(len(texts), bool))
    unmasked = run(tmp_path / "unmasked")
    monkeypatch.setattr(S, "_CHECKERS", S._PARSERS)
    exact = run(tmp_path / "exact")
    for other in (unmasked, exact):
        assert fast[0].equals(other[0])
        assert fast[1].equals(other[1])
    checks = set(fast[1]["check_id"].to_pylist())
    assert fast[1].num_rows > 0 and "InvalidToken" in checks


def test_grouped_walk_keeps_index_order(monkeypatch):
    # kinds interleaved, planted errors among valid payloads, and idxs in
    # an order that is neither sorted nor grouped: the rows come back in
    # idxs order, identical to the exact walk and to a one-by-one walk
    import zparse_ray.stages.spancheck as S

    rng = random.Random(11)
    spans = []
    for _ in range(8):
        for kind in ("yaml", "json", "toml", "csv", "xml", "jsonc"):
            spans.append((kind, _valid_payload(kind, rng)))
            spans.append((kind, rng.choice(_INVALID_MENU[kind])[0]))
    rng.shuffle(spans)
    kinds = np.array([k for k, _ in spans], dtype=object)
    texts = np.array([t for _, t in spans], dtype=object)
    idxs = np.array(rng.sample(range(len(spans)), len(spans) - 5))

    def row(i):
        try:
            S._PARSERS[kinds[i]](texts[i])
        except ParseError as e:
            return (i, e.check_id, e.message, e.line, e.col)
        except RecursionError:
            return (i, "MaxDepthExceeded", "recursion limit", 0, 0)
        return None

    one_by_one = [r for r in map(row, idxs) if r is not None]
    fast = S.validate_payloads(kinds, texts, idxs, False)
    monkeypatch.setattr(S, "_CHECKERS", S._PARSERS)
    exact = S.validate_payloads(kinds, texts, idxs, False)
    assert fast == exact == one_by_one
    assert len(fast) >= 30 and {k for k, _ in spans} == set(kinds[[r[0] for r in fast]])


# -- JSON / JSONC: orjson may only accept -----------------------------------

_JSON_TOKENS = [
    "{", "}", "[", "]", ",", ":", '"', '"k"', '"a b"', "0", "1", "-", "2.5", "e", "E", "+",
    ".", "true", "false", "null", "nul", " ", "\t", "\n", "\r", "\\", "\\n", "\\u00e9",
    "\\ud83d\\ude00", "\\ud800", "\\q", "/", "*", "//", "/*", "*/", "\x00", "\x01", "\x0c",
    "\x1f", "\x7f", "é", "☃", "\U0001f600", "\ufeff", "NaN", "Infinity", "x",
]
_JSON_CHARS = '{}[],:"0123456789-+.eE \t\n\r\\/*ux\x00\x01\x0c\x1f'
_JSON_CFGS = [JsonConfig(max_depth=1), JsonConfig(max_depth=2), JsonConfig(max_size=16),
              JsonConfig(allow_comments=True), JsonConfig(allow_trailing_commas=True),
              JsonConfig(max_depth=2000)]


def assert_json_agrees(text, cfg=None):
    assert _outcome(check_json, text, cfg) == _outcome(parse_json, text, cfg), (text, cfg)
    assert _outcome(check_jsonc, text, cfg) == _outcome(parse_jsonc, text, cfg), (text, cfg)


def _json_like(rng: random.Random) -> str:
    """Token soup, or a valid synth JSON payload with up to three
    one-char mutations."""
    if rng.random() < 0.5:
        return "".join(rng.choice(_JSON_TOKENS) for _ in range(rng.randrange(12)))
    text = _valid_payload("json", rng)
    for _ in range(rng.randrange(4)):
        text = _mutate(text, rng, _JSON_CHARS)
    return text


def test_check_json_matches_parse_json_on_random_strings():
    rng = random.Random(20240)
    outcomes = {True: 0, False: 0}
    for _ in range(200_000):
        text = _json_like(rng)
        want = _outcome(parse_json, text)
        assert _outcome(check_json, text) == want, text
        assert _outcome(check_jsonc, text) == _outcome(parse_jsonc, text), text
        outcomes[want is None] += 1
    assert min(outcomes.values()) > 40_000, outcomes


def test_check_json_matches_parse_json_with_configs():
    rng = random.Random(20241)
    for _ in range(20_000):
        text = _json_like(rng)
        assert_json_agrees(text, rng.choice(_JSON_CFGS))


def test_synth_json_spans_agree():
    # every JSON and JSONC span of validate_mixed-sized synth data, seeds 1-3
    import pyarrow.compute as pc

    from zparse_ray.synth import SynthConfig, gen_partition

    n = 0
    for seed in (1, 2, 3):
        cfg = SynthConfig(seed=seed, n_docs=20_000, n_partitions=16)
        for pid in range(cfg.n_partitions):
            spans = gen_partition(cfg, pid)["spans"].combine_chunks().flatten()
            kinds = spans.field("kind")
            for kind, check, parse in (("json", check_json, parse_json),
                                       ("jsonc", check_jsonc, parse_jsonc)):
                for text in spans.field("text").filter(pc.equal(kinds, kind)).to_pylist():
                    assert _outcome(check, text) == _outcome(parse, text), (kind, text)
                    n += 1
    assert n > 60_000


_DEEP = {d: "[" * d + "1" + "]" * d for d in (128, 129, 1024, 1025)}
_DEEP_OBJ = {d: '{"a":' * d + "1" + "}" * d for d in (128, 129, 1024, 1025)}


@pytest.mark.parametrize(
    "text",
    [
        "\ufeff{}", '"\\ud83d\\ude00"', '["\\ud83d\\ude00"]', '"\\ud800"', '"\\udc00x"',
        "1e400", "-1e400", "1" * 30, "-" + "9" * 30 + ".5e3", "-0", "-0.0e-0", "NaN",
        "Infinity", "-Infinity", '["a\tb"]', '"a\x01b"', '"\x7f"', "\x0c1", "1\x0c",
        "\xa01", " \t\n\r[1] \r\n", '"\ud800"', "", " ", "1 2", "01", "1.", ".5", "+1",
        '{"a":1,"a":2}', "[1,]", '{"a":1,}', "[1,\n]", "[1 , ]", "// c\n[1]", "/* c */ 1",
        "[1 /* c */]", '{"a": 1 /* oops', '{"a": "x/y"}', '["a,]"]', '{"u": "\\u00e9"}',
    ],
)
def test_json_guard_cases_agree(text):
    assert_json_agrees(text)
    for cfg in _JSON_CFGS:
        assert_json_agrees(text, cfg)


def test_escaped_surrogate_pair_is_rejected_though_orjson_accepts():
    # orjson combines the pair; the reference rejects each surrogate
    # escape, so only the "\\" guard keeps check_json exact
    import orjson

    text = '"\\ud83d\\ude00"'
    assert orjson.loads(text) == "\U0001f600"
    assert _outcome(check_json, text) == ("InvalidUnicodeEscape", "invalid unicode escape", 3, 1, 4)


@pytest.mark.parametrize("depth,check", [(128, None), (129, "MaxDepthExceeded"),
                                         (1024, "MaxDepthExceeded"), (1025, "MaxDepthExceeded")])
def test_json_depth_bound(depth, check):
    for text in (_DEEP[depth], _DEEP_OBJ[depth]):
        got = _outcome(check_json, text)
        assert (got and got[0]) == check
        assert_json_agrees(text)
        for cfg in _JSON_CFGS:
            assert_json_agrees(text, cfg)


def test_deep_json_past_default_depth_reaches_exact_parser(monkeypatch):
    # max_depth above the default: a deep text orjson accepts is still
    # decided by parse_json, whose own walk may end in a RecursionError
    cfg = JsonConfig(max_depth=2000)
    assert_reaches_exact(monkeypatch, json_parser, "parse_json", check_json, _DEEP[129], cfg)
    assert_fast_accept(monkeypatch, json_parser, "parse_json", check_json, _DEEP[128], cfg)


@pytest.mark.parametrize(
    "text,cfg",
    [('"\\n"', None), ("[1,]", JSONC_CONFIG), ("// c\n1", JSONC_CONFIG),
     ('{"a": [1, 2]}', JsonConfig(max_depth=1)), ('"abcd"', JsonConfig(max_size=5)),
     ('"\ud800"', None)],
)
def test_json_guard_misses_reach_exact_parser(monkeypatch, text, cfg):
    assert_reaches_exact(monkeypatch, json_parser, "parse_json", check_json, text, cfg)


def test_json_fast_path_taken_on_synth_payloads(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("exact parser called")

    monkeypatch.setattr(json_parser, "parse_json", boom)
    rng = random.Random(9)
    for _ in range(500):
        text = _valid_payload("json", rng)
        check_json(text)
        check_jsonc(text)


def test_json_parser_configs_through_validate_payloads(monkeypatch):
    # a non-default JsonConfig reaches the checkers through
    # parser_configs: the fast walk equals the exact one span by span
    import zparse_ray.stages.spancheck as S

    cfgs = S.build_parser_configs(max_depth=3, allow_comments=True)
    rng = random.Random(13)
    spans = []
    for kind in ("json", "jsonc"):
        for _ in range(40):
            spans.append((kind, _valid_payload(kind, rng)))
            spans.append((kind, _json_like(rng)))
        spans += [(kind, t) for t, _ in _INVALID_MENU[kind]]
        spans += [(kind, "[[[1]]]"), (kind, "[[[[1]]]]"), (kind, "[1, // c\n 2,]")]
    kinds = np.array([k for k, _ in spans], dtype=object)
    texts = np.array([t for _, t in spans], dtype=object)
    idxs = np.arange(len(spans))
    fast = S.validate_payloads(kinds, texts, idxs, False, cfgs)
    monkeypatch.setattr(S, "_CHECKERS", S._PARSERS)
    exact = S.validate_payloads(kinds, texts, idxs, False, cfgs)
    assert fast == exact
    rows = {int(i): c for i, c, *_ in fast}
    for i, (_, text) in enumerate(spans):
        if text == "[[[[1]]]]":
            assert rows[i] == "MaxDepthExceeded"
        elif text.startswith(("[[[1]]]", "[1, //")):  # within depth; comment + trailing comma
            assert i not in rows


# -- column accept masks ----------------------------------------------------

_UNICODE_SPACES = ["\x85", "\xa0", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f"]


def _mask_column(kind, rng, n, alphabet, cfg=None):
    """``n`` valid synth payloads of ``kind``, about half of them with up
    to three one-char mutations, in one column."""
    texts = []
    for _ in range(n):
        text = _valid_payload(kind, rng)
        for _ in range(rng.randrange(4) if rng.random() < 0.5 else 0):
            text = _mutate(text, rng, alphabet)
        texts.append(text)
    return texts


@pytest.mark.parametrize(
    "kind,alphabet,cfgs",
    [
        ("csv", '",; \t|\n\r\x0ca1\x1c\x85', [CsvConfig(delimiter=d) for d in DELIMITERS]),
        ("toml", "\"'[]{}=,.#\n\r\t -+_019eEtfk:TZ\\\x00", _TOML_CFGS),
        ("yaml", "\"'[]{}:,#\n\r\t -+_01k\\\x85\u3000", _YAML_CFGS),
    ],
)
def test_masks_on_whole_columns(kind, alphabet, cfgs):
    # one call per column, as phase 1 makes it: accepted spans sit next to
    # rejected ones in the same buffers
    rng = random.Random(29)
    for cfg in cfgs:
        texts = _mask_column(kind, rng, 600, alphabet, cfg)
        if kind == "csv" and cfg.delimiter != ",":
            texts = [t.replace(",", cfg.delimiter) for t in texts]
        got = mask_accepts(kind, texts, cfg)
        assert sum(got) > 50, (kind, cfg)


def test_masks_accept_valid_synth_payloads():
    # every valid synth payload is accepted, so phase 1 walks none of them
    rng = random.Random(7)
    for kind in _MASKS:
        texts = [_valid_payload(kind, rng) for _ in range(300)]
        assert all(mask_accepts(kind, texts)), kind


def test_mask_configs_and_delimiters():
    # max_size at its boundary; the level cap min(2, max_depth); the
    # delimiter's own shape; a bad delimiter accepts nothing
    assert mask_accepts("toml", ['a = "' + "x" * 10 + '"', 'a = "' + "x" * 11 + '"', 'a = "' + "é" * 6 + '"'],
                        TomlConfig(max_size=16)) == [True, False, False]
    assert mask_accepts("csv", ["a\n" + "x" * 14, "a\n" + "x" * 15], CsvConfig(max_size=16)) == [True, False]
    for cfg in _TOML_CFGS:
        got = mask_accepts("toml", ["a = 1", "a = [1]", "a = [[1]]", "a = {b = [1]}", "a = [[[1]]]"], cfg)
        levels = 1 if cfg is not None and cfg.max_depth == 1 else 2
        assert got == [d <= levels for d in (0, 1, 2, 2, 3)], cfg
    for cfg in _YAML_CFGS:
        got = mask_accepts("yaml", ["a: 1", "a:\n  b: 1", "a:\n  b:\n    c: 1"], cfg)
        levels = 2 if cfg is None or cfg.max_depth in (0, 2) else cfg.max_depth
        assert got == [n <= levels for n in (1, 2, 3)], cfg
    for d in DELIMITERS:
        texts = [f'a{d}b\n"x{d}y"{d}"q""q"', f'a{d}b\n"x"z{d}1', f'a{d}b\n"x" {d}1']
        assert mask_accepts("csv", texts, CsvConfig(delimiter=d)) == [True, False, True], d
    for d in ("\n", "\r", '"', ";;"):
        assert mask_accepts("csv", ["a,b\n1,2"], CsvConfig(delimiter=d)) == [False]


@pytest.mark.parametrize(
    "text,accepted",
    [
        ("a,b\n1,2", True),
        ('a\n"x, ""y"""\n', True),
        ('a\n"x\ny"\r\n"z"\r', True),       # line breaks inside quotes; \r and \r\n records
        ('a\n"x" \n', True),                # blanks after a closing quote
        ('a\n"x"\t,1\n', True),
        ('a\n"x\x00y"\n', True),
        ('a\n"x\x85y"\n', True),
        ("a\x1c\x1f\xa0\u2028,b\n1,2", True),  # no quote: valid whatever the bytes
        ('"""', False),                     # unterminated
        ('""1', False),                     # junk after a closing quote
        ('a,b\n"x"y,2\n', False),
        ('a,b\n"unterm\n', False),
        ('a\x1c"x\n"\n', False),            # a quote inside an unquoted field
        ('x"y', False),
        ('"ab""', False),
        ('a\n"x" y\n', False),
        ('a\n"x"\x0b\n', False),            # \v is no blank after a quote
    ],
)
def test_csv_mask_guard_cases(text, accepted):
    assert mask_accepts("csv", [text]) == [accepted]
    assert_csv_agrees(text)


@pytest.mark.parametrize(
    "text",
    [
        "a = 1\na = 2",                                 # a repeated key at depth 0
        "a = {b = 1, b = 2}",                           # ... in an inline table (depth 1)
        "a = {b = {c = 1, c = 2}}",                     # ... at depth 2
        "a = [{b = 1, b = 2}]",
        "a = [{b = 1}, {c = {d = 1, d = 2}}]",
        "a = {b = 1}\nc = 2\na = 3",
        'a = "x = {"\nb = {c = 1, c = 2}',              # '=' and '{' inside strings
        'a = {b = "}", b = 1}',
        "a = {k = 1, kk = 2, k = 3}",
        "true = 1",                                     # bool keys: InvalidKey
        "a = {false = 1}",
        "a = 1\n\ta = 2",                               # tabs around keys
        'a = """x"""',                                  # multi-line strings
        'a = """',
        'a = ""1',
        "a = 1\r\nb = 2",
        "a = \x00",
        'a = "\x00"',
        "a = 1234567890123456789",                      # 19 digits
        "a = 9223372036854775808",
        "a = [1 2]",
        "a = [1,,]",
        "a = [,]",
        "a = {b = 1 c = 2}",
        "a = {,}",
        "a = [1]]",
        "a = [[1]",
        "a = {b = 1}}",
        "a = [[[1]]]",                                  # past the two levels
        "a = 1e5",
        "a = 1.",
        "a = +1",
        'a = "\x85"\na = 1',
        "k0 = {k0 = [\"\"]}\nk0 = 1",
    ],
)
def test_toml_mask_steps_aside(text):
    assert mask_accepts("toml", [text]) == [False]
    assert_toml_agrees(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        'k0 = {k0 = [""]}',                             # one name in several scopes
        "a = {a = {a = 1}, b = 2}\nb = {a = 1}",
        "a = [{b = 1}, {b = 2}]",
        "a = [1, 2,]\nb = {c = 1,}\nc = []\nd = {}",     # trailing commas, empty containers
        '\t a\t=\t"x#y[z]={\'"  \n\n',
        'a = "\x85\xa0\u2028\u3000\x1c\x1f"',
        "a = 123456789012345678\nb = -1.5\nc = true\nd = false",
        "k-1 = 1\ntrue-x = 2\ninf = 3\nk12 = 4\nfalse_ = 5\ntrues = 6",
        "a = {" + ", ".join(f"k{i} = {i}" for i in range(40)) + "}",
        "a_very_long_key_name_indeed = 1\nb_very_long_key_name_indeed = 2",
    ],
)
def test_toml_mask_accepts_the_subset(text):
    assert mask_accepts("toml", [text]) == [True]


@pytest.mark.parametrize(
    "text",
    [
        "a: 1\na: 2",                                   # a repeated key at the root
        "a:\n  b: 1\n  b: 2",                           # ... in a child mapping
        "a:\n  b: 1\nc:\n  d: 1\nc: 2",
        "a: 1\n  b: 2",                                 # deeper under a scalar
        "- 1\n  - 2",
        "a:\n    b: 1\n  c: 2",                         # a dedent onto no level
        "a:\n  - 1\n - 2",
        "a:\n  - 1\n  b: 2",                            # keys and items in one level
        "a: 1\n- 2",
        "- 1\na: 2",
        " a: 1",                                        # root not at indent 0
        "a:\n  b:\n    c: 1",                           # past the two levels
        "a:\n\tb: 1",                                   # tabs
        "a:\t1",
        "a: 1\r\nb: 2",
        "a: x\x85",                                     # Python whitespace in a plain scalar
        "a: \xa0",
        "- \u2028",
        "a: x\u3000y",
        "a: x\x1cy",
        "k: \u3000\n  a: 1",
        "a: 'x'",
        'a: "x\\ny"',
        'a: "x',
        "a: [1]",
        "a: 1 # c",
        "-",
        "- k: v",
        "a:x",
        "hello",
    ],
)
def test_yaml_mask_steps_aside(text):
    assert mask_accepts("yaml", [text]) == [False]
    assert_yaml_agrees(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n  \n",
        "a: 1\nb:\nc: -2.5",
        'a:\n  - 1\n  - x y\n  - "q: x"\nb:\n   c: null\n   d: ~',
        "a:\n  a: 1\n  b: 2\nb:\n  a: 1",              # one key name in several mappings
        "- a\n- -5\n-  b  ",
        "k-1: x\ntrue: y\nnull: -x",
        'a: "\x85\u3000 x"',
        "a:\n\n  b: 1\n   \n  c: 2\nd: 3\n",
        "a:\nb:\n  - 1\n",
    ],
)
def test_yaml_mask_accepts_the_subset(text):
    assert mask_accepts("yaml", [text]) == [True]


def test_masks_read_spans_apart_in_one_column():
    # each span's keys, quotes and lines are its own: a repeat across two
    # spans is no repeat, and an odd quote in a rejected span does not
    # shift the next span's strings
    toml = ["a = 1", "a = 2", 'x = "unterm', 'b = "{", b2 = 1', "b = {c = 1}", "c = 1\nc = 2", ""]
    assert mask_accepts("toml", toml) == [True, True, False, False, True, False, True]
    yaml = ["a:", "  b: 1", "a: 1", "a:\n  b: 1\n", "  c: 2", "b: 1\nb: 2", ""]
    assert mask_accepts("yaml", yaml) == [True, False, True, True, False, False, True]
    # a sliced column and 64-bit offsets read the same spans
    for kind, texts in (("toml", toml), ("yaml", yaml)):
        mask = _MASKS[kind][0]
        want = mask(pa.array(texts), None)
        assert mask(pa.array(["x = 1\nx = 2"] + texts).slice(1), None).tolist() == want.tolist()
        assert mask(pa.array(texts, pa.large_string()), None).tolist() == want.tolist()


def test_kernels_read_a_sliced_column_from_its_first_span():
    # byte_view leaves out the bytes before a sliced array's first span,
    # so a quote or a line break there changes nothing after it
    col = pa.array(['"', "k = 1\nk = 2", "a = {b = 1}"]).slice(1)
    offs, buf = byte_view(col)
    assert offs.tolist() == [0, 11, 22]
    assert bytes(buf) == b"k = 1\nk = 2a = {b = 1}\x00"
    assert toml_parser._bad_keys(col).tolist() == [True, False]
    col = pa.array(['"\n  x', "b: 1\nb: 2", "a:\n  b: 1"]).slice(1)
    assert yaml_parser._bad_blocks(col, 2).tolist() == [True, False]
