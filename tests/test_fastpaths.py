"""Accept-only fast paths: ``check_csv`` / ``check_xml`` against the exact
parsers.

A fast path may only say "valid". Everything else runs the exact parser,
so on every input the checker raises exactly when the parser raises, with
the same (check_id, message, offset, line, col). The differential
property tests below generate grammar-relevant garbage, quote- and
tag-heavy text and one-char mutations of valid synth payloads, and pin
the hand-picked inputs that sit on either side of each guard.
"""

import csv
import random
import sys
from xml.parsers.expat import ParserCreate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zparse_ray.functions import csv_parser, xml_parser
from zparse_ray.functions.csv_parser import CsvConfig, check_csv, parse_csv
from zparse_ray.functions.errors import ParseError
from zparse_ray.functions.xml_parser import XmlConfig, check_xml, parse_xml
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


def assert_csv_agrees(text, delimiter=","):
    cfg = CsvConfig(delimiter=delimiter)
    assert _outcome(check_csv, text, cfg) == _outcome(parse_csv, text, cfg), (text, delimiter)


def assert_xml_agrees(text, cfg=None):
    assert _outcome(check_xml, text, cfg) == _outcome(parse_xml, text, cfg), text


_csv_text = st.text(alphabet=st.sampled_from(list('"",,;\t| \x0c\n\r\r\nab1 é\x00')), max_size=60)
_xml_text = st.lists(
    st.sampled_from(
        ["<a>", "</a>", "<b>", "</b>", "<a/>", "<b ", 'x="1"', "y='2'", " ", "\n", "/>", ">",
         "<", "&amp;", "&lt;", "&#65;", "&#x41;", "&#0;", "&bogus;", "&", ";", "]]>", "<!--c-->",
         "<?p?>", "<!", "é", "t", "=", '"', "\x00", "\x0c", ":", "-", "."]
    ),
    max_size=24,
).map("".join)


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


def test_fast_paths_taken_on_synth_payloads(monkeypatch):
    # valid synth payloads never reach the exact parser
    def boom(*a, **k):
        raise AssertionError("exact parser called")

    monkeypatch.setattr(csv_parser, "parse_csv", boom)
    monkeypatch.setattr(xml_parser, "parse_xml", boom)
    rng = random.Random(7)
    for _ in range(200):
        check_csv(_valid_payload("csv", rng))
        check_xml(_valid_payload("xml", rng))


# -- validate_payloads: round-trip mode steps aside -------------------------

_RT_SPANS = [
    ("csv", 'a,b\n"x, y",2\n'),
    ("csv", '" "\n1\n'),                # round-trip mismatch: quoted " " header
    ("csv", _INVALID_MENU["csv"][0][0]),
    ("xml", '<r a="1&amp;2"><b/><b>t</b>  </r>'),
    ("xml", "<a>x<!--c-->y</a>"),
    ("xml", _INVALID_MENU["xml"][0][0]),
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

    monkeypatch.setitem(S._CHECKERS, "csv", boom)
    monkeypatch.setitem(S._CHECKERS, "xml", boom)
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
    monkeypatch.setattr(S, "_CHECKERS", S._PARSERS)
    exact = run(tmp_path / "exact")
    assert fast[0].equals(exact[0])
    assert fast[1].equals(exact[1])
    checks = set(fast[1]["check_id"].to_pylist())
    assert fast[1].num_rows > 0 and "InvalidToken" in checks
