"""CSV parser + type inference.

Re-implements the reference's RFC-4180-ish CSV semantics (reference:
crates/zparse/src/csv/parser.rs, csv.rs:7-34):

- records split on ``\\n`` / ``\\r`` / ``\\r\\n``; blank records (all
  fields unquoted + whitespace) skipped (parser.rs:353-357)
- quoted fields: ``""`` escape, embedded newlines allowed; after the
  closing quote only space/tab/formfeed then delimiter/newline/EOF —
  anything else -> InvalidToken (parser.rs:252-266)
- unterminated quoted field -> InvalidToken (parser.rs:285)
- headers: first record; unquoted names trimmed; empty -> ``column_{i+1}``;
  duplicates -> ``name_2``, ``name_3``, ... (parser.rs:313-342)
- overflow cells beyond the header width -> ``column_{i+1}`` keys
  (parser.rs:133-138); missing cells -> Null
- type inference on UNQUOTED fields only (csv.rs:7-34):
  empty / "null" (ci) -> Null; "true"/"false" (ci) -> Bool;
  finite i64/f64 -> Number(f64); else trimmed String.
  Quoted fields are always String, untrimmed.
- delimiter must not be newline/CR/quote (parser.rs:87-94)
- ``max_size`` checked up-front (parser.rs:96-105); UTF-8 enforced on
  bytes input

Result shape: Array of Objects, one per data record (parser.rs:119-148).

Accept paths: ``check_csv`` says "valid" through ``csv.reader``, and
``accept_mask_csv`` for a whole Arrow column at once, with one RE2 match.
"""

from __future__ import annotations

import csv as _csv
import io
import math
import re
from functools import lru_cache as _lru_cache
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .columnar import full_match, size_ok
from .errors import INVALID_TOKEN, MAX_SIZE_EXCEEDED, ParseError

DEFAULT_MAX_SIZE = 10 * 1024 * 1024


@dataclass(frozen=True)
class CsvConfig:
    delimiter: str = ","
    max_size: int = DEFAULT_MAX_SIZE


# shared default: a frozen dataclass costs ~0.5 us to build per call
_DEFAULT_CONFIG = CsvConfig()


_INT_RE = re.compile(r"[+-]?\d+\Z")
# Rust f64::from_str grammar (no underscores, optional leading +):
_FLOAT_RE = re.compile(
    r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z|[+-]?(?:inf(?:inity)?|nan)\Z",
    re.IGNORECASE,
)


def infer_primitive(trimmed: str):
    """csv.rs:7-34 — returns the inferred Value or a sentinel None-miss."""
    if trimmed == "" or trimmed.lower() == "null":
        return None, True
    low = trimmed.lower()
    if low == "true":
        return True, True
    if low == "false":
        return False, True
    if _INT_RE.match(trimmed):
        try:
            iv = int(trimmed)
        except ValueError:
            return None, False
        if -(2**63) <= iv < 2**63:
            f = float(iv)
            if math.isfinite(f):
                return f, True
        # i64 overflow falls through to the plain-f64 branch (Rust parity)
    if _FLOAT_RE.match(trimmed):
        try:
            f = float(trimmed)
        except ValueError:
            return None, False
        if math.isfinite(f):
            return f, True
    return None, False


def infer_field(value: str, quoted: bool):
    if quoted:
        return value
    trimmed = value.strip()
    v, hit = infer_primitive(trimmed)
    return v if hit else trimmed


def _invalid(msg: str, offset: int = 0) -> ParseError:
    return ParseError(INVALID_TOKEN, msg, offset, 1, 1)


# atomic group (Python 3.11+): no backtracking out of the field body, so
# an unterminated `"ab""cd` fails the whole match (-> unterminated error)
# instead of backtracking into a bogus shorter field + junk-after-quote.
# The trailing-whitespace class is built per delimiter: the reference skips
# space/tab/formfeed after a closing quote "but NOT the delimiter"
# (csv/parser.rs:252-266), so a whitespace delimiter must be excluded or
# the pattern would eat it and misreport junk-after-quote.
def _quoted_re(delim: str) -> re.Pattern:
    ws = "".join(c for c in " \t\x0c" if c != delim)
    tail = f"[{re.escape(ws)}]*" if ws else ""
    return re.compile(r'"((?>(?:[^"]|"")*))"' + tail)


@_lru_cache(maxsize=16)
def _delim_patterns(delim: str) -> tuple[re.Pattern, re.Pattern]:
    """Per-delimiter compiled patterns, cached across parser instances —
    re.compile's own cache lookup was ~12% of small-doc parse time."""
    return re.compile(f"[^{re.escape(delim)}\r\n]*"), _quoted_re(delim)


class _CsvParser:
    __slots__ = ("text", "n", "delim", "unquoted_re", "quoted_re")

    def __init__(self, text: str, delim: str):
        self.text = text
        self.n = len(text)
        self.delim = delim
        self.unquoted_re, self.quoted_re = _delim_patterns(delim)

    def parse_field(self, i: int) -> tuple[str, bool, int]:
        text, n, delim = self.text, self.n, self.delim
        if i >= n or text[i] == delim or text[i] in "\r\n":
            return "", False, i
        if text[i] == '"':  # quoted field: one C-level match + replace
            m = self.quoted_re.match(text, i)
            if m is None:
                raise _invalid("unterminated quoted CSV field", i + 1)
            j = m.end()
            if j < n and text[j] != delim and text[j] not in "\r\n":
                # trailing ws was consumed by the pattern; anything else
                # after the closing quote is junk (csv/parser.rs:260-266).
                # NB a pattern end at `""` inside an unterminated field
                # also lands here or at EOF correctly: `(?:[^"]|"")*` is
                # greedy so it only stops at a true lone closing quote.
                raise _invalid("invalid character after quoted CSV field", j)
            return m.group(1).replace('""', '"'), True, j
        m = self.unquoted_re.match(text, i)
        return m.group(), False, m.end()

    def parse_record(self, i: int) -> tuple[list[tuple[str, bool]], int]:
        fields: list[tuple[str, bool]] = []
        text, n, delim = self.text, self.n, self.delim
        while True:
            val, quoted, i = self.parse_field(i)
            fields.append((val, quoted))
            if i >= n:
                break
            c = text[i]
            if c == delim:
                i += 1
            elif c == "\n":
                i += 1
                break
            elif c == "\r":
                i += 1
                if i < n and text[i] == "\n":
                    i += 1
                break
            else:
                raise _invalid("invalid character after CSV field", i)
        return fields, i

    def parse_records(self) -> list[list[tuple[str, bool]]]:
        text, n = self.text, self.n
        if '"' not in text and "\r" not in text:
            # fast path: without quotes there is no error production and
            # every field is a plain split — C-speed str.split per line;
            # blank-record skip identical to the scanner below
            delim = self.delim
            recs = []
            append = recs.append
            for line in text.split("\n"):
                fields = line.split(delim)
                for f in fields:
                    if f and not f.isspace():
                        append([(f, False) for f in fields])
                        break
            return recs
        records = []
        i = 0
        while i < n:
            if text[i] == "\n":
                i += 1
                continue
            if text[i] == "\r":
                i += 1
                if i < n and text[i] == "\n":
                    i += 1
                continue
            record, i = self.parse_record(i)
            if not _is_blank(record):
                records.append(record)
        return records


def _is_blank(record: list[tuple[str, bool]]) -> bool:
    return all((not q) and v.strip() == "" for v, q in record)


def normalize_headers(header: list[tuple[str, bool]]) -> list[str]:
    names: list[str] = []
    for i, (val, quoted) in enumerate(header):
        name = val if quoted else val.strip()
        if name == "":
            name = f"column_{i + 1}"
        unique = name
        suffix = 2
        while unique in names:
            unique = f"{name}_{suffix}"
            suffix += 1
        names.append(unique)
    return names


def _checked_text(text: str | bytes, cfg: CsvConfig) -> str:
    """The up-front guards (parser.rs:87-105): delimiter, UTF-8, size."""
    if cfg.delimiter in ('\n', '\r', '"') or len(cfg.delimiter) != 1:
        raise _invalid(
            "invalid CSV delimiter: delimiter cannot be newline, carriage return, or quote"
        )
    if isinstance(text, bytes):
        size = len(text)
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise _invalid("csv must be utf-8") from e
    else:
        size = len(text.encode("utf-8", "surrogatepass"))
    if cfg.max_size > 0 and size > cfg.max_size:
        raise ParseError(MAX_SIZE_EXCEEDED, f"maximum size exceeded: {cfg.max_size}", 0, 1, 1)
    return text


@_lru_cache(maxsize=16)
def _strict_dialect(delim: str):
    """A built ``csv`` dialect per delimiter: passing one skips the
    per-call keyword validation (about 0.7 us of a 5 us check)."""
    return _csv.reader((), delimiter=delim, strict=True).dialect


def check_csv(text: str | bytes, config: CsvConfig | None = None) -> None:
    """Recognizer-only form of ``parse_csv``: raise exactly what it
    raises, build no rows.

    Without a ``"`` the scanner has no error production, so the text is
    valid. Otherwise the C ``csv.reader`` (strict) may say "valid": it
    rejects everything the reference rejects (unterminated quote, junk
    after a closing quote). Any ``csv.Error`` — including inputs the
    reference accepts, like whitespace after a closing quote — runs the
    exact parser, which raises the precise error or accepts.

    The reader's lines come from ``StringIO(newline="")``, which breaks
    only at ``\\r``, ``\\n`` and ``\\r\\n``, the reference's record ends.
    ``str.splitlines`` also breaks at ``\\x1c``, ``\\x85`` and others,
    which would start extra fields where a quote can hide an error.
    """
    cfg = config or _DEFAULT_CONFIG
    text = _checked_text(text, cfg)
    if '"' not in text:
        return
    try:
        for _ in _csv.reader(io.StringIO(text, newline=""), _strict_dialect(cfg.delimiter)):
            pass
    except _csv.Error:
        parse_csv(text, cfg)


def parse_csv(text: str | bytes, config: CsvConfig | None = None) -> list:
    cfg = config or _DEFAULT_CONFIG
    text = _checked_text(text, cfg)
    records = _CsvParser(text, cfg.delimiter).parse_records()
    if not records:
        return []
    headers = normalize_headers(records[0])
    n_h = len(headers)
    rows = []
    append = rows.append
    for record in records[1:]:
        # parse_records already dropped blank records
        vals = [infer_field(v, q) for v, q in record]
        obj = dict(zip(headers, vals))
        if len(record) < n_h:
            for h in headers[len(record):]:
                obj[h] = None
        elif len(record) > n_h:
            for i in range(n_h, len(record)):
                obj[f"column_{i + 1}"] = vals[i]
        append(obj)
    return rows


# -- column accept mask ---------------------------------------------------------
def _re2_char(c: str) -> str:
    return rf"\x{{{ord(c):x}}}"


@_lru_cache(maxsize=16)
def _csv_shape(delim: str) -> str:
    """Records of fields split by the delimiter or a line break, where a
    field holds no ``"`` or is quoted whole: ``"…"`` with ``""`` escapes,
    then only the blanks the reference skips before the next delimiter,
    line break or the end."""
    d = _re2_char(delim)
    blank = "".join(_re2_char(c) for c in " \t\x0c" if c != delim)
    field = rf'(?:"(?:[^"]|"")*"[{blank}]*|[^"{d}\r\n]*)'
    return rf"\A{field}(?:(?:{d}|\r\n?|\n){field})*\z"


def accept_mask_csv(texts: pa.StringArray, config: CsvConfig | None = None) -> np.ndarray:
    """Which spans of ``texts`` ``check_csv`` accepts, decided for the
    whole column at once; a False says nothing (the span runs
    ``check_csv``). A span is accepted if it fits ``max_size`` and has
    no ``"`` (``check_csv``'s own rule) or every quoted field is quoted
    whole; a bad delimiter accepts nothing."""
    cfg = config or _DEFAULT_CONFIG
    if cfg.delimiter in ("\n", "\r", '"') or len(cfg.delimiter) != 1:
        return np.zeros(len(texts), bool)
    return full_match(texts, _csv_shape(cfg.delimiter)) & size_ok(texts, cfg.max_size)
