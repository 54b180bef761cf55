"""TOML lexer + parser.

Re-implements the reference's TOML grammar (reference:
crates/zparse/src/lexer/toml.rs, toml/parser.rs) in Python:

- bare keys ``[A-Za-z0-9_-]+``; ``true``/``false`` are bools
- 4 string kinds: basic ``"..."``, literal ``'...'``, multiline
  ``\"\"\"...\"\"\"`` / ``'''...'''`` (lexer/toml.rs:157-397); escapes
  ``\\" \\\\ \\n \\r \\t \\b \\f \\uXXXX \\UXXXXXXXX`` (:239-325);
  single-line strings may not contain raw newlines -> UnterminatedString
- numbers: optional sign, ``_`` separators stripped; ``inf``/``nan``
  specials; ``.``/``e``/``E`` -> f64; else i64 (:424-496). Integer and
  float both erase to Number(f64) at the Value level (toml/parser.rs:274-275)
- datetime heuristic: the number-charset run is datetime-like if it
  contains ``T``/``:`` or ends with ``Z``/``z``, or has >=2 dashes and
  len>=8 (:513-528); then strictly parsed as RFC3339 offset datetime /
  local datetime / local date / local time -> InvalidDatetime otherwise
  (toml/parser.rs:492-536)
- tables ``[a.b]``, array-of-tables ``[[a.b]]`` with append semantics
  (toml/parser.rs:593-733), dotted keys, inline tables
- duplicate key -> DuplicateKey (:918-924); intermediate key conflicts ->
  InvalidKey "key already assigned" (:565-571)
- newline illegal in table header (:213-219) and inline table (:430-435);
  unterminated array -> InvalidArray; trailing commas ARE allowed in
  arrays and inline tables (reference behavior)
- re-opening an existing ``[table]`` header is allowed (reference
  behavior: ensure_table_path finds the existing Object and proceeds)

Deliberate divergence (documented): the reference's single-line basic
string treats ``'`` as the escape introducer (lexer/toml.rs:180-183) —
an obvious typo untested by its suite; we use ``\\`` (standard TOML,
and what the reference's multiline strings use).

Accept path: ``check_toml`` is the recognizer-only form that validation
without round-trip uses. It accepts, with a few regex passes and no DOM,
flat ``bare = value`` lines whose values are escape-free basic strings,
decimal ints of at most 18 digits, plain decimals, bools, and
single-line arrays / inline tables of those with distinct keys; any
other text runs ``parse_toml``, so errors are always the parser's.
``accept_mask_toml`` decides the same subset (nested at most two deep)
for a whole Arrow column at once, with RE2 and numpy.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..value import DT_DATE, DT_LOCAL, DT_OFFSET, DT_TIME, TomlDatetime
from .columnar import (
    byte_view,
    full_match,
    literal_hash,
    mask_levels,
    range_hashes,
    refine,
    repeated,
    size_ok,
    skip_blanks,
    span_of,
)
from .errors import (
    DUPLICATE_KEY,
    EXPECTED,
    INVALID_ARRAY,
    INVALID_DATETIME,
    INVALID_INLINE_TABLE,
    INVALID_KEY,
    INVALID_NUMBER,
    INVALID_TOKEN,
    INVALID_UNICODE,
    INVALID_ESCAPE,
    MAX_DEPTH_EXCEEDED,
    MAX_SIZE_EXCEEDED,
    UNTERMINATED_STRING,
    ParseError,
)

DEFAULT_MAX_DEPTH = 128
DEFAULT_MAX_SIZE = 10 * 1024 * 1024


@dataclass(frozen=True)
class TomlConfig:
    max_depth: int = DEFAULT_MAX_DEPTH
    max_size: int = DEFAULT_MAX_SIZE


# token kinds
LB, RB, DLB, DRB, LBRACE, RBRACE, EQ, COMMA, DOT, NL, EOF = (
    "[", "]", "[[", "]]", "{", "}", "=", ",", ".", "NL", "EOF",
)
BAREKEY, STRING, NUMBER, BOOL, DATETIME = "key", "str", "num", "bool", "dt"

_BARE = re.compile(r"[A-Za-z0-9_-]+")
_NUMRUN = re.compile(r"[0-9_.eE:TZz+\-]*")

# master scanner (ordering matters: multiline quotes before simple ones,
# signed bare words before number runs — mirrors the per-char dispatch)
_MASTER = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<nl>\n)"
    r"|(?P<comment>#[^\n]*)"
    r'|(?P<sstr>"[^"\\\n]*")(?!")'
    r"|(?P<slit>'[^'\n]*')(?!')"
    r"|(?P<word>-?[A-Za-z_][A-Za-z0-9_-]*)"
    r"|(?P<signspec>[+-](?:inf|nan))"
    r"|(?P<num>[+-]?[0-9][0-9_.eE:TZz+\-]*)"
    r"|(?P<punct>\[\[|\]\]|[][{}=,.])"
    r'|(?P<dq>")'
    r"|(?P<sq>')"
)
_PUNCT_KIND = {"[[": DLB, "]]": DRB, "[": LB, "]": RB, "{": LBRACE, "}": RBRACE, "=": EQ, ",": COMMA, ".": DOT}
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}

_RFC3339 = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[Tt](\d{2}):(\d{2}):(\d{2})(\.\d{1,9})?"
    r"(?:[Zz]|([+-])(\d{2}):(\d{2}))\Z"
)
_LOCAL_DT = re.compile(r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d{1,9})?\Z")
_LOCAL_DATE = re.compile(r"(\d{4})-(\d{2})-(\d{2})\Z")
_LOCAL_TIME = re.compile(r"(\d{2}):(\d{2}):(\d{2})(\.\d{1,9})?\Z")


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - last_nl


def _valid_date(y: int, mo: int, d: int) -> bool:
    import calendar

    return 1 <= mo <= 12 and 1 <= d <= (calendar.monthrange(y, mo)[1] if 1 <= y <= 9999 and 1 <= mo <= 12 else 0)


def _valid_time(h: int, mi: int, s: int) -> bool:
    return h < 24 and mi < 60 and s < 60


def parse_toml_datetime(text: str) -> TomlDatetime:
    """toml/parser.rs:492-536 — strict multi-format datetime parse.

    The space-separated local-datetime formats there are dead code (the
    lexer's charset run stops at a space) and are intentionally omitted.
    """
    m = _RFC3339.match(text)
    if m:
        y, mo, d, h, mi, s = (int(m.group(i)) for i in range(1, 7))
        if _valid_date(y, mo, d) and _valid_time(h, mi, s):
            if m.group(8):
                oh, om = int(m.group(9)), int(m.group(10))
                if oh < 24 and om < 60:
                    return TomlDatetime(DT_OFFSET, text)
            else:
                return TomlDatetime(DT_OFFSET, text)
        raise ParseError(INVALID_DATETIME, "invalid datetime")
    m = _LOCAL_DT.match(text)
    if m:
        y, mo, d, h, mi, s = (int(m.group(i)) for i in range(1, 7))
        if _valid_date(y, mo, d) and _valid_time(h, mi, s):
            return TomlDatetime(DT_LOCAL, text)
        raise ParseError(INVALID_DATETIME, "invalid datetime")
    m = _LOCAL_DATE.match(text)
    if m:
        y, mo, d = (int(m.group(i)) for i in range(1, 4))
        if _valid_date(y, mo, d):
            return TomlDatetime(DT_DATE, text)
        raise ParseError(INVALID_DATETIME, "invalid datetime")
    m = _LOCAL_TIME.match(text)
    if m:
        h, mi, s = (int(m.group(i)) for i in range(1, 4))
        if _valid_time(h, mi, s):
            return TomlDatetime(DT_TIME, text)
    raise ParseError(INVALID_DATETIME, "invalid datetime")


def _is_datetime_like(text: str) -> bool:
    if "T" in text or ":" in text or text.endswith(("Z", "z")):
        return True
    dashes = 0
    for ch in text:
        if ch == "-":
            dashes += 1
        elif not ch.isdigit():
            return False
    return dashes >= 2 and len(text) >= 8


class _TomlLexer:
    """Lazy master-regex tokenizer: tokens are produced on demand as the
    parser pulls them, so purely LEXICAL errors surface at the pull that
    reaches the offending input — end-to-end lazy like the reference
    (toml/parser.rs:88-122), where a parse error earlier in the document
    wins over a lexical error later in it. Each token is
    (kind, payload, offset)."""

    __slots__ = ("text", "n")

    def __init__(self, text: str):
        self.text = text
        self.n = len(text)

    def err(self, check_id: str, msg: str, offset: int) -> ParseError:
        line, col = _line_col(self.text, offset)
        return ParseError(check_id, msg, offset, line, col)

    def iter_tokens(self) -> "Iterator[tuple[str, object, int]]":
        """Master-regex scanner, generator form: one compiled
        alternation classifies the common tokens (simple strings,
        punctuation, bare words, number runs) at C speed; escapes /
        multiline strings fall back to the per-char lexers, after which
        the scan RESUMES at the new offset (finditer(pos=...) — no text
        slicing, no recursion). Same token stream as the eager list."""
        text, n = self.text, self.n
        i = 0
        restart = True
        # integer lastindex dispatch (no lastgroup name lookup), branch
        # order = group frequency in flat key=value documents; group
        # indices follow _MASTER's definition order
        while restart:
            restart = False
            for m in _MASTER.finditer(text, i):
                start, end = m.span()
                if start != i:
                    raise self.err(INVALID_TOKEN, "invalid token", i)
                i = end
                g = m.lastindex
                if g == 1:  # ws
                    continue
                if g == 6:  # word
                    w = m.group()
                    if w == "true":
                        yield (BOOL, True, start)
                    elif w == "false":
                        yield (BOOL, False, start)
                    else:
                        yield (BAREKEY, w, start)
                elif g == 9:  # punct
                    yield (_PUNCT_KIND[m.group()], None, start)
                elif g == 8:  # num
                    yield self.classify_number(m.group(), start)
                elif g == 4 or g == 5:  # sstr / slit
                    yield (STRING, m.group()[1:-1], start)
                elif g == 2:  # nl
                    yield (NL, None, start)
                elif g == 3:  # comment
                    pass
                elif g == 7:  # signspec
                    w = m.group()
                    v = float("inf") if w[1:] == "inf" else float("nan")
                    yield (NUMBER, -v if w[0] == "-" else v, start)
                elif g == 10:  # dq: escaped/multiline basic string — re-scan
                    sv, i = self.lex_basic(start)
                    yield (STRING, sv, start)
                    restart = True
                    break
                else:  # g == 11, sq
                    sv, i = self.lex_literal(start)
                    yield (STRING, sv, start)
                    restart = True
                    break
        if i != n:
            raise self.err(INVALID_TOKEN, "invalid token", i)
        yield (EOF, None, n)

    def tokens(self) -> list[tuple[str, object, int]]:
        """Eager form (drains the generator) — kept for callers that
        want the whole stream."""
        return list(self.iter_tokens())

    def lex_basic(self, i: int) -> tuple[str, int]:
        text, n = self.text, self.n
        if text.startswith('"""', i):
            return self.lex_multiline(i, '"', escapes=True)
        start = i
        i += 1
        parts: list[str] = []
        while i < n:
            c = text[i]
            if c == '"':
                return "".join(parts), i + 1
            if c == "\n":
                raise self.err(UNTERMINATED_STRING, "unterminated string", i)
            if c == "\\":
                ch, i = self.lex_escape(i + 1)
                parts.append(ch)
            else:
                parts.append(c)
                i += 1
        raise self.err(UNTERMINATED_STRING, "unterminated string", start)

    def lex_literal(self, i: int) -> tuple[str, int]:
        text, n = self.text, self.n
        if text.startswith("'''", i):
            return self.lex_multiline(i, "'", escapes=False)
        start = i
        j = i + 1
        while j < n:
            c = text[j]
            if c == "'":
                return text[i + 1 : j], j + 1
            if c == "\n":
                raise self.err(UNTERMINATED_STRING, "unterminated string", j)
            j += 1
        raise self.err(UNTERMINATED_STRING, "unterminated string", start)

    def lex_multiline(self, i: int, quote: str, escapes: bool) -> tuple[str, int]:
        text, n = self.text, self.n
        close = quote * 3
        i += 3
        parts: list[str] = []
        while i < n:
            c = text[i]
            if c == quote and text.startswith(close, i):
                return "".join(parts), i + 3
            if escapes and c == "\\":
                ch, i = self.lex_escape(i + 1)
                parts.append(ch)
            else:
                parts.append(c)
                i += 1
        raise self.err(UNTERMINATED_STRING, "unterminated string", i)

    def lex_escape(self, i: int) -> tuple[str, int]:
        text = self.text
        if i >= self.n:
            raise self.err(INVALID_ESCAPE, "invalid escape sequence", i)
        c = text[i]
        rep = _ESCAPES.get(c)
        if rep is not None:
            return rep, i + 1
        if c in "uU":
            digits = 4 if c == "u" else 8
            hexs = text[i + 1 : i + 1 + digits]
            if len(hexs) != digits or not all(h in "0123456789abcdefABCDEF" for h in hexs):
                raise self.err(INVALID_UNICODE, "invalid unicode escape", i)
            code = int(hexs, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise self.err(INVALID_UNICODE, "invalid unicode escape", i)
            return chr(code), i + 1 + digits
        raise self.err(INVALID_ESCAPE, "invalid escape sequence", i)

    def classify_number(self, raw: str, start: int) -> tuple[str, object, int]:
        """Classify a number/datetime charset run (lexer/toml.rs:424-528
        semantics); signed inf/nan specials handled via the lone-sign
        match followed by a word token -> see parse_value_from."""
        # fast path: a pure digit run (the overwhelmingly common case)
        # cannot be datetime-like (no T/:/Z/dashes) and needs no
        # underscore strip or sign handling — one C-speed isdigit gate
        if raw.isdigit():
            return (NUMBER, float(self.decimal_i64(raw, start)), start)
        if _is_datetime_like(raw):
            return (DATETIME, raw, start)
        norm = raw.replace("_", "")
        if "." in norm or "e" in norm or "E" in norm:
            try:
                return (NUMBER, float(norm), start)
            except ValueError:
                raise self.err(INVALID_NUMBER, "invalid number", start) from None
        sign = 1
        digits = norm
        if digits[0] == "-":
            sign, digits = -1, digits[1:]
        elif digits[0] == "+":
            digits = digits[1:]
        # radix prefixes (0x/0o/0b) are dead code in the reference lexer —
        # its charset run stops at 'x'/'o'/'b' — so plain decimal here.
        if not digits.isdigit():
            raise self.err(INVALID_NUMBER, "invalid number", start)
        return (NUMBER, float(sign * self.decimal_i64(digits, start)), start)

    def decimal_i64(self, digits: str, start: int) -> int:
        """The value of a decimal digit run below 2**63, else
        InvalidNumber. A run of more than 19 significant digits is at
        least 10**19 and is rejected before ``int()``, which raises
        ValueError past Python's 4,300-digit limit."""
        if len(digits) > 19:
            digits = digits.lstrip("0") or "0"
            if len(digits) > 19:
                raise self.err(INVALID_NUMBER, "invalid number", start)
        val = int(digits)
        if val >= 2**63:
            raise self.err(INVALID_NUMBER, "invalid number", start)
        return val


class _TomlParser:
    __slots__ = (
        "text", "_tok_iter", "_buf", "_eof_tok", "cfg", "depth", "root",
        "current_table", "current_is_array",
    )

    def __init__(self, text: str, cfg: TomlConfig):
        self.text = text
        # LAZY lexing (reference toml/parser.rs:88-122 parity): tokens
        # reach the grammar as it consumes them, so lexical errors
        # surface at the statement that reaches them — and a parse error
        # earlier in the document wins over a lexical error later in it.
        # Laziness is only OBSERVABLE when the document has a lexical
        # error, so the clean case keeps the eager list lex (the fast
        # path — a generator pull per token costs ~16% on the TOML
        # walk); a lexical failure falls back to a lazy re-lex whose
        # pull timing is exactly the reference's.
        try:
            self._tok_iter: Iterator[tuple[str, object, int]] = iter(
                _TomlLexer(text).tokens()
            )
        except ParseError:
            self._tok_iter = _TomlLexer(text).iter_tokens()
        self._buf: list[tuple[str, object, int]] = []  # LIFO pushback stack
        self._eof_tok: tuple[str, object, int] | None = None
        self.cfg = cfg
        self.depth = 0
        self.root: dict = {}
        self.current_table: list[str] = []
        self.current_is_array = False

    # -- token helpers ---------------------------------------------------
    def next(self) -> tuple[str, object, int]:
        if self._buf:
            return self._buf.pop()
        if self._eof_tok is not None:  # EOF is sticky, never consumed
            return self._eof_tok
        t = next(self._tok_iter)
        if t[0] == EOF:
            self._eof_tok = t
        return t

    def peek(self) -> tuple[str, object, int]:
        if self._buf:
            return self._buf[-1]
        t = self.next()
        if t[0] != EOF:
            self._buf.append(t)
        return t

    def push_back(self, t: tuple[str, object, int]) -> None:
        self._buf.append(t)

    def next_non_nl(self):
        while True:
            t = self.next()
            if t[0] == NL:
                continue
            return t

    def err(self, check_id: str, msg: str, offset: int) -> ParseError:
        line, col = _line_col(self.text, offset)
        return ParseError(check_id, msg, offset, line, col)

    def expect(self, kind: str) -> None:
        t = self.next()
        if t[0] != kind:
            raise self.err(EXPECTED, f"expected {kind!r}, found {t[0]!r}", t[2])

    # -- grammar ---------------------------------------------------------
    def parse(self) -> dict:
        while True:
            t = self.next_non_nl()
            kind = t[0]
            if kind == EOF:
                return self.root
            if kind in (LB, DLB):
                is_array = kind == DLB
                path = self.parse_table_header(RB if kind == LB else DRB, t[2])
                if is_array:
                    self.ensure_array_table(path, t[2])
                else:
                    self.ensure_table(path, t[2])
                self.current_table = path
                self.current_is_array = is_array
            else:
                key = self.parse_key_path(t)
                self.expect(EQ)
                value = self.parse_value()
                target = (
                    self.array_table_last(self.current_table, t[2])
                    if self.current_is_array
                    else self.table_at(self.current_table, t[2])
                )
                self.insert_dotted(target, key, value, t[2])

    def parse_table_header(self, close: str, off: int) -> list[str]:
        path = [self.key_from(self.next())]
        while True:
            t = self.next()
            if t[0] == DOT:
                path.append(self.key_from(self.next()))
            elif t[0] == close:
                return path
            elif t[0] in (NL, EOF):
                raise self.err(INVALID_KEY, "newline not allowed in table header", t[2])
            else:
                raise self.err(INVALID_KEY, "invalid table header", t[2])

    def key_from(self, t) -> str:
        # only words and strings are keys: ``true``/``false`` lex as
        # bools and ``1``/``-1`` as numbers, so ``true = 1`` and
        # ``1 = 2`` are InvalidKey (check_toml relies on this)
        if t[0] in (BAREKEY, STRING):
            return t[1]
        raise self.err(INVALID_KEY, "invalid key", t[2])

    def parse_key_path(self, first) -> list[str]:
        path = [self.key_from(first)]
        while self.peek()[0] == DOT:
            self.next()
            path.append(self.key_from(self.next()))
        return path

    def bump_depth(self, off: int) -> None:
        self.depth += 1
        if self.cfg.max_depth > 0 and self.depth > self.cfg.max_depth:
            raise self.err(MAX_DEPTH_EXCEEDED, f"max depth exceeded: {self.cfg.max_depth}", off)

    def parse_value(self):
        return self.parse_value_from(self.next())

    def parse_value_from(self, t):
        kind = t[0]
        if kind == DLB:
            # '[[' in value position = two nested array opens (normalize_value_token)
            self.push_back((LB, None, t[2]))
            kind = LB
        if kind == STRING:
            return t[1]
        if kind == NUMBER:
            return t[1]
        if kind == BOOL:
            return t[1]
        if kind == DATETIME:
            try:
                return parse_toml_datetime(t[1])
            except ParseError as e:
                raise self.err(e.check_id, e.message, t[2]) from None
        if kind == LB:
            return self.parse_array(t[2])
        if kind == LBRACE:
            return self.parse_inline_table(t[2])
        if kind == BAREKEY:
            # divergence (documented): 'inf'/'nan' lex as bare keys in the
            # reference and are unusable as values there, yet its TOML
            # serializer emits 'nan' for non-finite numbers — round-trip
            # closure requires accepting them (TOML-spec behavior).
            word = t[1]
            if word in ("inf", "-inf", "nan", "-nan"):
                v = float("inf") if word.endswith("inf") else float("nan")
                return -v if word.startswith("-") else v
        raise self.err(INVALID_TOKEN, "expected value", t[2])

    def _split_drb(self, t):
        """']]' closing nested arrays splits into two ']' tokens."""
        self.push_back((RB, None, t[2]))
        return (RB, None, t[2])

    def parse_array(self, off: int) -> list:
        self.bump_depth(off)
        values = []
        while True:
            t = self.next_non_nl()
            if t[0] == EOF:
                raise self.err(INVALID_ARRAY, "unterminated array", t[2])
            if t[0] == DRB:
                t = self._split_drb(t)
            if t[0] == RB:
                break
            values.append(self.parse_value_from(t))
            t = self.next_non_nl()
            if t[0] == DRB:
                t = self._split_drb(t)
            if t[0] == COMMA:
                nxt = self.next_non_nl()
                if nxt[0] == EOF:
                    raise self.err(INVALID_ARRAY, "unterminated array", nxt[2])
                if nxt[0] == DRB:
                    nxt = self._split_drb(nxt)
                if nxt[0] == RB:
                    break
                self.push_back(nxt)
                continue
            if t[0] == RB:
                break
            if t[0] == EOF:
                raise self.err(INVALID_ARRAY, "unterminated array", t[2])
            raise self.err(INVALID_ARRAY, "expected comma or closing bracket", t[2])
        self.depth -= 1
        return values

    def parse_inline_table(self, off: int) -> dict:
        self.bump_depth(off)
        obj: dict = {}
        t = self.next_non_nl()
        if t[0] == EOF:
            raise self.err(INVALID_INLINE_TABLE, "unterminated inline table", t[2])
        if t[0] == RBRACE:
            self.depth -= 1
            return obj
        self.push_back(t)
        while True:
            key = self.parse_key_path(self.next())
            self.expect(EQ)
            value = self.parse_value()
            self.insert_dotted(obj, key, value, off)
            t = self.next()
            if t[0] == COMMA:
                if self.peek()[0] == RBRACE:
                    self.next()
                    break
                continue
            if t[0] == RBRACE:
                break
            if t[0] in (NL, EOF):
                raise self.err(
                    INVALID_INLINE_TABLE, "newline not allowed in inline table", t[2]
                )
            raise self.err(INVALID_INLINE_TABLE, "expected comma or closing brace", t[2])
        self.depth -= 1
        return obj

    # -- document assembly (tables / dotted keys) ------------------------
    def table_at(self, path: list[str], off: int) -> dict:
        cur = self.root
        for part in path:
            nxt = cur.get(part)
            if nxt is None:
                nxt = {}
                cur[part] = nxt
            elif isinstance(nxt, list):
                raise self.err(INVALID_ARRAY, "array used where table expected", off)
            elif not isinstance(nxt, dict):
                raise self.err(INVALID_KEY, "key already assigned", off)
            cur = nxt
        return cur

    def ensure_table(self, path: list[str], off: int) -> None:
        self.table_at(path, off)

    def _descend(self, cur, part: str, off: int):
        nxt = cur.get(part)
        if nxt is None:
            nxt = {}
            cur[part] = nxt
            return nxt
        if isinstance(nxt, dict):
            return nxt
        if isinstance(nxt, list):
            if nxt and isinstance(nxt[-1], dict):
                return nxt[-1]
            raise self.err(INVALID_ARRAY, "expected object in array table", off)
        raise self.err(INVALID_KEY, "key already assigned", off)

    def ensure_array_table(self, path: list[str], off: int) -> None:
        if not path:
            raise self.err(INVALID_KEY, "empty array table path", off)
        cur = self.root
        for part in path[:-1]:
            cur = self._descend(cur, part, off)
        last = path[-1]
        entry = cur.get(last)
        if entry is None:
            cur[last] = [{}]
        elif isinstance(entry, list):
            entry.append({})
        else:
            raise self.err(INVALID_ARRAY, "array table conflicts with existing value", off)

    def array_table_last(self, path: list[str], off: int) -> dict:
        if not path:
            raise self.err(INVALID_KEY, "empty array table path", off)
        cur = self.root
        for part in path[:-1]:
            cur = self._descend(cur, part, off)
        entry = cur.get(path[-1])
        if not isinstance(entry, list) or not entry or not isinstance(entry[-1], dict):
            raise self.err(INVALID_ARRAY, "expected array table", off)
        return entry[-1]

    def insert_dotted(self, table: dict, key: list[str], value, off: int) -> None:
        if not key:
            raise self.err(INVALID_KEY, "empty key", off)
        cur = table
        for part in key[:-1]:
            nxt = cur.get(part)
            if nxt is None:
                nxt = {}
                cur[part] = nxt
            elif not isinstance(nxt, dict):
                raise self.err(INVALID_KEY, "key already assigned", off)
            cur = nxt
        last = key[-1]
        if last in cur:
            raise self.err(DUPLICATE_KEY, f"duplicate key: {last}", off)
        cur[last] = value


_DEFAULT_CONFIG = TomlConfig()


def _check_size(text: str, cfg: TomlConfig) -> None:
    if cfg.max_size > 0 and len(text.encode("utf-8", "surrogatepass")) > cfg.max_size:
        raise ParseError(MAX_SIZE_EXCEEDED, f"maximum size exceeded: {cfg.max_size}", 0, 1, 1)


def parse_toml(text: str, config: TomlConfig | None = None) -> dict:
    """Parse a TOML document to an Object (dict); root is always an
    Object (toml/parser.rs:124-128)."""
    cfg = config or _DEFAULT_CONFIG
    _check_size(text, cfg)
    return _TomlParser(text, cfg).parse()


# -- accept-only recognizer ----------------------------------------------------
# check_toml rewrites the text in C-speed regex passes: every scalar
# becomes the placeholder \x00, each round collapses the innermost
# single-line arrays and inline tables of placeholders to one
# placeholder, and what is left must be ``key = \x00`` lines. Any
# character outside the subset (an unpaired quote, '#', "'", '.', '\r',
# a digit in key position, ...) survives the rewrite and fails the last
# match.
_PH = "\x00"
_KEY = r"[A-Za-z_][A-Za-z0-9_-]*"  # a bare key the lexer reads as one word
_W = r"[ \t]*"
_SCALAR = re.compile(
    r'(?=[-"0-9tf])(?:"[^"\\\n]*"(?!")'  # escape-free basic string (sstr)
    # a number or bool that is a whole lexer token: the lookarounds keep
    # it out of bare keys (k0, a-1, true_x) and of longer number runs
    # (1e5, 1_000, 1979-05-27, 19 digits)
    r"|(?<![A-Za-z0-9_.+-])(?:-?[0-9]+\.[0-9]+|-?[0-9]{1,18}|true|false)"
    r"(?![A-Za-z0-9_.:+-]))"
)
_ENTRY = rf"{_W}{_KEY}{_W}={_W}\x00{_W}"
# an inline table matches only if no key repeats: the lookahead steps
# over whole ``key = \x00,`` entries looking for a later entry with the
# same key
_NO_DUP = rf"(?!(?:{_ENTRY},)*?{_W}({_KEY}){_W}={_W}\x00{_W},(?:{_ENTRY},)*?{_W}\1{_W}=)"
_INNER = re.compile(
    rf"\[{_W}(?:\x00{_W}(?:,{_W}|(?=\])))*\]"
    rf"|\{{{_NO_DUP}(?:{_ENTRY}(?:,{_W}|(?=\}})))*{_W}\}}"
)
_LINE = rf"{_W}(?:{_KEY}{_W}={_W}\x00{_W})?"
_DOC = re.compile(rf"(?:{_LINE}\n)*{_LINE}")
_KEYS = re.compile(_KEY)
_MAX_NEST = 8  # arrays / inline tables nested deeper run the exact parser


def check_toml(text: str, config: TomlConfig | None = None) -> None:
    """Recognizer-only form of ``parse_toml``: raise exactly what it
    raises, build no document.

    Accepts without the exact parser only this subset: ``bare = value``
    lines (bare keys start with a letter or ``_``), where a value is an
    escape-free basic string, a decimal int of at most 18 digits, a plain
    decimal ``-?d+.d+``, ``true``/``false``, or a single-line array or
    inline table of those nested at most ``_MAX_NEST`` (and
    ``max_depth``) deep. Keys are distinct at the top level and inside
    each inline table; trailing commas are allowed, as the exact parser
    allows them. Everything else — numeric or bool keys, headers, dotted
    keys, comments, other string forms, datetimes, ``_``, ``+``,
    exponents, inf/nan, multi-line values, ``\\r``, a repeated key, text
    holding ``\\x00`` — runs ``parse_toml``.
    """
    cfg = config or _DEFAULT_CONFIG
    _check_size(text, cfg)
    if _PH not in text:
        s = _SCALAR.sub(_PH, text)
        limit = _MAX_NEST if cfg.max_depth <= 0 else min(_MAX_NEST, cfg.max_depth)
        for _ in range(limit):
            if "[" not in s and "{" not in s:
                break
            s, n = _INNER.subn(_PH, s)
            if not n:
                break
        if _DOC.fullmatch(s):
            keys = _KEYS.findall(s)
            if len(set(keys)) == len(keys):
                return
    parse_toml(text, cfg)


# -- column accept mask ---------------------------------------------------------
# accept_mask_toml is check_toml's subset as one RE2 shape over the whole
# column. Arrow compiles a pattern on every call, so the shape is kept
# small: a comma is first put before every ']' and '}', after which each
# array or inline table is a run of "value," items and its value pattern
# appears once (a list with an optional last comma needs it twice).
# What a regular language cannot say — keys distinct per scope, and no
# ``true``/``false`` key, which check_toml's rewrite turns into a scalar
# — is a numpy pass over the original bytes.
_RE2_W = r"[ \t]*"
_RE2_KEY = r"[A-Za-z_][A-Za-z0-9_\-]*"
# what follows a value in the shape (spaces, ',', a newline, the end) is
# a token boundary, so these are whole lexer tokens, as check_toml's
# lookarounds require
_RE2_SCALAR = r'(?:"[^"\\\n\x00]*"|-?[0-9]+\.[0-9]+|-?[0-9]{1,18}|true|false)'
_BOOL_KEYS = [literal_hash("true"), literal_hash("false")]


@functools.cache
def _toml_shape(levels: int) -> str:
    """The subset's shape, for text with a ',' put before every ']' and
    '}': ``[a, b]`` reads ``[a, b,]``, ``[a,]`` reads ``[a,,]`` and
    ``[]`` reads ``[,]``."""
    w = _RE2_W
    v = _RE2_SCALAR
    for _ in range(levels):
        v = (
            rf"(?:{_RE2_SCALAR}|\[{w}(?:{v}{w},{w})*,?\]"
            rf"|\{{(?:{w}{_RE2_KEY}{w}={w}{v}{w},{w})*(?:{w},)?\}})"
        )
    return rf"\A(?:{w}(?:{_RE2_KEY}{w}={w}{v}{w})?(?:\n|\z))*\z"


def accept_mask_toml(texts: pa.StringArray, config: TomlConfig | None = None) -> np.ndarray:
    """Which spans of ``texts`` ``check_toml`` accepts, decided for the
    whole column at once; a False says nothing (the span runs
    ``check_toml``).

    A span is accepted if it fits ``max_size``, matches ``check_toml``'s
    subset with values nested at most ``min(2, max_depth)`` deep, and its
    keys are distinct within each scope (the top level, or one inline
    table) and none is ``true`` or ``false``."""
    cfg = config or _DEFAULT_CONFIG
    closed = pc.replace_substring(pc.replace_substring(texts, "]", ",]"), "}", ",}")
    ok = full_match(closed, _toml_shape(mask_levels(cfg.max_depth))) & size_ok(texts, cfg.max_size)
    return refine(ok, texts, _bad_keys)


def _bad_keys(texts: pa.StringArray) -> np.ndarray:
    """Per span of ``texts`` (each matching the shape): a key repeats in
    one scope, or is ``true``/``false``. The shape makes every string an
    escape-free ``"…"``, so quote parity tells the structural bytes from
    those in strings; each span has an even number of quotes and balanced
    braces, so the running counts carry across spans."""
    offs, buf = byte_view(texts)
    b = buf[:-1]
    # " = { } , \n
    pos = np.flatnonzero((b == 34) | (b == 61) | (b == 123) | (b == 125) | (b == 44) | (b == 10))
    ch = buf[pos]
    quote = ch == 34
    keep = ~quote & (np.cumsum(quote) & 1 == 0)
    pos, ch = pos[keep], ch[keep]
    opens = ch == 123
    depth = np.cumsum(opens.astype(np.int64) - (ch == 125))
    eq = np.flatnonzero(ch == 61)
    span = span_of(offs, pos[eq])
    # a key sits, between blanks, after the last '{', ',' or newline
    # before its '=', or at its span's start
    delim = np.maximum.accumulate(np.where(opens | (ch == 44) | (ch == 10), pos, -1))[eq]
    first = skip_blanks(buf, np.maximum(delim + 1, offs[span]), 1)
    keys = range_hashes(buf, first, skip_blanks(buf, pos[eq] - 1, -1))
    # scope: the span's top level, or the position of the inline table's
    # '{' (depth <= 2), offset past the span ids
    scope = span.copy()
    for d in (1, 2):
        at = depth[eq] == d
        if at.any():
            opened = np.maximum.accumulate(np.where(opens & (depth == d), pos, -1))[eq]
            scope[at] = len(texts) + opened[at]
    bad = repeated(scope, keys) | (keys == _BOOL_KEYS[0]) | (keys == _BOOL_KEYS[1])
    out = np.zeros(len(texts), bool)
    out[span[bad]] = True
    return out
