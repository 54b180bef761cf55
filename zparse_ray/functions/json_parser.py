"""JSON / JSONC recursive-descent parser + validator.

Re-implements (from scratch, in Python over ``str``) the grammar the
reference enforces (reference: crates/zparse/src/lexer/json.rs,
json/parser.rs):

- string escapes ``\\" \\\\ \\/ \\b \\f \\n \\r \\t \\uXXXX``; any other
  escape -> InvalidEscapeSequence (lexer/json.rs:117-141)
- control chars < 0x20 inside strings -> InvalidToken (:146-155)
- ``\\uXXXX`` must be a valid scalar codepoint: surrogates (D800-DFFF)
  are rejected, no pair combining (:220-262, char::from_u32 semantics)
- strict number grammar: optional ``-``, no leading zeros, fraction and
  exponent require digits; value parsed as f64 (:313-394)
- literals ``null/true/false`` exactly (:264-310)
- comma/colon placement; trailing commas rejected unless JSONC
  (json/parser.rs:290-381); root may be any value incl. scalar
  (:266-288)
- ``max_depth`` checked on container open (:432-445), ``max_size`` on
  input size (:127-136); defaults depth=128, size=10 MiB (:9-10)
- JSONC mode: ``//`` and ``/* */`` comments + trailing commas
  (lexer/json.rs:165-217)

Duplicate JSON object keys are NOT an error (last wins, insertion
position kept) — matching IndexMap::insert semantics (value.rs:226).

Hot-path notes: the scanner is regex-accelerated (single compiled
pattern per token class, as in CPython's pure-python json scanner) and
tracks only a character offset; line/col are derived lazily on error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    EXPECTED,
    INVALID_ESCAPE,
    INVALID_NUMBER,
    INVALID_TOKEN,
    INVALID_UNICODE,
    MAX_DEPTH_EXCEEDED,
    MAX_SIZE_EXCEEDED,
    TRAILING_COMMA,
    UNTERMINATED_STRING,
    ParseError,
)

DEFAULT_MAX_DEPTH = 128  # json/parser.rs:9
DEFAULT_MAX_SIZE = 10 * 1024 * 1024  # json/parser.rs:10


@dataclass(frozen=True)
class JsonConfig:
    """Mirrors the reference's JsonConfig (json/parser.rs:14-68)."""

    max_depth: int = DEFAULT_MAX_DEPTH
    max_size: int = DEFAULT_MAX_SIZE
    allow_comments: bool = False
    allow_trailing_commas: bool = False


# shared default: building a frozen dataclass on every call costs about
# as much as orjson takes to parse a short span
JSON_CONFIG = JsonConfig()
JSONC_CONFIG = JsonConfig(allow_comments=True, allow_trailing_commas=True)

_WS = re.compile(r"[ \t\n\r]*")
_NUMBER = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?")
# run of plain string chars: anything but quote, backslash, or control
_STR_CHUNK = re.compile(r'[^"\\\x00-\x1f]*')
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")

_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - last_nl  # col is 1-based after a newline


def _err(check_id: str, msg: str, text: str, offset: int) -> ParseError:
    line, col = _line_col(text, offset)
    return ParseError(check_id, msg, offset, line, col)


class _JsonParser:
    __slots__ = ("text", "pos", "n", "cfg")

    def __init__(self, text: str, cfg: JsonConfig):
        self.text = text
        self.pos = 0
        self.n = len(text)
        self.cfg = cfg

    # -- whitespace / comments ------------------------------------------
    def skip_ws(self) -> None:
        text, n = self.text, self.n
        pos = _WS.match(text, self.pos).end()
        if self.cfg.allow_comments:
            while pos < n and text[pos] == "/":
                nxt = text[pos + 1] if pos + 1 < n else ""
                if nxt == "/":
                    end = text.find("\n", pos + 2)
                    pos = n if end < 0 else end + 1
                elif nxt == "*":
                    end = text.find("*/", pos + 2)
                    if end < 0:
                        raise _err(INVALID_TOKEN, "unterminated block comment", text, pos)
                    pos = end + 2
                else:
                    break
                pos = _WS.match(text, pos).end()
        self.pos = pos

    # -- tokens ----------------------------------------------------------
    def parse_string(self) -> str:
        # caller has consumed the opening quote position check; text[pos] == '"'
        text = self.text
        pos = self.pos + 1
        chunks: list[str] = []
        while True:
            m = _STR_CHUNK.match(text, pos)
            end = m.end()
            chunks.append(text[pos:end])
            if end >= self.n:
                raise _err(UNTERMINATED_STRING, "unterminated string", text, self.pos)
            c = text[end]
            if c == '"':
                self.pos = end + 1
                return "".join(chunks)
            if c == "\\":
                if end + 1 >= self.n:
                    raise _err(INVALID_ESCAPE, "invalid escape sequence", text, end)
                e = text[end + 1]
                rep = _ESCAPES.get(e)
                if rep is not None:
                    chunks.append(rep)
                    pos = end + 2
                elif e == "u":
                    hm = _HEX4.match(text, end + 2)
                    if not hm:
                        raise _err(INVALID_UNICODE, "invalid unicode escape", text, end + 2)
                    code = int(hm.group(), 16)
                    if 0xD800 <= code <= 0xDFFF:
                        # char::from_u32 rejects surrogates; no pair combining
                        raise _err(INVALID_UNICODE, "invalid unicode escape", text, end + 2)
                    chunks.append(chr(code))
                    pos = end + 6
                else:
                    raise _err(INVALID_ESCAPE, "invalid escape sequence", text, end + 1)
            else:  # control char < 0x20
                raise _err(INVALID_TOKEN, "control character in string", text, end)

    def parse_number(self) -> float:
        m = _NUMBER.match(self.text, self.pos)
        if not m or m.end() == self.pos:
            raise _err(INVALID_NUMBER, "invalid number", self.text, self.pos)
        # reject leading-zero forms like 01 (regex stops after 0; next char must
        # not be a digit) and bare '-' etc. The regex enforces the grammar; we
        # additionally check the char after the match isn't a digit/letter that
        # would have been glued to a malformed literal.
        end = m.end()
        if end < self.n and (self.text[end].isdigit() or self.text[end] in ".eE"):
            raise _err(INVALID_NUMBER, "invalid number", self.text, self.pos)
        self.pos = end
        return float(m.group())

    # -- values ----------------------------------------------------------
    def parse_value(self, depth: int):
        text, pos = self.text, self.pos
        if pos >= self.n:
            raise _err(EXPECTED, "expected value, found end of input", text, pos)
        c = text[pos]
        if c == "{":
            return self.parse_object(depth)
        if c == "[":
            return self.parse_array(depth)
        if c == '"':
            return self.parse_string()
        if c == "n":
            if text.startswith("null", pos):
                self.pos = pos + 4
                return None
            raise _err(INVALID_TOKEN, "invalid token", text, pos)
        if c == "t":
            if text.startswith("true", pos):
                self.pos = pos + 4
                return True
            raise _err(INVALID_TOKEN, "invalid token", text, pos)
        if c == "f":
            if text.startswith("false", pos):
                self.pos = pos + 5
                return False
            raise _err(INVALID_TOKEN, "invalid token", text, pos)
        if c == "-" or c.isdigit():
            return self.parse_number()
        raise _err(INVALID_TOKEN, "invalid token", text, pos)

    def check_depth(self, depth: int) -> None:
        if depth > self.cfg.max_depth:
            raise _err(
                MAX_DEPTH_EXCEEDED,
                f"maximum depth exceeded: {self.cfg.max_depth}",
                self.text,
                self.pos,
            )

    def parse_object(self, depth: int) -> dict:
        self.check_depth(depth + 1)
        self.pos += 1  # '{'
        obj: dict = {}
        self.skip_ws()
        if self.pos < self.n and self.text[self.pos] == "}":
            self.pos += 1
            return obj
        while True:
            self.skip_ws()
            if self.pos >= self.n:
                raise _err(EXPECTED, "expected key, found end of input", self.text, self.pos)
            if self.text[self.pos] == "}":
                # only reachable after a comma -> trailing comma
                if self.cfg.allow_trailing_commas:
                    self.pos += 1
                    return obj
                raise _err(TRAILING_COMMA, "trailing comma", self.text, self.pos)
            if self.text[self.pos] != '"':
                raise _err(
                    EXPECTED,
                    f"expected string key, found {self.text[self.pos]!r}",
                    self.text,
                    self.pos,
                )
            key = self.parse_string()
            self.skip_ws()
            if self.pos >= self.n or self.text[self.pos] != ":":
                raise _err(EXPECTED, "expected ':', found other", self.text, self.pos)
            self.pos += 1
            self.skip_ws()
            obj[key] = self.parse_value(depth + 1)
            self.skip_ws()
            if self.pos >= self.n:
                raise _err(EXPECTED, "expected ',' or '}', found end of input", self.text, self.pos)
            c = self.text[self.pos]
            if c == ",":
                self.pos += 1
                continue
            if c == "}":
                self.pos += 1
                return obj
            raise _err(EXPECTED, f"expected ',' or '}}', found {c!r}", self.text, self.pos)

    def parse_array(self, depth: int) -> list:
        self.check_depth(depth + 1)
        self.pos += 1  # '['
        arr: list = []
        self.skip_ws()
        if self.pos < self.n and self.text[self.pos] == "]":
            self.pos += 1
            return arr
        while True:
            self.skip_ws()
            if self.pos < self.n and self.text[self.pos] == "]":
                if self.cfg.allow_trailing_commas:
                    self.pos += 1
                    return arr
                raise _err(TRAILING_COMMA, "trailing comma", self.text, self.pos)
            arr.append(self.parse_value(depth + 1))
            self.skip_ws()
            if self.pos >= self.n:
                raise _err(EXPECTED, "expected ',' or ']', found end of input", self.text, self.pos)
            c = self.text[self.pos]
            if c == ",":
                self.pos += 1
                continue
            if c == "]":
                self.pos += 1
                return arr
            raise _err(EXPECTED, f"expected ',' or ']', found {c!r}", self.text, self.pos)


import json as _cjson

import orjson as _orjson


def _reject_constant(_s):
    raise ValueError("non-finite constants rejected")


_FAST_DECODER = _cjson.JSONDecoder(
    parse_float=float, parse_int=float, parse_constant=_reject_constant
)

# conservative trailing-comma detector for the permissive-config fast
# path: a match anywhere (even inside a string) just means slow path
_TRAILING_COMMA_RE = re.compile(r",\s*[}\]]")


def _depth_guard(text: str, value, max_depth: int) -> bool:
    """True iff value's depth is within max_depth. Cheap path: fewer
    than max_depth container-opens in the text (C-speed str.count)
    implies the depth bound can't be exceeded. Otherwise one level-by-
    level walk over the containers, which stops at ``max_depth + 1``
    levels: no recursion, and one short list per level."""
    if text.count("{") + text.count("[") <= max_depth:
        return True
    level = [value] if type(value) in (dict, list) else []
    depth = 0
    while level:
        depth += 1
        if depth > max_depth:
            return False
        nxt = []  # a plain loop: a comprehension costs a frame per level
        for v in level:
            for c in v.values() if type(v) is dict else v:
                if type(c) is list or type(c) is dict:
                    nxt.append(c)
        level = nxt
    return True


def _fast_ok(text: str, cfg: JsonConfig) -> bool:
    """True iff a C decoder may stand in for the exact parser on
    ``text``. No ``\\`` rules out every escape, and with it the decoders'
    acceptance of surrogate ``\\uXXXX`` escapes (CPython takes lone ones,
    orjson takes pairs; the reference takes neither). Permissive (JSONC)
    configs also need the text to use none of the permissive features:
    no ``/`` rules out comments, and no ``,}``/``,]`` (whitespace-
    insensitive) rules out trailing commas. Both are cheap C scans; a
    false positive only means the exact parser runs."""
    return "\\" not in text and (
        not (cfg.allow_comments or cfg.allow_trailing_commas)
        or ("/" not in text and not _TRAILING_COMMA_RE.search(text))
    )


def parse_json(text: str, config: JsonConfig | None = None):
    """Parse a JSON/JSONC document to a Value; raise ParseError on the
    first grammar violation (reference contract: one document in, one
    DOM or one structured error out).

    Fast path: when ``_fast_ok`` holds, the C scanner validates/builds
    the value (ints parsed as f64 per the reference's number model,
    non-finite constants rejected, depth bound enforced). Any fast-path
    failure falls back to the exact recursive-descent parser for the
    precise check_id + position.
    """
    cfg = config or JSON_CONFIG
    if len(text.encode("utf-8", "surrogatepass")) > cfg.max_size:
        raise ParseError(
            MAX_SIZE_EXCEEDED, f"maximum size exceeded: {cfg.max_size}", 0, 1, 1
        )
    if _fast_ok(text, cfg):
        try:
            v = _FAST_DECODER.decode(text)
        except (ValueError, RecursionError):
            pass  # slow path classifies the error exactly
        else:
            if _depth_guard(text, v, cfg.max_depth):
                return v
            raise ParseError(
                MAX_DEPTH_EXCEEDED, f"maximum depth exceeded: {cfg.max_depth}", 0, 1, 1
            )
    p = _JsonParser(text, cfg)
    p.skip_ws()
    v = p.parse_value(0)
    p.skip_ws()
    if p.pos != p.n:
        raise _err(EXPECTED, "expected end of input, found trailing content", text, p.pos)
    return v


def _jsonc_config(config: JsonConfig | None) -> JsonConfig:
    cfg = config or JSONC_CONFIG
    if not (cfg.allow_comments and cfg.allow_trailing_commas):
        cfg = JsonConfig(cfg.max_depth, cfg.max_size, True, True)
    return cfg


def parse_jsonc(text: str, config: JsonConfig | None = None):
    return parse_json(text, _jsonc_config(config))


def check_json(text: str, config: JsonConfig | None = None) -> None:
    """Recognizer-only form of ``parse_json``: raise exactly what it
    raises, build no DOM for the caller.

    ``orjson.loads`` (strict RFC 8259: no BOM, no NaN/Infinity, no raw
    control chars in strings, whitespace `` \\t\\n\\r`` only, non-finite
    numbers rejected) may only say "valid", and only under
    ``_fast_ok``'s guards, on a text surely within ``max_size``, and at a
    depth within both ``max_depth`` and the default 128: deeper than
    that, ``parse_json``'s own walk may end in a RecursionError, so only
    it can tell. Every orjson reject, guard miss or depth excess runs
    ``parse_json``, so check_id, message and line/col are its own.
    """
    cfg = config or JSON_CONFIG
    # a str's UTF-8 form is at most 4 bytes per char
    if len(text) <= cfg.max_size >> 2 and _fast_ok(text, cfg):
        try:
            v = _orjson.loads(text)
        except ValueError:
            pass
        else:
            if _depth_guard(text, v, min(cfg.max_depth, DEFAULT_MAX_DEPTH)):
                return
    parse_json(text, cfg)


def check_jsonc(text: str, config: JsonConfig | None = None) -> None:
    check_json(text, _jsonc_config(config))
