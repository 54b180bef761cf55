"""YAML subset parser (block mappings/sequences + flow collections).

Re-implements the reference's line-based YAML subset (reference:
crates/zparse/src/lexer/yaml.rs, yaml/parser.rs):

- indentation in spaces only; tabs -> InvalidToken "tabs not allowed for
  indentation" (lexer/yaml.rs:157-162)
- comment stripping is quote-aware (``#`` inside quotes kept,
  lexer/yaml.rs:170-192); blank lines skipped
- a dedent must land on an enclosing indent level, else InvalidToken
  "invalid indentation" (lexer/yaml.rs:125-131)
- block mappings ``key: value`` / nested blocks; block sequences ``- x``;
  flow ``[...]`` / ``{...}`` collections (single line)
- duplicate keys -> DuplicateKey (yaml/parser.rs:343-349, 478-490)
- scalar typing (yaml/parser.rs:492-524): null/Null/NULL/~ -> Null;
  true/True/TRUE & false/False/FALSE -> Bool; i64 -> Number; f64 ->
  Number EXCEPT the inf/nan spellings (inf/+inf/-inf/.inf/nan/.nan...)
  which stay strings; quoted scalars are never coerced (:302)
- double-quoted escapes ``\\n \\r \\t \\\\ \\"`` only; single-quoted ``''`` -> ``'``
- missing flow value (``{x: }``) / unterminated flow -> InvalidToken;
  unterminated quote -> UnterminatedString
- max_depth on nested blocks / flow containers (default 128)

Documented divergences from reference quirks its suite never tests:
- multi-word unquoted scalars (``key: hello world``) parse as one string
  (the reference token-splits them and then errors);
- ``- key: v`` items merge continuation keys from deeper-indented
  following lines into the same object (the reference silently DROPS
  that trailing content — parse() never checks EOF);
- plain scalars may contain ``:``/``,`` after the key separator
  (``url: http://x`` works).

Accept path: ``check_yaml`` is the recognizer-only form that validation
without round-trip uses. It accepts, with one regex pass and a small
indent stack and no DOM, space-indented ``key: scalar`` / ``key:`` /
``- scalar`` lines (root at indent 0, bare keys, plain or escape-free
double-quoted scalars) that keep the parser's block rules; any other
text runs ``parse_yaml``, so errors are always the parser's.
``accept_mask_yaml`` decides the same subset (at most two levels) for a
whole Arrow column at once, with RE2 and numpy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .columnar import (
    byte_view,
    full_match,
    mask_levels,
    range_hashes,
    refine,
    repeated,
    skip_blanks,
    span_of,
)
from .errors import (
    DUPLICATE_KEY,
    INVALID_ESCAPE,
    INVALID_TOKEN,
    MAX_DEPTH_EXCEEDED,
    UNTERMINATED_STRING,
    ParseError,
)

DEFAULT_MAX_DEPTH = 128


@dataclass(frozen=True)
class YamlConfig:
    max_depth: int = DEFAULT_MAX_DEPTH


_DEFAULT_CONFIG = YamlConfig()


_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(
    r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z|[+-]?(?:inf(?:inity)?|nan)\Z",
    re.IGNORECASE,
)
_SPECIAL_INF_NAN = {"inf", "+inf", "-inf", ".inf", "+.inf", "-.inf", "nan", ".nan"}
_DQ_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", "\\": "\\", '"': '"'}


def parse_scalar_value(text: str):
    """yaml/parser.rs:492-524 — typing of unquoted scalars."""
    t = text.strip()
    if t == "":
        return ""
    if t in ("null", "Null", "NULL", "~"):
        return None
    if t in ("true", "True", "TRUE"):
        return True
    if t in ("false", "False", "FALSE"):
        return False
    if _INT_RE.match(t):
        try:
            iv = int(t)
        except ValueError:
            iv = None
        if iv is not None and -(2**63) <= iv < 2**63:
            return float(iv)
    if t.lower() not in _SPECIAL_INF_NAN and _FLOAT_RE.match(t):
        try:
            return float(t)
        except ValueError:
            pass
    return t


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    if '"' not in line and "'" not in line:
        return line[: line.index("#")]
    in_s = in_d = esc = False
    for i, ch in enumerate(line):
        if esc:
            esc = False
            continue
        if ch == "\\" and in_d:
            esc = True
            continue
        if ch == '"' and not in_s:
            in_d = not in_d
        elif ch == "'" and not in_d:
            in_s = not in_s
        elif ch == "#" and not in_s and not in_d:
            return line[:i]
    return line


def _split_key_value(line: str):
    """First ':' outside quotes splits key / value; None if no colon."""
    if ":" not in line:
        return None
    if '"' not in line and "'" not in line:
        i = line.index(":")
        return line[:i].strip(), line[i + 1 :].strip()
    in_s = in_d = esc = False
    for i, ch in enumerate(line):
        if esc:
            esc = False
            continue
        if ch == "\\" and in_d:
            esc = True
            continue
        if ch == '"' and not in_s:
            in_d = not in_d
        elif ch == "'" and not in_d:
            in_s = not in_s
        elif ch == ":" and not in_s and not in_d:
            return line[:i].strip(), line[i + 1 :].strip()
    return None


def _parse_double_quoted(inner: str, lineno: int) -> str:
    out: list[str] = []
    i = 0
    n = len(inner)
    while i < n:
        c = inner[i]
        if c == "\\":
            if i + 1 >= n:
                raise ParseError(INVALID_ESCAPE, "invalid escape", 0, lineno, i + 1)
            rep = _DQ_ESCAPES.get(inner[i + 1])
            if rep is None:
                raise ParseError(INVALID_ESCAPE, "invalid escape", 0, lineno, i + 2)
            out.append(rep)
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _parse_key_scalar(text: str, lineno: int) -> str:
    t = text.strip()
    if len(t) >= 2 and t.startswith('"') and t.endswith('"'):
        return _parse_double_quoted(t[1:-1], lineno)
    if len(t) >= 2 and t.startswith("'") and t.endswith("'"):
        return t[1:-1].replace("''", "'")
    return t


class _FlowLexer:
    """Tokenizes a single-line flow value: brackets/braces/comma/colon,
    quoted and plain scalars."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.i = 0
        self.n = len(text)
        self.lineno = lineno

    def tokens(self):
        out = []
        text, n = self.text, self.n
        i = self.i
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "[]{},:":
                out.append((c, None))
                i += 1
                continue
            if c in "\"'":
                quote = c
                j = i + 1
                parts: list[str] = []
                while True:
                    if j >= n:
                        raise ParseError(
                            UNTERMINATED_STRING, "unterminated string", 0, self.lineno, j
                        )
                    ch = text[j]
                    if ch == quote:
                        if quote == "'" and j + 1 < n and text[j + 1] == "'":
                            parts.append("'")
                            j += 2
                            continue
                        break
                    if quote == '"' and ch == "\\":
                        if j + 1 >= n:
                            raise ParseError(INVALID_ESCAPE, "invalid escape", 0, self.lineno, j)
                        rep = _DQ_ESCAPES.get(text[j + 1])
                        if rep is None:
                            raise ParseError(INVALID_ESCAPE, "invalid escape", 0, self.lineno, j)
                        parts.append(rep)
                        j += 2
                        continue
                    parts.append(ch)
                    j += 1
                out.append(("q", "".join(parts)))
                i = j + 1
                continue
            j = i
            while j < n and not text[j].isspace() and text[j] not in "[]{},:":
                j += 1
            out.append(("s", text[i:j]))
            i = j
        return out


class _FlowParser:
    def __init__(self, tokens, lineno: int, depth: int, max_depth: int):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno
        self.depth = depth
        self.max_depth = max_depth

    def err(self, msg: str) -> ParseError:
        return ParseError(INVALID_TOKEN, msg, 0, self.lineno, 1)

    def next(self):
        if self.pos >= len(self.toks):
            raise self.err("unexpected end of flow value")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def bump(self):
        self.depth += 1
        if self.max_depth > 0 and self.depth > self.max_depth:
            raise ParseError(
                MAX_DEPTH_EXCEEDED, f"max depth exceeded: {self.max_depth}", 0, self.lineno, 1
            )

    def parse_value(self):
        kind, payload = self.next()
        if kind == "[":
            return self.parse_seq()
        if kind == "{":
            return self.parse_map()
        if kind == "q":
            return payload
        if kind == "s":
            return parse_scalar_value(payload)
        raise self.err("expected value in flow collection")

    def parse_seq(self):
        self.bump()
        items = []
        while True:
            t = self.peek()
            if t is None:
                raise self.err("invalid flow sequence")
            if t[0] == "]":
                self.next()
                break
            if t[0] == ",":
                self.next()
                continue
            items.append(self.parse_value())
        self.depth -= 1
        return items

    def parse_map(self):
        self.bump()
        obj: dict = {}
        while True:
            t = self.peek()
            if t is None:
                raise self.err("invalid flow mapping")
            if t[0] == "}":
                self.next()
                break
            if t[0] == ",":
                self.next()
                continue
            kind, payload = self.next()
            if kind not in ("s", "q"):
                raise self.err("invalid flow mapping")
            key = payload
            colon = self.next()
            if colon[0] != ":":
                raise self.err("expected ':' in flow mapping")
            nxt = self.peek()
            if nxt is None or nxt[0] in ("}", ",", "]"):
                raise self.err("expected value in flow mapping")
            value = self.parse_value()
            if key in obj:
                raise ParseError(
                    DUPLICATE_KEY, f"duplicate key: {key}", 0, self.lineno, 1
                )
            obj[key] = value
        self.depth -= 1
        return obj


class _YamlParser:
    def __init__(self, lines: list[tuple[int, str, int]], cfg: YamlConfig):
        self.lines = lines  # (indent, content, lineno)
        self.i = 0
        self.cfg = cfg
        self.depth = 0

    def err(self, check_id: str, msg: str, lineno: int) -> ParseError:
        return ParseError(check_id, msg, 0, lineno, 1)

    def bump(self, lineno: int):
        self.depth += 1
        if self.cfg.max_depth > 0 and self.depth > self.cfg.max_depth:
            raise self.err(MAX_DEPTH_EXCEEDED, f"max depth exceeded: {self.cfg.max_depth}", lineno)

    def check_dedent(self, indent: int, ancestors: tuple[int, ...], lineno: int):
        """A line that dedents must land exactly on an enclosing level."""
        if indent not in ancestors:
            raise self.err(INVALID_TOKEN, "invalid indentation", lineno)

    def parse_inline_value(self, text: str, lineno: int):
        t = text.strip()
        if t.startswith(("[", "{")):
            toks = _FlowLexer(t, lineno).tokens()
            fp = _FlowParser(toks, lineno, self.depth, self.cfg.max_depth)
            v = fp.parse_value()
            if fp.pos != len(fp.toks):
                raise self.err(INVALID_TOKEN, "trailing content after flow value", lineno)
            return v
        if t[:1] in ('"', "'"):
            toks = _FlowLexer(t, lineno).tokens()  # raises UnterminatedString
            if len(toks) == 1 and toks[0][0] == "q":
                return toks[0][1]
            raise self.err(INVALID_TOKEN, "trailing content after quoted scalar", lineno)
        return parse_scalar_value(t)

    def parse_block(self, indent: int, ancestors: tuple[int, ...]):
        _, content, lineno = self.lines[self.i]
        if content.startswith("-"):
            # any '-'-prefixed line is a sequence item (lexer/yaml.rs
            # lex_line), '-x' included
            return self.parse_sequence(indent, ancestors)
        kv = _split_key_value(content)
        if kv is not None:
            # hand the already-split head line to parse_mapping so it
            # isn't re-split (the per-entry loop splits each line once)
            self.i += 1
            return self.parse_mapping(indent, ancestors, first_key=(kv[0], kv[1], lineno))
        # scalar document / scalar block value
        self.i += 1
        return self.parse_inline_value(content, lineno)

    def parse_sequence(self, indent: int, ancestors: tuple[int, ...]):
        self.bump(self.lines[self.i][2])
        items = []
        anc = ancestors + (indent,)
        while self.i < len(self.lines):
            line_indent, content, lineno = self.lines[self.i]
            if line_indent != indent or not content.startswith("-"):
                if line_indent < indent:
                    self.check_dedent(line_indent, anc, lineno)
                break
            rest = content[1:]
            if rest.startswith(" "):
                rest = rest[1:]
            rest_offset = len(content) - len(rest)
            rest = rest.strip()
            self.i += 1
            if rest == "":
                # value on following deeper-indented lines, else Null
                if self.i < len(self.lines) and self.lines[self.i][0] > indent:
                    items.append(self.parse_block(self.lines[self.i][0], anc))
                else:
                    items.append(None)
            elif rest == "-" or rest.startswith("- ") or _split_key_value(rest) is not None:
                # '- - x' nested sequence / '- k: v' mapping item: re-enter
                # block parsing with the rest as a synthetic line at the
                # child indent so continuation lines merge naturally
                child = indent + rest_offset
                self.lines.insert(self.i, (child, rest, lineno))
                items.append(self.parse_block(child, anc))
            else:
                items.append(self.parse_inline_value(rest, lineno))
        self.depth -= 1
        return items

    def parse_mapping(self, indent: int, ancestors: tuple[int, ...], first_key):
        self.bump(self.lines[self.i - 1][2] if first_key else self.lines[self.i][2])
        obj: dict = {}
        anc = ancestors + (indent,)

        def add_entry(raw_key: str, raw_val: str, lineno: int):
            key = _parse_key_scalar(raw_key, lineno)
            if raw_val != "":
                value = self.parse_inline_value(raw_val, lineno)
            else:
                if self.i < len(self.lines) and self.lines[self.i][0] > indent:
                    value = self.parse_block(self.lines[self.i][0], anc)
                else:
                    value = None
            if key in obj:
                raise self.err(DUPLICATE_KEY, f"duplicate key: {key}", lineno)
            obj[key] = value

        if first_key is not None:
            add_entry(*first_key)
        while self.i < len(self.lines):
            line_indent, content, lineno = self.lines[self.i]
            if line_indent != indent:
                if line_indent < indent:
                    self.check_dedent(line_indent, anc, lineno)
                break
            if content.startswith("-"):
                break
            kv = _split_key_value(content)
            if kv is None:
                raise self.err(INVALID_TOKEN, "expected mapping key", lineno)
            self.i += 1
            add_entry(kv[0], kv[1], lineno)
        self.depth -= 1
        return obj


def parse_yaml(text: str, config: YamlConfig | None = None):
    """Parse a YAML document to a Value; empty document -> Null
    (yaml/parser.rs:64-69)."""
    cfg = config or _DEFAULT_CONFIG
    lines: list[tuple[int, str, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw
        indent = 0
        for ch in body:
            if ch == " ":
                indent += 1
            elif ch == "\t":
                raise ParseError(
                    INVALID_TOKEN, "tabs not allowed for indentation", 0, lineno, indent + 1
                )
            else:
                break
        content = _strip_comment(body[indent:]).strip()
        if content == "":
            continue
        lines.append((indent, content, lineno))
    if not lines:
        return None
    p = _YamlParser(lines, cfg)
    v = p.parse_block(lines[0][0], ())
    if p.i != len(lines):
        raise ParseError(
            INVALID_TOKEN, "invalid indentation", 0, p.lines[p.i][2], 1
        )
    return v


# -- accept-only recognizer ----------------------------------------------------
# A plain scalar: words of anything but whitespace, quotes, '#', ':',
# brackets and backslashes, separated by runs of spaces; it may start
# with one '-' ('-5') but is never '-' or '- x' (nested items).
_PLAIN_CH = r"""[^\s"'#:\[\]{}\\]"""
_PLAIN = rf"""-?[^\s"'#:\[\]{{}}\\-]{_PLAIN_CH}*(?: +{_PLAIN_CH}+)*"""
_VALUE = rf"""(?:"[^"\\\n\r\t#']*"|{_PLAIN})"""  # or escape-free double-quoted
_KEY = r"[A-Za-z_][A-Za-z0-9_-]*"
# one subset line: (indent, key, " value" after the key, "- value" item);
# all four are empty on a blank line, and a line outside the subset has
# no match at all
_LINE = re.compile(rf"^( *)(?:({_KEY}):( +{_VALUE})?|(- +{_VALUE}))? *$", re.M)
_MAX_LEVELS = 16  # blocks nested deeper run the exact parser


def _blocks_ok(lines: list[tuple[str, str, str, str]], max_depth: int) -> bool:
    """The exact parser's block rules over subset lines: the root sits at
    indent 0; a line deeper than its level opens a child only after a
    bare ``key:``; a dedent lands on an enclosing level; a level holds
    only ``-`` items or only keys; keys are distinct per mapping."""
    limit = _MAX_LEVELS if max_depth <= 0 else min(max_depth, _MAX_LEVELS)
    outer: list[tuple[int, bool, set]] = []  # enclosing (indent, is_seq, keys)
    ind, is_seq, keys = -1, False, set()  # the current level; -1: none yet
    can_open = True
    for sp, key, val, item in lines:
        if not (key or item):
            continue
        n = len(sp)
        if n > ind:
            if not can_open or (ind < 0 and n) or len(outer) == limit:
                return False
            outer.append((ind, is_seq, keys))
            ind, is_seq, keys = n, not key, set()
        elif n < ind:
            while n < ind:
                ind, is_seq, keys = outer.pop()
            if n != ind:
                return False
        if is_seq != (not key):
            return False
        if key:
            if key in keys:
                return False
            keys.add(key)
        can_open = bool(key) and not val
    return True


def check_yaml(text: str, config: YamlConfig | None = None) -> None:
    """Recognizer-only form of ``parse_yaml``: raise exactly what it
    raises, build no value.

    Accepts without the exact parser only this subset: space-indented
    ``key: scalar``, ``key:`` and ``- scalar`` lines with the root at
    indent 0, bare keys, and scalars that are plain (no ``:``, quotes,
    brackets or ``#``) or double-quoted without escapes; the block rules
    are checked by ``_blocks_ok``. Everything else — tabs, ``\\r``,
    comments, flow collections, ``'`` quoting, escapes, ``- k: v`` and
    bare ``-`` items, ``-x`` items, a scalar document, nesting past
    ``_MAX_LEVELS`` or ``max_depth`` — runs ``parse_yaml``.
    """
    cfg = config or _DEFAULT_CONFIG
    lines = _LINE.findall(text)
    # one match per line: every line is in the subset
    if len(lines) == text.count("\n") + 1 and _blocks_ok(lines, cfg.max_depth):
        return
    parse_yaml(text, cfg)


# -- column accept mask ---------------------------------------------------------
# accept_mask_yaml is check_yaml's line subset as one RE2 shape over the
# whole column, then _blocks_ok's rules at most two levels deep in numpy
# over the line starts. RE2's \s is ASCII-only, so Python's whitespace
# (what _PLAIN_CH's \s excludes) is spelled out.
_RE2_SPACE = (
    r"\t\n\x0b\x0c\r\x1c-\x1f \x{85}\x{a0}\x{1680}\x{2000}-\x{200a}"
    r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}"
)
_RE2_PLAIN_CH = rf"""[^{_RE2_SPACE}"'#:\[\]{{}}\\]"""
_RE2_VALUE = (
    rf"""(?:"[^"\\\n\r\t#']*"|-?[^{_RE2_SPACE}"'#:\[\]{{}}\\\-]{_RE2_PLAIN_CH}*"""
    rf"""(?: +{_RE2_PLAIN_CH}+)*)"""
)
_RE2_LINE = rf" *(?:[A-Za-z_][A-Za-z0-9_\-]*:(?: +{_RE2_VALUE})?|- +{_RE2_VALUE})? *"
_YAML_SHAPE = rf"\A(?:{_RE2_LINE}(?:\n|\z))*\z"


def accept_mask_yaml(texts: pa.StringArray, config: YamlConfig | None = None) -> np.ndarray:
    """Which spans of ``texts`` ``check_yaml`` accepts, decided for the
    whole column at once; a False says nothing (the span runs
    ``check_yaml``).

    A span is accepted if every line is in ``check_yaml``'s subset and
    its blocks keep ``_blocks_ok``'s rules within ``min(2, max_depth)``
    levels: the root at indent 0, a deeper line only under a bare
    ``key:`` at the root, one indent and one line kind (keys or ``-``
    items) per level, and keys distinct per mapping."""
    cfg = config or _DEFAULT_CONFIG
    levels = mask_levels(cfg.max_depth)
    return refine(full_match(texts, _YAML_SHAPE), texts, lambda col: _bad_blocks(col, levels))


def _bad_blocks(texts: pa.StringArray, levels: int) -> np.ndarray:
    """Per span of ``texts`` (each matching the shape): its blocks break
    a rule of ``_blocks_ok`` or nest past ``levels``."""
    offs, buf = byte_view(texts)
    n = len(texts)
    b = buf[:-1]
    nl = np.flatnonzero(b == 10)
    # line starts; a blank last line is dropped where the next span
    # starts at the same byte
    start = np.union1d(offs[:-1], nl + 1)
    start = start[start < offs[-1]]
    span = span_of(offs, start)
    end = np.minimum(np.append(nl, offs[-1])[np.searchsorted(nl, start)], offs[span + 1])
    # the shape allows no tab before a line's content or after its end
    first = skip_blanks(buf, start, 1, end)
    full = first < end  # blank lines hold spaces only
    start, end, first, span = start[full], end[full], first[full], span[full]
    indent = first - start
    item = buf[first] == 45  # '-'
    # a bare ``key:`` ends in its ':' (a value never ends in one)
    bare = ~item & (buf[skip_blanks(buf, end - 1, -1, first)] == 58)
    m = len(start)
    lead = np.ones(m, bool)  # a span's first non-blank line
    lead[1:] = span[1:] != span[:-1]
    child = indent > 0
    bad = lead & child
    if levels < 2:
        bad |= child
    root_at = np.maximum.accumulate(np.where(child, -1, np.arange(m)))
    prev = np.arange(m) - 1
    # a child line follows a bare root key (and opens its level) or a
    # line of the same level: same indent, same kind
    under_root = child & ~lead & ~child[prev]
    bad[under_root] |= ~bare[prev[under_root]]
    in_level = child & ~lead & child[prev]
    bad[in_level] |= (indent[in_level] != indent[prev[in_level]]) | (item[in_level] != item[prev[in_level]])
    # a root line is of its span's root kind
    later_root = ~child & ~lead
    bad[later_root] |= item[later_root] != item[root_at[prev[later_root]]]
    # keys distinct per mapping: the root's, or a child level's (named by
    # its bare root key's line)
    keyed = np.flatnonzero(~item)
    colons = np.flatnonzero(b == 58)
    key_end = colons[np.searchsorted(colons, first[keyed])] - 1
    scope = np.where(child[keyed], n + root_at[keyed], span[keyed])
    bad[keyed[repeated(scope, range_hashes(buf, first[keyed], key_end))]] = True
    out = np.zeros(n, bool)
    out[span[bad]] = True
    return out
