"""XML parser (elements, attributes, text, entities).

Re-implements the reference's XML subset (reference:
crates/zparse/src/xml/parser.rs, xml/model.rs:7-24):

- one root element; trailing content after it -> InvalidToken (:79-86)
- elements with attributes in either quote style; duplicate attribute ->
  InvalidToken (:175-177); unquoted attribute value -> InvalidToken
- name grammar ``[A-Za-z_:][A-Za-z0-9_:.-]*`` (:333-339)
- children are an ORDERED interleaved sequence of text and element
  spans (xml/model.rs:20-24) — the reference's closest analog to the
  engine's interleaved ``spans`` column
- whitespace-only text dropped (:214-220)
- entities ``&amp; &lt; &gt; &quot; &apos; &#NNN; &#xHH;``; anything
  else -> InvalidToken "invalid xml entity" (:341-390); decoding applies
  to text and attribute values
- comments ``<!-- -->``, CDATA ``<![CDATA[ ]]>`` (content DISCARDED,
  like the reference), other ``<!...>`` declarations and ``<?...?>``
  processing instructions skipped
- mismatched closing tag -> InvalidToken (:125-134); unterminated
  element -> InvalidToken; ``max_size`` only (no depth limit, :9-14)

Documented divergence: after a skipped comment/PI/declaration we allow
whitespace or text before the next node (the reference immediately
requires ``<`` — untested quirk that rejects ``<a><!--c-->text</a>``).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from xml.parsers.expat import ExpatError, ParserCreate

from .errors import INVALID_TOKEN, MAX_SIZE_EXCEEDED, ParseError

DEFAULT_MAX_SIZE = 10 * 1024 * 1024


@dataclass(frozen=True)
class XmlConfig:
    max_size: int = DEFAULT_MAX_SIZE


# shared default: a frozen dataclass costs ~0.5 us to build per call
_DEFAULT_CONFIG = XmlConfig()


@dataclass
class XmlElement:
    """xml/model.rs:13-24 — name, ordered attributes, interleaved children.

    ``children`` holds XmlElement and str (text) items in document order.
    """

    name: str
    attributes: dict = field(default_factory=dict)
    children: list = field(default_factory=list)


@dataclass
class XmlDocument:
    root: XmlElement


_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")
_WS = re.compile(r"[ \t\r\n]*")
_ENTITY_MAP = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - last_nl


def decode_entities(text: str, src: str, base: int) -> str:
    """xml/parser.rs:341-390 — strict entity decoding."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c != "&":
            out.append(c)
            i += 1
            continue
        j = text.find(";", i + 1)
        if j < 0:
            line, col = _line_col(src, base + i)
            raise ParseError(INVALID_TOKEN, "invalid xml entity", base + i, line, col)
        entity = text[i + 1 : j]
        rep = _ENTITY_MAP.get(entity)
        if rep is None:
            if entity.startswith("#x") or entity.startswith("#X"):
                try:
                    code = int(entity[2:], 16)
                except ValueError:
                    code = -1
            elif entity.startswith("#"):
                try:
                    code = int(entity[1:])
                except ValueError:
                    code = -1
            else:
                code = -1
            if not (0 <= code <= 0x10FFFF) or 0xD800 <= code <= 0xDFFF:
                line, col = _line_col(src, base + i)
                raise ParseError(INVALID_TOKEN, "invalid xml entity", base + i, line, col)
            rep = chr(code)
        out.append(rep)
        i = j + 1
    return "".join(out)


class _XmlParser:
    __slots__ = ("text", "pos", "n")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)

    def err(self, msg: str, offset: int | None = None) -> ParseError:
        off = self.pos if offset is None else offset
        line, col = _line_col(self.text, off)
        return ParseError(INVALID_TOKEN, msg, off, line, col)

    def skip_ws(self) -> None:
        self.pos = _WS.match(self.text, self.pos).end()

    def skip_until(self, pattern: str) -> None:
        j = self.text.find(pattern, self.pos)
        if j < 0:
            raise self.err("unterminated markup")
        self.pos = j + len(pattern)

    def skip_misc(self) -> bool:
        """Skip one comment/CDATA/declaration/PI if present; True if skipped."""
        text, pos = self.text, self.pos
        if text.startswith("<!--", pos):
            self.pos = pos + 4
            self.skip_until("-->")
            return True
        if text.startswith("<![CD", pos):
            self.pos = pos + 2
            self.skip_until("]]>")
            return True
        if text.startswith("<!", pos):
            self.pos = pos + 2
            self.skip_until(">")
            return True
        if text.startswith("<?", pos):
            self.pos = pos + 2
            self.skip_until("?>")
            return True
        return False

    def parse_name(self) -> str:
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise self.err("expected name")
        self.pos = m.end()
        return m.group()

    def parse_attributes(self) -> dict:
        attrs: dict = {}
        text = self.text
        while True:
            self.skip_ws()
            if self.pos >= self.n:
                raise self.err("unexpected end of input")
            c = text[self.pos]
            if c in "/>":
                return attrs
            name_off = self.pos
            name = self.parse_name()
            self.skip_ws()
            if self.pos >= self.n or text[self.pos] != "=":
                raise self.err("unexpected token")
            self.pos += 1
            self.skip_ws()
            if self.pos >= self.n or text[self.pos] not in "\"'":
                raise self.err("expected quoted attribute value")
            quote = text[self.pos]
            start = self.pos + 1
            end = text.find(quote, start)
            if end < 0:
                raise self.err("unterminated attribute value", start)
            value = decode_entities(text[start:end], text, start)
            self.pos = end + 1
            if name in attrs:
                raise self.err("duplicate attribute", name_off)
            attrs[name] = value

    def _at_misc(self) -> bool:
        """True iff the cursor sits on comment/CDATA/decl/PI markup —
        a two-char peek so the hot paths only pay skip_misc's four
        startswith probes when one can actually match."""
        pos = self.pos
        text = self.text
        return pos + 1 < self.n and text[pos] == "<" and (
            text[pos + 1] == "!" or text[pos + 1] == "?"
        )

    def parse_element(self) -> XmlElement:
        text, n = self.text, self.n
        while self._at_misc() and self.skip_misc():
            self.skip_ws()
        pos = self.pos
        if pos >= n or text[pos] != "<":
            raise self.err("unexpected token")
        if pos + 1 < n and text[pos + 1] == "/":
            raise self.err("unexpected closing tag")
        self.pos = pos + 1
        name = self.parse_name()
        attrs = self.parse_attributes()
        pos = self.pos
        if pos < n and text[pos] == "/":
            if pos + 1 >= n or text[pos + 1] != ">":
                self.pos = pos + 1
                raise self.err("unexpected token")
            self.pos = pos + 2
            return XmlElement(name, attrs, [])
        if pos >= n or text[pos] != ">":
            raise self.err("unexpected token")
        self.pos = pos + 1

        children: list = []
        append = children.append
        while True:
            pos = self.pos
            if pos >= n:
                raise self.err("unterminated element")
            if text[pos] == "<":
                nxt = text[pos + 1] if pos + 1 < n else ""
                if nxt == "/":
                    self.pos = pos + 2
                    close_off = self.pos
                    close_name = self.parse_name()
                    if close_name != name:
                        raise self.err("mismatched closing tag", close_off)
                    self.skip_ws()
                    if self.pos >= n or text[self.pos] != ">":
                        raise self.err("unexpected token")
                    self.pos += 1
                    return XmlElement(name, attrs, children)
                if (nxt == "!" or nxt == "?") and self.skip_misc():
                    continue
                append(self.parse_element())
                continue
            # text span up to next '<'
            j = text.find("<", pos)
            if j < 0:
                raise self.err("unterminated element", n)
            raw = text[pos:j]
            decoded = decode_entities(raw, text, pos)
            self.pos = j
            if decoded.strip():
                append(decoded)


def _check_size(text: str, cfg: XmlConfig) -> None:
    if cfg.max_size > 0 and len(text.encode("utf-8", "surrogatepass")) > cfg.max_size:
        raise ParseError(MAX_SIZE_EXCEEDED, f"maximum size exceeded: {cfg.max_size}", 0, 1, 1)


def check_xml(text: str, config: XmlConfig | None = None) -> None:
    """Recognizer-only form of ``parse_xml``: raise exactly what it
    raises, build no document.

    expat may say "valid" when a cheap guard holds:
    - ASCII only: expat's name grammar then equals ``_NAME``, and there
      is no BOM;
    - no ``<!`` / ``<?``: no DTD, comment, CDATA or PI, so expat accepts
      only the five built-in entities and legal char refs — a subset of
      what ``decode_entities`` accepts;
    - fewer ``<`` than a quarter of the recursion limit: the exact
      parser recurses once per nesting level and fails on deep documents
      with RecursionError, which expat would accept.
    A guard miss or any ExpatError runs the exact parser.
    """
    cfg = config or _DEFAULT_CONFIG
    _check_size(text, cfg)
    if (
        text.isascii()
        and "<!" not in text
        and "<?" not in text
        and text.count("<") < sys.getrecursionlimit() // 4
    ):
        try:
            ParserCreate().Parse(text, True)
            return
        except ExpatError:
            pass
    parse_xml(text, cfg)


def parse_xml(text: str, config: XmlConfig | None = None) -> XmlDocument:
    cfg = config or _DEFAULT_CONFIG
    _check_size(text, cfg)
    p = _XmlParser(text)
    p.skip_ws()
    root = p.parse_element()
    p.skip_ws()
    while p.skip_misc():
        p.skip_ws()
    if p.pos != p.n:
        raise p.err("trailing content after root element")
    return XmlDocument(root)
