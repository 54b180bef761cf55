"""Column kernels shared by the accept masks.

``accept_mask_csv``, ``accept_mask_toml`` and ``accept_mask_yaml`` say
"valid" for a whole Arrow column of one kind at once: an RE2 shape match
(Arrow's regex kernels), then numpy over the column's byte buffer for
what a regular language cannot say (distinct keys per scope, indent
levels). A mask may only accept; a span it leaves out runs the format's
checker and then its exact parser, as before.

RE2 is not Python's ``re``: patterns use ``\\A``/``\\z`` and explicit
character classes only, since RE2's ``\\s`` is ASCII-only where Python's
matches Unicode whitespace. Arrow compiles a pattern on every call, so
the shapes are kept small.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# values (TOML) or blocks (YAML) nested deeper than this are left to the
# checkers
MASK_LEVELS = 2
# range hashes: sum of (byte + 1) * P**(j - start) mod 2**64
_P = np.uint64(0x100000001B3)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def full_match(texts: pa.Array, pattern: str) -> np.ndarray:
    """Where ``pattern`` (anchored with ``\\A…\\z``) matches, as a numpy bool
    array; a null never matches."""
    m = pc.match_substring_regex(texts, pattern=pattern)
    if m.null_count:
        m = pc.fill_null(m, False)
    return m.to_numpy(zero_copy_only=False)


def size_ok(texts: pa.Array, max_size: int) -> np.ndarray | bool:
    """Where the UTF-8 size is within ``max_size`` (no limit at <= 0)."""
    if max_size <= 0:
        return True
    return pc.binary_length(texts).to_numpy(zero_copy_only=False) <= max_size


def byte_view(texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, buf)``: the n+1 offsets of the spans in ``buf``, the
    spans' bytes as uint8, followed by one zero byte so that reads one
    past a span's end stay in bounds. ``offsets[0]`` is 0 also for a
    sliced array: the bytes before its first span are not in ``buf``."""
    _, obuf, dbuf = texts.buffers()
    width = np.int64 if pa.types.is_large_string(texts.type) else np.int32
    offs = np.frombuffer(obuf, width)[texts.offset : texts.offset + len(texts) + 1].astype(np.int64)
    data = np.frombuffer(dbuf, np.uint8)[offs[0] : offs[-1]] if dbuf is not None else np.zeros(0, np.uint8)
    return offs - offs[0], np.concatenate([data, np.zeros(1, np.uint8)])


def mask_levels(max_depth: int) -> int:
    """The nesting a mask decides under a config's ``max_depth`` (no
    limit at <= 0)."""
    return MASK_LEVELS if max_depth <= 0 else min(MASK_LEVELS, max_depth)


def refine(ok: np.ndarray, texts: pa.Array, bad) -> np.ndarray:
    """``ok`` with the spans cleared that ``bad`` rejects; ``bad`` gets
    the column of the spans ``ok`` holds and returns a bool per span."""
    idx = np.flatnonzero(ok)
    if len(idx):
        ok[idx[bad(texts.take(pa.array(idx)))]] = False
    return ok


def span_of(offs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The span holding each byte position."""
    return np.searchsorted(offs, pos, "right") - 1


def range_hashes(buf: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """A uint64 hash of each non-empty byte range ``buf[first[i] :
    last[i] + 1]``, computed over the ranges' bytes only. Equal ranges
    hash alike; two ranges that only collide are taken as equal, so a
    collision can only make a mask step aside."""
    n = last - first + 1
    if not len(n):
        return np.zeros(0, np.uint64)
    seg = np.cumsum(n) - n
    rel = np.arange(int(n.sum())) - np.repeat(seg, n)
    powers = np.full(int(n.max()), _P)
    powers[0] = 1
    terms = (buf[np.repeat(first, n) + rel].astype(np.uint64) + np.uint64(1)) * np.cumprod(powers)[rel]
    return np.add.reduceat(terms, seg)


def literal_hash(key: str) -> np.uint64:
    """``range_hashes`` of one ASCII key."""
    b = np.frombuffer(key.encode(), np.uint8)
    return range_hashes(b, np.array([0]), np.array([len(b) - 1]))[0]


def skip_blanks(buf: np.ndarray, at: np.ndarray, step: int, limit: np.ndarray | None = None) -> np.ndarray:
    """From each position, step over spaces and tabs (``step`` is 1 or
    -1) to the first other byte, or to its ``limit``."""
    at = at.copy()
    while len(at):
        blank = (buf[at] == 32) | (buf[at] == 9)
        if limit is not None:
            blank &= at != limit
        if not blank.any():
            break
        at += step * blank
    return at


def repeated(scope: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The entries whose ``(scope, key hash)`` occurs more than once; a
    collision reports a pair too, which costs speed, never a wrong
    accept."""
    if len(scope) < 2:
        return np.zeros(len(scope), bool)
    h = (scope.astype(np.uint64) * _MIX) ^ key
    order = np.argsort(h)
    s = h[order]
    eq = s[1:] == s[:-1]
    dup = np.zeros(len(h), bool)
    dup[order[1:][eq]] = True
    dup[order[:-1][eq]] = True
    return dup
