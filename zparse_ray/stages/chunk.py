"""Token-window document chunking — the 1->N ``flat_map`` operator a
training-data pipeline uses to split long documents into model-sized
pieces (with optional token overlap for context continuity).

Fully vectorized over the batch: token boundaries are found with ONE
boolean-mask pass over the column's underlying concatenated UTF-8 byte
buffer (the same buffer-level trick as ``textops._window_poly_hashes``
— no per-row Python, no per-token regex dispatch), chunk byte ranges
come from numpy indexing over the flat token-start/end arrays, and the
output strings are built with a single ragged-range gather into a new
Arrow buffer. Chunk boundaries always sit at ASCII-whitespace-adjacent
token edges, so byte slices are valid UTF-8 by construction even for
multi-byte text.

Tokens are maximal runs of non-whitespace, with whitespace the explicit
RE2 class ``[\\t\\n\\f\\r ]`` (the ``textops`` cross-engine-parity
choice). Null/empty/whitespace-only docs produce zero chunks. A pure
per-batch map: zero shuffle, streams at any scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.columnar import byte_view

_WS_BYTES = np.frombuffer(b"\t\n\f\r ", np.uint8)


def _flat_utf8(column: pa.ChunkedArray):
    """(byte_buf, offsets) of the column as one contiguous byte buffer
    (int64 offsets from 0; nulls filled with '')."""
    off, buf = byte_view(pc.fill_null(column, "").combine_chunks())
    return buf[:-1], off


def _token_edges(buf: np.ndarray, off: np.ndarray):
    """Global sorted arrays of token start (inclusive) / end (exclusive)
    byte positions, with doc boundaries sealed so no token spans two
    docs (the buffer is contiguous across docs)."""
    nonws = ~np.isin(buf, _WS_BYTES)
    starts = nonws.copy()
    starts[1:] &= ~nonws[:-1]  # start = non-ws whose predecessor is ws
    ends = nonws.copy()
    ends[:-1] &= ~nonws[1:]  # end = non-ws whose successor is ws
    doc_starts = off[:-1][off[:-1] < len(buf)]
    starts[doc_starts] = nonws[doc_starts]  # doc start ignores prev doc's tail
    doc_ends = off[1:] - 1
    doc_ends = doc_ends[doc_ends >= 0]
    ends[doc_ends] = nonws[doc_ends]  # doc's last byte ignores next doc's head
    return np.flatnonzero(starts), np.flatnonzero(ends) + 1


def _ragged_gather(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> pa.Array:
    """One gather building a large_string array whose i-th value is
    ``buf[starts[i]:ends[i]]``."""
    lengths = (ends - starts).astype(np.int64)
    new_off = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_off[1:])
    base = np.repeat(starts - new_off[:-1], lengths)
    pos = np.arange(new_off[-1], dtype=np.int64) + base
    return pa.Array.from_buffers(
        pa.large_string(),
        len(lengths),
        [None, pa.py_buffer(new_off.tobytes()), pa.py_buffer(buf[pos].tobytes())],
    )


def chunk_documents_batch(
    batch: pa.Table,
    *,
    chunk_tokens: int = 512,
    overlap_tokens: int = 0,
    column: str = "text",
    id_column: str = "doc_id",
) -> pa.Table:
    """Explode each doc into (id, chunk_id, text, n_tokens) rows: chunk
    ``i`` covers tokens ``[i*stride, i*stride + chunk_tokens)`` where
    ``stride = chunk_tokens - overlap_tokens``; chunk text runs from
    its first token's first byte to its last token's last byte."""
    if chunk_tokens <= 0:
        raise ValueError(f"chunk_tokens must be positive, got {chunk_tokens}")
    if not 0 <= overlap_tokens < chunk_tokens:
        raise ValueError(
            f"overlap_tokens must be in [0, chunk_tokens), got {overlap_tokens}"
        )
    stride = chunk_tokens - overlap_tokens
    buf, off = _flat_utf8(batch[column])
    tok_starts, tok_ends = _token_edges(buf, off)
    first_tok = np.searchsorted(tok_starts, off).astype(np.int64)
    n_tok = np.diff(first_tok)  # tokens per doc
    n_chunks = np.where(
        n_tok == 0, 0, 1 + (np.maximum(n_tok - chunk_tokens, 0) + stride - 1) // stride
    ).astype(np.int64)

    total = int(n_chunks.sum())
    doc_idx = np.repeat(np.arange(len(n_tok)), n_chunks)
    cum = np.zeros(len(n_chunks) + 1, dtype=np.int64)
    np.cumsum(n_chunks, out=cum[1:])
    chunk_id = np.arange(total, dtype=np.int64) - cum[:-1][doc_idx]

    tok0_local = chunk_id * stride
    tokN_local = np.minimum(tok0_local + chunk_tokens, n_tok[doc_idx])
    c_start = tok_starts[first_tok[:-1][doc_idx] + tok0_local]
    c_end = tok_ends[first_tok[:-1][doc_idx] + tokN_local - 1]

    text = pc.cast(_ragged_gather(buf, c_start, c_end), pa.string())
    ids = batch[id_column].take(pa.array(doc_idx))
    return pa.table(
        {
            id_column: ids,
            "chunk_id": pa.array(chunk_id, pa.int64()),
            column: text,
            "n_tokens": pa.array(tokN_local - tok0_local, pa.int64()),
        }
    )


def chunk_documents(
    ds,
    *,
    chunk_tokens: int = 512,
    overlap_tokens: int = 0,
    column: str = "text",
    id_column: str = "doc_id",
):
    """Dataset wrapper: streaming 1->N chunk explode (rows out >= rows
    in; blocks stay bounded because chunk text is a re-slice of the
    input text, plus the overlap duplication factor)."""
    return ds.map_batches(
        chunk_documents_batch,
        fn_kwargs={
            "chunk_tokens": chunk_tokens,
            "overlap_tokens": overlap_tokens,
            "column": column,
            "id_column": id_column,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
