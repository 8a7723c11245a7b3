"""Fixed-width float encodings for leaf columns and whole documents.

Numbers standardize against the schema's running statistics, strings
become L1-normalized histograms of hashed byte n-grams (FNV-1a 64,
fixed constants, so histograms reproduce across platforms), and
categorical values one-hot with a trailing unknown slot, through a
value-to-slot dict kept on the leaf.

Documents are appended to per-node columns (see
``batching.new_columns``) by the pass that validates them: one raw JSON
value per leaf (None where an optional leaf is absent), one element
count per bag, one row of presence flags per product.  A chunk of
documents is appended by the schema's columnar fill
(``schema.fill_columns``), one schema node at a time; only a chunk that
does not fit is taken again document by document with
``encode_document`` (``schema.validate``), which names each misfit.  A
document that does not fit leaves the columns as they were.
``encode_column`` then encodes a whole leaf column in one numpy pass,
when ``batching.finish_batch`` builds the batch: n-grams hash at every
byte offset of the joined column with one contiguous slice per byte of
the window.  ``encode_string_ngram`` is a one-row wrapper over it.
"""

from __future__ import annotations

import numpy as np

from .schema import (
    CategoricalLeaf,
    NumericLeaf,
    SchemaNode,
    StringLeaf,
    Violation,
    validate,
)

__all__ = [
    "EncodingError",
    "encode_string_ngram",
    "encode_column",
    "leaf_width",
    "encode_document",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class EncodingError(Exception):
    def __init__(self, message: str, violations: list[Violation] | None = None):
        super().__init__(message)
        self.violations = violations or []
        self.index: int | None = None  # position in the batch, once known


def encode_string_ngram(s: str, n: int, dim: int) -> np.ndarray:
    """L1-normalized histogram over hashed byte n-grams of ``s``.

    Strings shorter than ``n`` bytes have no n-grams and stay all-zero.
    """
    return _ngram_histograms([s], n, dim)[0]


def encode_column(node: SchemaNode, column: list) -> np.ndarray:
    """The ``(rows, width)`` encoding of one leaf's column of raw JSON
    values; a None row (absent optional leaf) encodes to zeros."""
    if isinstance(node, NumericLeaf):
        return _standardize(column, node.mean, node.std)
    if isinstance(node, StringLeaf):
        return _ngram_histograms(column, node.ngram_n, node.hash_dim)
    if isinstance(node, CategoricalLeaf):
        return _one_hot(column, node)
    raise TypeError(f"not a leaf: {node.kind}")


def _standardize(column: list, mean: float, std: float) -> np.ndarray:
    # numpy converts a bool or an int of any size as float() does
    missing = None in column
    values = (np.array([0.0 if v is None else float(v) for v in column])
              if missing else np.array(column, dtype=np.float64))
    finite = np.isfinite(values)
    if not finite.all():
        raise EncodingError(f"non-finite number {float(values[~finite][0])!r}")
    if std == 0.0:
        return np.zeros((len(column), 1))
    # overflow gives inf and nan silently, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        out = ((values - mean) / std).reshape(-1, 1)
    if missing:
        out[[v is None for v in column]] = 0.0
    return out


def _ngram_histograms(column: list, n: int, dim: int) -> np.ndarray:
    """Every row's histogram at once: the FNV-1a recurrence runs as uint64
    (its multiply wraps modulo 2**64, as the hash asks) at every offset of
    the joined column, and the windows inside one row are kept."""
    raw = [b"" if s is None else s.encode("utf-8") for s in column]
    lengths = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
    counts = np.maximum(lengths - n + 1, 0)  # n-grams per row
    windows = int(counts.sum())
    if windows == 0:
        return np.zeros((len(raw), dim))
    buf = np.frombuffer(b"".join(raw), dtype=np.uint8)
    m = buf.size - n + 1  # offsets that start n bytes
    h = np.full(m, _FNV_OFFSET, dtype=np.uint64)
    for k in range(n):
        h ^= buf[k:k + m]
        h *= np.uint64(_FNV_PRIME)
    # a row's last n - 1 bytes (all of a shorter row) start no n-gram:
    # window j of the column starts at byte j plus the bytes so skipped
    # in the rows before its own
    skip = lengths - counts
    h = h[np.arange(windows) + np.repeat(np.cumsum(skip) - skip, counts)]
    h = h & np.uint64(dim - 1) if dim & (dim - 1) == 0 else h % np.uint64(dim)
    buckets = np.repeat(np.arange(len(raw)) * dim, counts) + h.astype(np.int64)
    hist = np.bincount(buckets, minlength=len(raw) * dim).reshape(-1, dim)
    # an all-zero row divided by 1 stays all-zero
    return hist / np.maximum(counts, 1)[:, None]


def _one_hot(column: list, leaf: CategoricalLeaf) -> np.ndarray:
    # a None row (absent leaf) stays all-zero, an unseen value is unknown
    width, slot = len(leaf.values) + 1, leaf._slots.get
    hot = np.array([-1 if v is None else slot(v, width - 1) for v in column],
                   dtype=np.int64)
    return (hot[:, None] == np.arange(width)).astype(np.float64)


def leaf_width(leaf: SchemaNode) -> int:
    if isinstance(leaf, NumericLeaf):
        return 1
    if isinstance(leaf, StringLeaf):
        return leaf.hash_dim
    if isinstance(leaf, CategoricalLeaf):
        return len(leaf.values) + 1
    raise TypeError(f"not a leaf: {leaf.kind}")


def encode_document(doc, schema: SchemaNode, columns: dict[str, list]) -> None:
    """Validate a JSON document and append it to ``columns``, in one pass
    of the schema's compiled walker (``schema.validate``).

    Raises EncodingError carrying the violation list, with ``columns``
    as they were, if the document does not fit.
    """
    try:
        violations = validate(doc, schema, columns)
    except RecursionError:
        raise EncodingError("document nested too deeply") from None
    if violations:
        raise EncodingError(
            "; ".join(str(v) for v in violations), violations)
