"""Fixed-width float encodings for leaf values and whole documents.

Numbers standardize against the schema's running statistics, strings
become L1-normalized histograms of hashed byte n-grams (FNV-1a 64,
fixed constants, so histograms reproduce across platforms), and
categorical values one-hot with a trailing unknown slot.

A document is encoded straight into per-node columns (see
``batching.new_columns``): one row per leaf value, one running offset
per bag, one row of presence flags per product.
"""

from __future__ import annotations

import numpy as np

from .schema import (
    Bag,
    CategoricalLeaf,
    NumericLeaf,
    Product,
    SchemaNode,
    StringLeaf,
    Violation,
    validate,
)

__all__ = [
    "EncodingError",
    "fnv1a64",
    "encode_numeric",
    "encode_string_ngram",
    "encode_categorical",
    "leaf_width",
    "encode_document",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class EncodingError(Exception):
    def __init__(self, message: str, violations: list[Violation] | None = None):
        super().__init__(message)
        self.violations = violations or []
        self.index: int | None = None  # position in the batch, once known


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def encode_numeric(v: float, mean: float, std: float) -> np.ndarray:
    """Standardized value ``(v - mean) / std``; a degenerate leaf
    (std == 0) always encodes to 0."""
    v = float(v)
    if not np.isfinite(v):
        raise EncodingError(f"non-finite number {v!r}")
    z = 0.0 if std == 0.0 else (v - mean) / std
    return np.array([z])


def encode_string_ngram(s: str, n: int, dim: int) -> np.ndarray:
    """L1-normalized histogram over hashed byte n-grams of ``s``.

    Strings shorter than ``n`` bytes have no n-grams and stay all-zero.
    """
    out = np.zeros(dim)
    raw = s.encode("utf-8")
    for i in range(len(raw) - n + 1):
        out[fnv1a64(raw[i:i + n]) % dim] += 1.0
    total = out.sum()
    if total > 0:
        out /= total
    return out


def encode_categorical(v: str, leaf: CategoricalLeaf) -> np.ndarray:
    """One-hot over the vocabulary; unseen values hit the extra last slot."""
    out = np.zeros(len(leaf.values) + 1)
    idx = leaf.index(v)
    out[len(leaf.values) if idx is None else idx] = 1.0
    return out


def leaf_width(leaf: SchemaNode) -> int:
    if isinstance(leaf, NumericLeaf):
        return 1
    if isinstance(leaf, StringLeaf):
        return leaf.hash_dim
    if isinstance(leaf, CategoricalLeaf):
        return len(leaf.values) + 1
    raise TypeError(f"not a leaf: {leaf.kind}")


def _append(value, node: SchemaNode, path: str,
            columns: dict[str, list]) -> None:
    """Append ``value`` at ``path``; None stands for an absent optional
    subtree: zero leaf rows, empty bags, presence flags 0."""
    column = columns[path]
    if isinstance(node, Bag):
        items = value or ()
        column.append(column[-1] + len(items))
        child_path = path + "[]"
        for item in items:
            _append(item, node.child, child_path, columns)
    elif isinstance(node, Product):
        values = [None if value is None else value.get(f.name)
                  for f in node.fields]
        column.append([0.0 if v is None else 1.0
                       for f, v in zip(node.fields, values) if f.optional])
        for f, v in zip(node.fields, values):
            _append(v, f.schema, path + "." + f.name, columns)
    elif value is None:
        column.append(np.zeros(leaf_width(node)))
    elif isinstance(node, NumericLeaf):
        column.append(encode_numeric(value, node.mean, node.std))
    elif isinstance(node, StringLeaf):
        column.append(encode_string_ngram(value, node.ngram_n, node.hash_dim))
    else:
        column.append(encode_categorical(value, node))


def encode_document(doc, schema: SchemaNode, columns: dict[str, list]) -> None:
    """Validate a JSON document and append its encoding to ``columns``.

    Raises EncodingError carrying the violation list, with ``columns``
    untouched, if the document does not fit.
    """
    violations = validate(doc, schema)
    if violations:
        raise EncodingError(
            "; ".join(str(v) for v in violations), violations)
    _append(doc, schema, "$", columns)
