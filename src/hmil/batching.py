"""Ragged batches: a set of documents as flat per-node arrays.

Documents are encoded once, through columns: ``encode_document``
appends each valid document to the lists from ``new_columns`` (leaves
as raw JSON values, bags as element counts), and ``finish_batch``
turns those lists into arrays, encoding each leaf column in one pass
(``encoding.encode_column``).  A
minibatch of an encoded corpus is then an index gather (``take``), not
a re-encode.

Variable-length bags never pad.  Each bag node gets an int64 offsets
array of length parent_rows + 1; instances of bag i occupy rows
offsets[i]:offsets[i+1] of the child matrices.  Each product node gets
a presence matrix with one column per optional field (kept even at
width zero so every node knows its row count).  An absent optional
subtree still takes its rows: zero leaf rows, empty bags, flags 0.

Node paths (``schema.node_paths``) name positions in the schema tree:
"$" at the root, ".name" steps into a product field, "[]" steps into a
bag's element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingError, encode_column, encode_document
from .schema import Bag, Product, SchemaNode, node_paths

__all__ = ["RaggedBatch", "build_batch", "new_columns", "finish_batch",
           "take"]


@dataclass
class RaggedBatch:
    batch_size: int
    data: dict[str, np.ndarray]      # leaf path -> (rows, width) float64
    offsets: dict[str, np.ndarray]   # bag path -> (parent_rows + 1,) int64
    presence: dict[str, np.ndarray]  # product path -> (rows, n_optional)


def new_columns(schema: SchemaNode) -> dict[str, list]:
    """Empty columns for ``encode_document``: per leaf a list of raw
    values, per bag element counts, per product flag rows."""
    return {path: [] for path, _ in node_paths(schema)}


def finish_batch(columns: dict[str, list], schema: SchemaNode) -> RaggedBatch:
    """The batch of every document appended to ``columns``."""
    data: dict[str, np.ndarray] = {}
    offsets: dict[str, np.ndarray] = {}
    presence: dict[str, np.ndarray] = {}
    for path, node in node_paths(schema):
        column = columns[path]
        if isinstance(node, Bag):
            offsets[path] = np.zeros(len(column) + 1, dtype=np.int64)
            np.cumsum(column, dtype=np.int64, out=offsets[path][1:])
        elif isinstance(node, Product):
            n_optional = sum(1 for f in node.fields if f.optional)
            presence[path] = np.asarray(column, dtype=np.float64).reshape(
                len(column), n_optional)
        else:
            data[path] = encode_column(node, column)
    return RaggedBatch(batch_size=len(columns["$"]), data=data,
                       offsets=offsets, presence=presence)


def build_batch(docs: list, schema: SchemaNode) -> RaggedBatch:
    """Encode raw JSON documents into one batch.  Document order is
    preserved: batching the concatenation of two lists yields, per node,
    the row-wise concatenation of their batches with shifted offsets.

    Raises EncodingError, with ``index`` set to the document's position,
    at the first document that does not fit the schema.
    """
    columns = new_columns(schema)
    for i, doc in enumerate(docs):
        try:
            encode_document(doc, schema, columns)
        except EncodingError as exc:
            exc.index = i
            raise
    return finish_batch(columns, schema)


def take(batch: RaggedBatch, rows, schema: SchemaNode) -> RaggedBatch:
    """The documents at ``rows`` (repeats allowed), in that order: equal,
    array for array, to batching those documents afresh."""
    rows = np.asarray(rows, dtype=np.int64)
    out = RaggedBatch(batch_size=len(rows), data={}, offsets={}, presence={})
    selected = {"$": rows}  # node path -> its source rows, in output order
    for path, node in node_paths(schema):
        rows = selected[path]
        if isinstance(node, Bag):
            offsets = batch.offsets[path]
            starts = offsets[rows]
            lengths = offsets[rows + 1] - starts
            new = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(lengths, out=new[1:])
            out.offsets[path] = new
            # gathered child row j of selected bag b is source row
            # starts[b] + (j - new[b])
            selected[path + "[]"] = (np.repeat(starts - new[:-1], lengths)
                                     + np.arange(new[-1], dtype=np.int64))
        elif isinstance(node, Product):
            out.presence[path] = batch.presence[path][rows]
            for f in node.fields:
                selected[path + "." + f.name] = rows
        else:
            out.data[path] = batch.data[path][rows]
    return out
