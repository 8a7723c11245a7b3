"""Recursive schema inference over corpora of JSON documents.

A schema is a tree of five node kinds: numeric, string (n-gram), and
categorical leaves, bags (homogeneous arrays), and products (objects
with a fixed field set). Inference folds per-document schemas together
in one streaming pass that caps categorical vocabularies as they
grow; memory grows with the schema and its vocabularies, never with
the corpus.  ``validate`` is the one walk of a document against a
schema: it checks the document and appends it to per-node columns.

Conventions: ``null`` means "field absent" and is never a kind; JSON
booleans are numeric 0/1; arrays must be homogeneous or inference
reports a conflict at the offending path.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Union

__all__ = [
    "NumericLeaf",
    "StringLeaf",
    "CategoricalLeaf",
    "Bag",
    "Product",
    "ProductField",
    "Unknown",
    "SchemaNode",
    "SchemaError",
    "SchemaConflict",
    "Violation",
    "node_paths",
    "infer_schema",
    "merge_schemas",
    "validate",
    "schema_to_dict",
    "schema_from_dict",
    "dumps_schema",
    "loads_schema",
]

SCHEMA_VERSION = 1

DEFAULT_CATEGORICAL_THRESHOLD = 32
DEFAULT_NGRAM_N = 3
DEFAULT_HASH_DIM = 64


class SchemaError(Exception):
    """Schema inference or serialization failed."""


class SchemaConflict(SchemaError):
    """Two values at one JSON path have irreconcilable kinds."""

    def __init__(self, path: str, expected: str, actual: str):
        super().__init__(f"{path}: cannot reconcile {expected} with {actual}")
        self.path = path
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True)
class NumericLeaf:
    count: int
    mean: float
    std: float

    kind = "numeric"


@dataclass(frozen=True)
class StringLeaf:
    count: int
    ngram_n: int
    hash_dim: int

    kind = "string"


@dataclass(frozen=True)
class CategoricalLeaf:
    count: int
    values: tuple[str, ...]  # sorted; index of a value is its position

    kind = "categorical"

    def index(self, value: str) -> int | None:
        try:
            return self.values.index(value)
        except ValueError:
            return None


@dataclass(frozen=True)
class Bag:
    count: int
    child: "SchemaNode"

    kind = "bag"


@dataclass(frozen=True)
class ProductField:
    name: str
    schema: "SchemaNode"
    optional: bool


@dataclass(frozen=True)
class Product:
    count: int
    fields: tuple[ProductField, ...]  # sorted by name

    kind = "product"

    def field(self, name: str) -> ProductField | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


@dataclass(frozen=True)
class Unknown:
    """Placeholder for the element kind of arrays never seen non-empty."""

    count: int = 0

    kind = "unknown"


SchemaNode = Union[NumericLeaf, StringLeaf, CategoricalLeaf, Bag, Product, Unknown]


@dataclass(frozen=True)
class Violation:
    path: str
    expected: str
    actual: str

    def __str__(self) -> str:
        return f"{self.path}: expected {self.expected}, got {self.actual}"


def _kind_of_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return "numeric"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "bag"
    if isinstance(value, dict):
        return "product"
    return type(value).__name__


def _finite_float(value) -> float | None:
    """``value`` as a float, or None if it is not finite in float64
    (JSON integers can be arbitrarily large)."""
    try:
        v = float(value)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _categorical(count: int, values: tuple[str, ...], cap) -> SchemaNode:
    """A categorical leaf, or an n-gram leaf once ``values`` outgrows the
    threshold of ``cap`` = (threshold, ngram_n, hash_dim), if given."""
    if cap is not None and len(values) > cap[0]:
        return StringLeaf(count=count, ngram_n=cap[1], hash_dim=cap[2])
    return CategoricalLeaf(count=count, values=values)


def _schema_from_value(value, path: str, cap) -> SchemaNode:
    """Single-document schema: every leaf has count 1, every field required."""
    kind = _kind_of_value(value)
    if kind == "null":
        raise SchemaConflict(path, "a JSON value", "null")
    if kind == "numeric":
        v = _finite_float(value)
        if v is None:
            raise SchemaConflict(path, "finite number", repr(value))
        return NumericLeaf(count=1, mean=v, std=0.0)
    if kind == "string":
        return _categorical(1, (value,), cap)
    if kind == "bag":
        child: SchemaNode = Unknown()
        for i, item in enumerate(value):
            item_path = f"{path}[{i}]"
            child = _merge(child, _schema_from_value(item, item_path, cap),
                           item_path, cap)
        return Bag(count=1, child=child)
    if kind == "product":
        fields = []
        for name in sorted(value.keys()):
            if value[name] is None:
                continue  # null == absent
            fields.append(ProductField(
                name=name,
                schema=_schema_from_value(value[name], f"{path}.{name}", cap),
                optional=False))
        return Product(count=1, fields=tuple(fields))
    raise SchemaConflict(path, "a JSON value", kind)


def _merge_numeric(a: NumericLeaf, b: NumericLeaf) -> NumericLeaf:
    n = a.count + b.count
    mean = (a.count * a.mean + b.count * b.mean) / n
    delta = b.mean - a.mean
    m2 = (a.count * a.std * a.std + b.count * b.std * b.std) \
        + delta * delta * (a.count * b.count / n)
    std = math.sqrt(max(m2, 0.0) / n)
    if math.isfinite(mean) and math.isfinite(std):
        return NumericLeaf(count=n, mean=mean, std=std)
    # sums or squares of finite numbers near the float64 limit overflowed;
    # scaling every input by one power of two is exact and keeps them in
    # range
    k = math.frexp(max(abs(a.mean), abs(b.mean), a.std, b.std))[1]
    return _scaled(_merge_numeric(_scaled(a, -k), _scaled(b, -k)), k)


def _scaled(leaf: NumericLeaf, k: int) -> NumericLeaf:
    return NumericLeaf(count=leaf.count, mean=math.ldexp(leaf.mean, k),
                       std=math.ldexp(leaf.std, k))


def _merge(a: SchemaNode, b: SchemaNode, path: str, cap=None) -> SchemaNode:
    if isinstance(a, Unknown):
        return b
    if isinstance(b, Unknown):
        return a
    if isinstance(a, NumericLeaf) and isinstance(b, NumericLeaf):
        return _merge_numeric(a, b)
    if isinstance(a, StringLeaf) and isinstance(b, StringLeaf):
        if (a.ngram_n, a.hash_dim) != (b.ngram_n, b.hash_dim):
            raise SchemaConflict(path, f"n-gram config {(a.ngram_n, a.hash_dim)}",
                                 f"{(b.ngram_n, b.hash_dim)}")
        return StringLeaf(count=a.count + b.count, ngram_n=a.ngram_n,
                          hash_dim=a.hash_dim)
    if isinstance(a, StringLeaf) and isinstance(b, CategoricalLeaf):
        return StringLeaf(count=a.count + b.count, ngram_n=a.ngram_n,
                          hash_dim=a.hash_dim)
    if isinstance(a, CategoricalLeaf) and isinstance(b, StringLeaf):
        return StringLeaf(count=a.count + b.count, ngram_n=b.ngram_n,
                          hash_dim=b.hash_dim)
    if isinstance(a, CategoricalLeaf) and isinstance(b, CategoricalLeaf):
        return _categorical(a.count + b.count,
                            tuple(sorted(set(a.values) | set(b.values))), cap)
    if isinstance(a, Bag) and isinstance(b, Bag):
        return Bag(count=a.count + b.count,
                   child=_merge(a.child, b.child, f"{path}[]", cap))
    if isinstance(a, Product) and isinstance(b, Product):
        total = a.count + b.count
        names = sorted({f.name for f in a.fields} | {f.name for f in b.fields})
        fields = []
        for name in names:
            fa, fb = a.field(name), b.field(name)
            if fa is not None and fb is not None:
                merged = _merge(fa.schema, fb.schema, f"{path}.{name}", cap)
            else:
                merged = (fa or fb).schema
            fields.append(ProductField(
                name=name, schema=merged,
                optional=merged.count < total))
        return Product(count=total, fields=tuple(fields))
    raise SchemaConflict(path, a.kind, b.kind)


def merge_schemas(a: SchemaNode, b: SchemaNode) -> SchemaNode:
    """Least upper bound of two schemas.

    Counts add, numeric statistics combine by the parallel mean/variance
    formula, vocabularies union, and a product field present in only one
    operand comes out optional. Commutative; associative up to float
    round-off in leaf statistics.
    """
    return _merge(a, b, "$")


def node_paths(schema: SchemaNode, path: str = "$") -> list[tuple[str, SchemaNode]]:
    """Preorder list of (path, node) pairs for the whole tree: "$" at
    the root, ".name" steps into a product field, "[]" into a bag's
    element."""
    out = [(path, schema)]
    if isinstance(schema, Bag):
        out.extend(node_paths(schema.child, path + "[]"))
    elif isinstance(schema, Product):
        for f in schema.fields:
            out.extend(node_paths(f.schema, path + "." + f.name))
    return out


def infer_schema(docs: Iterable, categorical_threshold: int = DEFAULT_CATEGORICAL_THRESHOLD,
                 ngram_n: int = DEFAULT_NGRAM_N,
                 hash_dim: int = DEFAULT_HASH_DIM) -> SchemaNode:
    """Fold a stream of JSON values into one schema.

    String leaves end up categorical iff their corpus-wide distinct-value
    count is at most ``categorical_threshold``; beyond that they become
    hashed n-gram histograms with the given config. Raises SchemaError on
    an empty corpus, SchemaConflict on irreconcilable kinds, and a
    diagnostic if some array never showed a non-empty instance.
    """
    cap = (categorical_threshold, ngram_n, hash_dim)
    merged: SchemaNode | None = None
    for doc in docs:
        doc_schema = _schema_from_value(doc, "$", cap)
        merged = (doc_schema if merged is None
                  else _merge(merged, doc_schema, "$", cap))
    if merged is None:
        raise SchemaError("empty corpus")
    for path, node in node_paths(merged):
        if isinstance(node, Unknown):
            raise SchemaError(
                f"{path}: array was empty in every document; "
                "element kind cannot be inferred")
    return merged


# node kind -> the JSON values it takes, and their name in a violation
_TAKES = {"numeric": ((int, float), "numeric"), "string": (str, "string"),
          "categorical": (str, "string"), "bag": (list, "array"),
          "product": (dict, "object"), "unknown": ((), "resolved element kind")}


def validate(doc, schema: SchemaNode,
             columns: dict[str, list] | None = None) -> list[Violation]:
    """All points where ``doc`` does not fit ``schema``; empty list if it does.

    Unseen categorical values are fine (they encode to the unknown slot);
    missing required fields, extra fields, kind mismatches, non-finite
    numbers, and n-gram strings holding unpaired surrogates are
    violations.

    The same walk appends the document to ``columns`` (as from
    ``batching.new_columns``): raw leaf values, with None under an absent
    optional subtree, bag element counts, and product presence flags.
    """
    out: list[Violation] = []
    _walk(doc, schema, "$", "$",
          defaultdict(list) if columns is None else columns, out)
    return out


def _walk(value, node: SchemaNode, path: str, column_path: str,
          columns: dict[str, list], out: list[Violation]) -> None:
    """``validate`` at ``node``, which ``column_path`` names; ``path``
    names ``value`` in the document.  An absent optional subtree walks
    as None into a throwaway ``out``: None leaves, empty bags, flags 0."""
    types, expected = _TAKES[node.kind]
    fits = isinstance(value, types)  # a bool is an int
    if not fits:
        out.append(Violation(path, expected, _kind_of_value(value)))
    if isinstance(node, Product):
        fields = [(f, value.get(f.name) if fits else None)
                  for f in node.fields]
        columns[column_path].append([0.0 if v is None else 1.0
                                     for f, v in fields if f.optional])
        for f, v in fields:
            if v is None and fits and not f.optional:  # null == absent
                out.append(Violation(f"{path}.{f.name}",
                                     f"required field {f.name!r}", "missing"))
            _walk(v, f.schema, f"{path}.{f.name}", f"{column_path}.{f.name}",
                  columns, [] if v is None else out)
        for name in sorted(value.keys() - {f.name for f in node.fields}
                           if fits else ()):
            if value[name] is not None:
                out.append(Violation(f"{path}.{name}", "no such field",
                                     "unexpected field"))
    elif isinstance(node, Bag):
        items = value if fits else ()
        columns[column_path].append(len(items))
        child_path = column_path + "[]"
        for i, item in enumerate(items):
            _walk(item, node.child, f"{path}[{i}]", child_path, columns, out)
    else:
        columns[column_path].append(value)
        if fits and isinstance(node, NumericLeaf) \
                and _finite_float(value) is None:
            out.append(Violation(path, "finite number", repr(value)))
        elif fits and isinstance(node, StringLeaf):
            # JSON can escape a lone surrogate ("\ud800"), which has no
            # UTF-8 bytes to hash into n-grams
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                out.append(Violation(path, "string encodable as UTF-8",
                                     "unpaired surrogate"))


def _node_to_dict(node: SchemaNode) -> dict:
    if isinstance(node, NumericLeaf):
        return {"kind": "numeric", "count": node.count,
                "mean": node.mean, "std": node.std}
    if isinstance(node, StringLeaf):
        return {"kind": "string", "count": node.count,
                "ngram_n": node.ngram_n, "hash_dim": node.hash_dim}
    if isinstance(node, CategoricalLeaf):
        return {"kind": "categorical", "count": node.count,
                "values": list(node.values)}
    if isinstance(node, Bag):
        return {"kind": "bag", "count": node.count,
                "child": _node_to_dict(node.child)}
    if isinstance(node, Product):
        return {"kind": "product", "count": node.count,
                "fields": {f.name: {"optional": f.optional,
                                    "schema": _node_to_dict(f.schema)}
                           for f in node.fields}}
    raise SchemaError(f"cannot serialize unresolved schema node {node.kind!r}")


def _is_finite(value) -> bool:
    return type(value) in (int, float) and _finite_float(value) is not None


# key -> (test, what it asks) for each value a schema node holds;
# type(v) is int, as a bool is no int here
_VALUE_TESTS = {
    "count": (lambda v: type(v) is int and v >= 0, "an int >= 0"),
    "mean": (_is_finite, "a finite number"),
    "std": (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0"),
    "ngram_n": (lambda v: type(v) is int and v >= 1, "an int >= 1"),
    "hash_dim": (lambda v: type(v) is int and v >= 1, "an int >= 1"),
    "values": (lambda v: isinstance(v, list)
               and all(isinstance(s, str) for s in v) and v == sorted(set(v)),
               "a sorted list of distinct strings"),
    "optional": (lambda v: type(v) is bool, "a bool"),
}


def _value(d: dict, key: str):
    test, what = _VALUE_TESTS[key]
    if not test(d[key]):
        raise SchemaError(f"malformed schema: {key} must be {what}")
    return d[key]


def _node_from_dict(d: dict) -> SchemaNode:
    kind = d.get("kind")
    if kind == "numeric":
        return NumericLeaf(count=_value(d, "count"), mean=_value(d, "mean"),
                           std=_value(d, "std"))
    if kind == "string":
        return StringLeaf(count=_value(d, "count"),
                          ngram_n=_value(d, "ngram_n"),
                          hash_dim=_value(d, "hash_dim"))
    if kind == "categorical":
        return CategoricalLeaf(count=_value(d, "count"),
                               values=tuple(_value(d, "values")))
    if kind == "bag":
        return Bag(count=_value(d, "count"), child=_node_from_dict(d["child"]))
    if kind == "product":
        fields = tuple(
            ProductField(name=name, schema=_node_from_dict(fd["schema"]),
                         optional=_value(fd, "optional"))
            for name, fd in sorted(d["fields"].items()))
        return Product(count=_value(d, "count"), fields=fields)
    raise SchemaError(f"unknown schema node kind {kind!r}")


def schema_to_dict(schema: SchemaNode) -> dict:
    return {"schema_version": SCHEMA_VERSION, "root": _node_to_dict(schema)}


def schema_from_dict(d: dict) -> SchemaNode:
    """Inverse of ``schema_to_dict``; malformed input raises
    SchemaError, never a KeyError or TypeError."""
    try:
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {version!r}")
        return _node_from_dict(d["root"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(
            f"malformed schema: {type(exc).__name__}: {exc}") from exc


def dumps_schema(schema: SchemaNode) -> str:
    """Canonical JSON: sorted keys, compact separators, versioned."""
    return json.dumps(schema_to_dict(schema), sort_keys=True,
                      separators=(",", ":"))


def loads_schema(text: str) -> SchemaNode:
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise SchemaError("schema file must hold a JSON object")
    return schema_from_dict(d)
