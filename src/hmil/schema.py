"""Recursive schema inference over corpora of JSON documents.

A schema is a tree of five node kinds: numeric, string (n-gram), and
categorical leaves, bags (homogeneous arrays), and products (objects
with a fixed field set). Inference streams: each document folds into a
fresh mutable state, which merges in place into one corpus state that
caps categorical vocabularies as they grow and freezes into the schema
at the end; memory grows with the schema and its vocabularies, never
with the corpus.  ``validate`` is the one walk of a document against a
schema: it checks the document and appends it to per-node columns.

Conventions: ``null`` means "field absent" and is never a kind; JSON
booleans are numeric 0/1; arrays must be homogeneous or inference
reports a conflict at the offending path, and inference rejects an array
empty in every document, whose element kind it cannot know.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Union

__all__ = [
    "NumericLeaf",
    "StringLeaf",
    "CategoricalLeaf",
    "Bag",
    "Product",
    "ProductField",
    "SchemaNode",
    "SchemaError",
    "SchemaConflict",
    "Violation",
    "node_paths",
    "infer_schema",
    "validate",
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
        super().__init__(
            f"schema conflict at {path}: expected {expected}, saw {actual}")
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


SchemaNode = Union[NumericLeaf, StringLeaf, CategoricalLeaf, Bag, Product]


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


def _merge_numeric(a: tuple, b: tuple) -> tuple:
    """(count, mean, std) of two (count, mean, std) triples merged by the
    parallel mean/variance formula."""
    (ca, ma, sa), (cb, mb, sb) = a, b
    n = ca + cb
    mean = (ca * ma + cb * mb) / n
    delta = mb - ma
    m2 = (ca * sa * sa + cb * sb * sb) + delta * delta * (ca * cb / n)
    std = math.sqrt(max(m2, 0.0) / n)
    if math.isfinite(mean) and math.isfinite(std):
        return n, mean, std
    # sums or squares of finite numbers near the float64 limit overflowed;
    # scaling every input by one power of two is exact and keeps them in range
    k = math.frexp(max(abs(ma), abs(mb), sa, sb))[1]
    n, mean, std = _merge_numeric(
        (ca, math.ldexp(ma, -k), math.ldexp(sa, -k)),
        (cb, math.ldexp(mb, -k), math.ldexp(sb, -k)))
    return n, math.ldexp(mean, k), math.ldexp(std, k)


@dataclass(slots=True)
class _State:
    """Mutable inference state of one node of ``kind``: its count, a
    numeric leaf's ``mean`` and ``std``, a categorical one's ``vocab``
    (until it outgrows the threshold and turns "string"), a bag's
    ``child`` (None while every instance was empty) and a product's
    ``fields``."""

    kind: str
    count: int = 1
    mean: float = 0.0
    std: float = 0.0
    vocab: set | None = None
    child: _State | None = None
    fields: dict | None = None


def _document_state(value, path: str, threshold) -> _State:
    """The state of one document (each leaf count 1, each field
    required); a conflict inside it names the item where it arises."""
    kind = _kind_of_value(value)
    if kind == "numeric":
        v = _finite_float(value)
        if v is None:
            raise SchemaConflict(path, "finite number", repr(value))
        return _State("numeric", mean=v)
    if kind == "string":
        if threshold < 1:  # one value already outgrows the vocabulary
            return _State("string")
        return _State("categorical", vocab={value})
    if kind == "bag" and value and _float_run(value):
        # the same merges as item by item, with no state per item
        return _State("bag", child=_State("numeric", *reduce(
            _merge_numeric, [(1, v, 0.0) for v in value])))
    if kind == "bag":
        child = None
        for i, item in enumerate(value):
            item_path = f"{path}[{i}]"
            child = _absorb(child, _document_state(item, item_path, threshold),
                            item_path, threshold)
        return _State("bag", child=child)
    if kind == "product":  # a loop, not a comprehension: one frame a level
        state = _State("product", fields={})
        for name in sorted(value):
            if value[name] is not None:  # null == absent
                state.fields[name] = _document_state(
                    value[name], f"{path}.{name}", threshold)
        return state
    raise SchemaConflict(path, "a JSON value", kind)


def _absorb(a, b, path: str, threshold) -> _State | None:
    """``b`` merged into ``a`` in place, or ``b`` if ``a`` is None; past
    ``threshold`` values a categorical leaf turns "string"."""
    if a is None or b is None:
        return b if a is None else a
    if a.kind != b.kind and {a.kind, b.kind} != {"string", "categorical"}:
        raise SchemaConflict(path, a.kind, b.kind)
    if a.kind == "numeric":
        _, a.mean, a.std = _merge_numeric((a.count, a.mean, a.std),
                                          (b.count, b.mean, b.std))
    elif a.kind == "bag":
        a.child = _absorb(a.child, b.child, f"{path}[]", threshold)
    elif a.kind == "product":
        for name, field in b.fields.items():
            a.fields[name] = _absorb(a.fields.get(name), field,
                                     f"{path}.{name}", threshold)
    elif b.kind == "string":
        a.kind, a.vocab = "string", None
    elif a.vocab is not None:
        a.vocab |= b.vocab
        if len(a.vocab) > threshold:
            a.kind, a.vocab = "string", None
    a.count += b.count
    return a


def _frozen(state: _State | None) -> SchemaNode | None:
    """The schema ``state`` holds; None for an element never seen."""
    if state is None:
        return None
    kind, count = state.kind, state.count
    if kind == "numeric":
        return NumericLeaf(count, state.mean, state.std)
    if kind == "string":
        return StringLeaf(count, DEFAULT_NGRAM_N, DEFAULT_HASH_DIM)
    if kind == "categorical":
        return CategoricalLeaf(count, tuple(sorted(state.vocab)))
    if kind == "bag":
        return Bag(count, _frozen(state.child))
    members = []
    for name, f in sorted(state.fields.items()):  # each name is distinct
        members.append(ProductField(name, _frozen(f), f.count < count))
    return Product(count, tuple(members))


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


def _distinct_paths(schema: SchemaNode) -> list[tuple[str, SchemaNode]]:
    """``node_paths(schema)``, or SchemaError naming a path two nodes
    share: columns and layers are keyed by path, and a field name holding
    "." or "[]" can spell another node's path."""
    pairs = node_paths(schema)
    for path, n in Counter(path for path, _ in pairs).items():
        if n > 1:
            raise SchemaError(f"{path}: two schema nodes share this path; "
                              "a field name holds '.' or '[]'")
    return pairs


def infer_schema(docs: Iterable, categorical_threshold: int =
                 DEFAULT_CATEGORICAL_THRESHOLD) -> SchemaNode:
    """Fold a stream of JSON values into one schema.

    String leaves end up categorical iff their corpus-wide distinct-value
    count is at most ``categorical_threshold``; beyond that they become
    hashed n-gram histograms of the default config. Raises SchemaError on
    an empty corpus, a path two nodes share, or an array empty in every
    document, and SchemaConflict on irreconcilable kinds.
    """
    corpus = None  # each document's state merges into it in place
    for doc in docs:
        corpus = _absorb(corpus, _document_state(
            doc, "$", categorical_threshold), "$", categorical_threshold)
    if corpus is None:
        raise SchemaError("empty corpus")
    merged = _frozen(corpus)
    for path, node in _distinct_paths(merged):
        if node is None:
            raise SchemaError(
                f"{path}: array was empty in every document; "
                "element kind cannot be inferred")
    return merged


# node kind -> the JSON values it takes, and their name in a violation
_TAKES = {"numeric": ((int, float), "numeric"), "string": (str, "string"),
          "categorical": (str, "string"), "bag": (list, "array"),
          "product": (dict, "object")}


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
        if isinstance(node.child, NumericLeaf) and _float_run(items):
            columns[child_path].extend(items)
        else:
            for i, item in enumerate(items):
                _walk(item, node.child, f"{path}[{i}]", child_path, columns,
                      out)
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


def _float_run(items: list) -> bool:
    """Whether ``items`` are floats with a finite sum, which they have
    only if each is finite, so a numeric leaf takes them in one step."""
    return set(map(type, items)) <= {float} and math.isfinite(sum(items))


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
    return {"kind": "product", "count": node.count,
            "fields": {f.name: {"optional": f.optional,
                                "schema": _node_to_dict(f.schema)}
                       for f in node.fields}}


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


def dumps_schema(schema: SchemaNode) -> str:
    """Canonical JSON: sorted keys, compact separators, versioned."""
    return json.dumps({"schema_version": SCHEMA_VERSION,
                       "root": _node_to_dict(schema)},
                      sort_keys=True, separators=(",", ":"))


def loads_schema(text: str) -> SchemaNode:
    """Inverse of ``dumps_schema``; malformed input raises SchemaError,
    never a KeyError or TypeError."""
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise SchemaError("schema file must hold a JSON object")
    try:
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {version!r}")
        schema = _node_from_dict(d["root"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(
            f"malformed schema: {type(exc).__name__}: {exc}") from exc
    _distinct_paths(schema)
    return schema
