"""Recursive schema inference over corpora of JSON documents.

A schema is a tree of five node kinds: numeric, string (n-gram), and
categorical leaves, bags (homogeneous arrays), and products (objects
with a fixed field set). Inference streams: each document folds straight
into one mutable corpus state that caps categorical vocabularies as they
grow and freezes into the schema at the end; memory grows with the
schema and its vocabularies, never with the corpus.  A bag's items fold
straight into the corpus's element state, and numeric sums are exact, so
no order of documents or items changes the schema.  The fold builds no
path strings: a conflict collects its path steps as it unwinds.
``validate`` checks a document against a schema and appends it to
per-node columns in one pass of the schema's walker: a tree of closures,
one per node, compiled once per schema on first use and cached on the
root node itself, so it lives as long as the schema.  The pass builds no
path strings; a document that does not fit leaves the columns as they
were and is walked again to name its violations.

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
from functools import cached_property
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


class _Node:
    """Base of the five node kinds.  ``_walker`` validates documents
    against the tree below the node; it is compiled on first use and
    kept in the node's own ``__dict__``, so it lives exactly as long as
    the node (a module cache keyed by ``id()`` would keep every schema
    it ever saw alive)."""

    @cached_property
    def _walker(self):
        return _compile(self, "$")[0]


@dataclass(frozen=True)
class NumericLeaf(_Node):
    count: int
    mean: float
    std: float

    kind = "numeric"


@dataclass(frozen=True)
class StringLeaf(_Node):
    count: int
    ngram_n: int
    hash_dim: int

    kind = "string"


@dataclass(frozen=True)
class CategoricalLeaf(_Node):
    count: int
    values: tuple[str, ...]  # sorted; index of a value is its position

    kind = "categorical"

    @cached_property
    def _slots(self) -> dict[str, int]:  # kept as ``_walker`` is
        return {v: i for i, v in enumerate(self.values)}

    def index(self, value: str) -> int | None:
        return self._slots.get(value) if isinstance(value, str) else None


@dataclass(frozen=True)
class Bag(_Node):
    count: int
    child: "SchemaNode"

    kind = "bag"


@dataclass(frozen=True)
class ProductField:
    name: str
    schema: "SchemaNode"
    optional: bool


@dataclass(frozen=True)
class Product(_Node):
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


@dataclass(slots=True)
class _State:
    """Mutable inference state of one node of ``kind``: its count, a
    numeric leaf's ``total`` and ``squares`` (its values' sum times
    ``2**scale`` and their squares' times ``4**scale``: exact ints), a
    categorical one's ``vocab`` (until it outgrows the threshold and turns
    "string"), a bag's ``child`` (None while every instance was empty)
    and a product's ``fields``."""

    kind: str
    count: int = 0
    total: int = 0
    squares: int = 0
    scale: int = 0
    vocab: set | None = None
    child: _State | None = None
    fields: dict | None = None


# the kind of a value of each JSON type; _kind_of_value names the rest
_KINDS = {int: "numeric", float: "numeric", bool: "numeric", str: "string",
          list: "bag", dict: "product"}


class _Clash(Exception):
    """A conflict that names no path yet: each level it unwinds through
    adds its step (".name", "[i]" or "[]"), and ``infer_schema`` spells
    the SchemaConflict from them."""

    def __init__(self, expected: str, actual: str):
        self.expected, self.actual, self.steps = expected, actual, []


def _number_name(value) -> str:
    """``repr(value)``, or the size of an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"integer of {value.bit_length()} bits"


def _numbers(state: _State | None, values) -> _State:
    """Numeric ``state`` (a new one if None) with the finite numbers
    ``values``, each exactly ``num / 2**k``, added to its count and sums;
    a ``k`` past ``scale`` rescales both sums first.  Raises _Clash."""
    if state is None:
        state = _State("numeric")
    elif state.kind != "numeric":
        raise _Clash(state.kind, "numeric")
    for v in values:
        num, den = v.as_integer_ratio()
        k = den.bit_length() - 1
        if k > state.scale:
            state.total <<= k - state.scale
            state.squares <<= 2 * (k - state.scale)
            state.scale = k
        state.total += num << (state.scale - k)
        state.squares += num * num << 2 * (state.scale - k)
    state.count += len(values)
    return state


def _fold(state: _State | None, value, threshold, per_item=False) -> _State:
    """``value`` merged in place into ``state``, or into a new state (each
    leaf count 1, each field required) if ``state`` is None; past
    ``threshold`` values a categorical leaf turns "string".  A bag's items
    fold straight into its element state.  ``per_item`` folds each item
    alone and merges it with ``_absorb``, which puts an item's own
    conflict before its clash with earlier items; it builds states only
    to name a conflict.  Raises _Clash."""
    kind = _KINDS.get(type(value)) or _kind_of_value(value)
    if kind == "numeric":
        if _finite_float(value) is None:
            raise _Clash("finite number", _number_name(value))
        return _numbers(state, (value,))
    if kind == "string":
        if state is None:
            state = _State("categorical", vocab=set())
        if state.kind == "categorical":
            state.vocab.add(value)
            if len(state.vocab) > threshold:
                state.kind, state.vocab = "string", None
        elif state.kind != "string":
            raise _Clash(state.kind,
                         "string" if threshold < 1 else "categorical")
        state.count += 1
        return state
    if kind == "bag":
        if state is None:
            state = _State("bag")
        elif state.kind != "bag":
            raise _Clash(state.kind, kind)
        state.count += 1
        if value and _float_run(value):  # one loop, no fold per item
            state.child = _numbers(state.child, value)
            return state
        try:
            for i, item in enumerate(value):
                state.child = (
                    _absorb(state.child, _fold(None, item, threshold, True),
                            threshold) if per_item
                    else _fold(state.child, item, threshold))
        except _Clash as clash:
            clash.steps.append(f"[{i}]")
            raise
        return state
    if kind == "product":
        if state is None:
            state = _State("product", fields={})
        elif state.kind != "product":
            raise _Clash(state.kind, kind)
        state.count += 1
        fields = state.fields
        try:  # a loop, not a comprehension: one frame a level
            for name in sorted(value):
                if value[name] is not None:  # null == absent
                    fields[name] = _fold(fields.get(name), value[name],
                                         threshold, per_item)
        except _Clash as clash:
            clash.steps.append(f".{name}")
            raise
        return state
    raise _Clash("a JSON value", kind)


def _absorb(a, b, threshold) -> _State | None:
    """``b``'s kinds merged into ``a`` in place in sorted preorder, or
    ``b`` if ``a`` is None; past ``threshold`` values a categorical leaf
    turns "string".  It only names a conflict: raises _Clash."""
    if a is None or b is None:
        return b if a is None else a
    if a.kind != b.kind and {a.kind, b.kind} != {"string", "categorical"}:
        raise _Clash(a.kind, b.kind)
    if a.kind == "bag":
        try:
            a.child = _absorb(a.child, b.child, threshold)
        except _Clash as clash:
            clash.steps.append("[]")
            raise
    elif a.kind == "product":
        try:
            for name in sorted(b.fields):
                a.fields[name] = _absorb(a.fields.get(name), b.fields[name],
                                         threshold)
        except _Clash as clash:
            clash.steps.append(f".{name}")
            raise
    elif b.kind == "string":
        a.kind, a.vocab = "string", None
    elif a.vocab is not None:
        a.vocab |= b.vocab
        if len(a.vocab) > threshold:
            a.kind, a.vocab = "string", None
    return a


def _frozen(state: _State | None) -> SchemaNode | None:
    """The schema ``state`` holds; None for an element never seen.  A
    numeric statistic is rounded once from the exact sums, by int
    division: the mean directly, the std from ``root``, the integer part
    of ``2**(scale + m)`` times it, with m giving ``root`` >= 60 bits."""
    if state is None:
        return None
    kind, count = state.kind, state.count
    if kind == "numeric":
        spread = count * state.squares - state.total ** 2  # n*n*4**scale*var
        m = max(0, 62 + count.bit_length() - spread.bit_length() // 2)
        whole, rest = divmod(spread << 2 * m, count * count)
        root = math.isqrt(whole)
        # an odd last bit stands for the part below root, if any, so that
        # the division rounds as it would the exact root
        odd = 2 * root + (rest > 0 or root * root < whole)
        return NumericLeaf(count, state.total / (count << state.scale),
                           odd / (1 << state.scale + m + 1))
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

    Each document, and each item of its bags, folds straight into the
    corpus state, whose numeric sums are exact: no order of documents or
    items changes the schema.  No path string is built unless a conflict
    is raised.  A document's own conflict (a non-finite number, a non-JSON
    value, a clash between a bag's items) comes before its clash with the
    corpus: a document that does not fold is folded once more, alone and
    item by item, and else merged into the corpus to name its clash.
    """
    corpus = None  # each document folds into it in place
    for doc in docs:
        try:
            corpus = _fold(corpus, doc, categorical_threshold)
        except _Clash as clash:
            # the failed fold changed the corpus only by merges that did
            # not clash, which turn no kind into another but categorical
            # into string, which _absorb takes as compatible: so _absorb
            # meets the corpus's own clashes first, in sorted preorder
            try:  # once per document, never once per bag level
                _absorb(corpus, _fold(None, doc, categorical_threshold, True),
                        categorical_threshold)
            except _Clash as named:
                clash = named
            raise SchemaConflict("$" + "".join(reversed(clash.steps)),
                                 clash.expected, clash.actual) from None
    if corpus is None:
        raise SchemaError("empty corpus")
    merged = _frozen(corpus)
    for path, node in _distinct_paths(merged):
        if node is None:
            raise SchemaError(
                f"{path}: array was empty in every document; "
                "element kind cannot be inferred")
    return merged


class _Misfit(Exception):
    """A document does not fit: raised by a walker run without paths."""


def _misfit(out: list | None, path: str | None, expected: str,
            actual: str) -> None:
    """Report a misfit at ``path``: raise _Misfit when the walk builds no
    paths, else append the Violation to ``out``."""
    if path is None:
        raise _Misfit
    out.append(Violation(path, expected, actual))


def validate(doc, schema: SchemaNode,
             columns: dict[str, list] | None = None) -> list[Violation]:
    """All points where ``doc`` does not fit ``schema``; empty list if it does.

    Unseen categorical values are fine (they encode to the unknown slot);
    missing required fields, extra fields, kind mismatches, non-finite
    numbers, and n-gram strings holding unpaired surrogates are
    violations.

    A document that fits is appended to ``columns`` (as from
    ``batching.new_columns``) in the same pass that checks it: raw leaf
    values, with None under an absent optional subtree, bag element
    counts, and product presence flags.  A document that does not fit,
    or nests too deeply for the recursion limit, leaves ``columns`` as
    they were; only then does the walk run again, building the document
    paths that its violations name.
    """
    walk = schema._walker
    if columns is None:
        columns = defaultdict(list)
    sizes = list(map(len, columns.values()))
    try:
        walk(doc, columns, None, None)
        return []
    except BaseException as exc:  # a misfit, or too deep a document
        # the walk only adds keys, so those past len(sizes) are its own
        for key in list(columns)[len(sizes):]:
            del columns[key]
        for column, size in zip(columns.values(), sizes):
            del column[size:]
        if not isinstance(exc, _Misfit):
            raise
    out: list[Violation] = []
    walk(doc, defaultdict(list), out, "$")
    return out


def _compile(node: SchemaNode, column_path: str) -> tuple:
    """The walker of ``node``, whose column ``column_path`` names, and
    the column rows an absent ``node`` takes: None per leaf, 0 per bag,
    and a zero flag per optional product field.

    ``walk(value, columns, out, path)`` checks ``value`` and appends it
    to ``columns``, calling the walker of each child directly.  With
    ``path`` None it raises _Misfit at the first misfit; otherwise
    ``path`` names ``value`` in the document, and each misfit appends
    its Violation to ``out``.  Compiling and walking both take one frame
    per nesting level.
    """
    if isinstance(node, Product):
        names = frozenset(node.field_names)
        # an absent product's flags row is one list shared by every row
        # that takes it; rows are read, never changed
        absent = [(column_path, [0.0 for f in node.fields if f.optional])]
        fields = []
        for f in node.fields:
            walk_field, absent_rows = _compile(f.schema,
                                               f"{column_path}.{f.name}")
            fields.append((f.name, walk_field, absent_rows, f.optional))
            absent += absent_rows

        def walk(value, columns, out, path):
            if not isinstance(value, dict):
                return _misfit(out, path, "object", _kind_of_value(value))
            flags = []
            for name, walk_field, absent_rows, optional in fields:
                v = value.get(name)
                if v is not None:
                    walk_field(v, columns, out, path and f"{path}.{name}")
                elif optional:  # null == absent
                    for p, row in absent_rows:
                        columns[p].append(row)
                else:
                    _misfit(out, path and f"{path}.{name}",
                            f"required field {name!r}", "missing")
                if optional:
                    flags.append(0.0 if v is None else 1.0)
            columns[column_path].append(flags)
            if not names.issuperset(value):
                for name in sorted(value.keys() - names):
                    if value[name] is not None:
                        _misfit(out, path and f"{path}.{name}",
                                "no such field", "unexpected field")
        return walk, absent
    if isinstance(node, Bag):
        child_path = column_path + "[]"
        walk_item, _ = _compile(node.child, child_path)
        numeric = isinstance(node.child, NumericLeaf)

        def walk(value, columns, out, path):
            if not isinstance(value, list):
                return _misfit(out, path, "array", _kind_of_value(value))
            columns[column_path].append(len(value))
            if numeric and _float_run(value):
                columns[child_path].extend(value)
                return
            for i, item in enumerate(value):
                walk_item(item, columns, out, path and f"{path}[{i}]")
        return walk, [(column_path, 0)]
    if isinstance(node, NumericLeaf):
        def walk(value, columns, out, path):
            if not isinstance(value, (int, float)):  # a bool is an int
                return _misfit(out, path, "numeric", _kind_of_value(value))
            if _finite_float(value) is None:
                return _misfit(out, path, "finite number",
                               _number_name(value))
            columns[column_path].append(value)
    else:
        ngrams = isinstance(node, StringLeaf)

        def walk(value, columns, out, path):
            if not isinstance(value, str):
                return _misfit(out, path, "string", _kind_of_value(value))
            if ngrams and not value.isascii():
                # JSON can escape a lone surrogate ("\ud800"), which has
                # no UTF-8 bytes to hash into n-grams
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    return _misfit(out, path, "string encodable as UTF-8",
                                   "unpaired surrogate")
            columns[column_path].append(value)
    return walk, [(column_path, None)]


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
