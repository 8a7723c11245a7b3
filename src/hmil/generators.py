"""Seeded random schema and document generators.

The verification harness draws random (schema, documents) pairs to
exercise the pipeline on shapes nobody hand-picked.  Tests reuse the
same generators.  Everything is driven by a numpy Generator, so a
fixed seed reproduces the exact cases.  A single draw from a sequence
indexes it with ``rng.integers(len(seq))``, which is ``Generator.choice``'s
own stream without its array conversion, so reports stay byte-identical.
"""

from __future__ import annotations

import numpy as np

from .schema import (
    Bag,
    CategoricalLeaf,
    NumericLeaf,
    Product,
    ProductField,
    SchemaNode,
    StringLeaf,
    node_paths,
)

__all__ = ["random_schema", "random_document", "permute_bags"]

MAX_ITEMS = 4
_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliet", "kilo", "lima", "mike", "november")


def _random_leaf(rng: np.random.Generator) -> SchemaNode:
    roll = rng.random()
    if roll < 0.5:
        return NumericLeaf(count=1, mean=float(rng.normal(0, 3)),
                           std=float(rng.uniform(0.5, 2.0)))
    if roll < 0.8:
        vocab = rng.choice(_WORDS, size=rng.integers(2, 5), replace=False)
        return CategoricalLeaf(count=1, values=tuple(sorted(map(str, vocab))))
    return StringLeaf(count=1, ngram_n=3,
                      hash_dim=(8, 16, 32)[rng.integers(3)])


def _random_node(rng: np.random.Generator, depth: int) -> SchemaNode:
    if depth <= 0:
        return _random_leaf(rng)
    roll = rng.random()
    if roll < 0.35:
        return Bag(count=1, child=_random_node(rng, depth - 1))
    if roll < 0.7:
        n_fields = int(rng.integers(1, 4))
        names = rng.choice(_WORDS, size=n_fields, replace=False)
        fields = tuple(sorted(
            (ProductField(name=str(nm), schema=_random_node(rng, depth - 1),
                          optional=bool(rng.random() < 0.3))
             for nm in names),
            key=lambda f: f.name))
        return Product(count=1, fields=fields)
    return _random_leaf(rng)


def random_schema(rng: np.random.Generator, max_depth: int = 3,
                  require_bag: bool = False) -> SchemaNode:
    """Random schema tree of depth at most ``max_depth``.

    With ``require_bag`` the tree is resampled until it contains at
    least one bag node (max_depth must be >= 1).
    """
    if require_bag and max_depth < 1:
        raise ValueError("a bag needs depth >= 1")
    while True:
        node = _random_node(rng, max_depth)
        if not require_bag or any(isinstance(n, Bag)
                                  for _, n in node_paths(node)):
            return node


def _random_word(rng: np.random.Generator) -> str:
    return _WORDS[rng.integers(len(_WORDS))] + str(rng.integers(0, 100))


def random_document(rng: np.random.Generator, schema: SchemaNode):
    """Sample one JSON-style document conforming to ``schema``.

    Bags draw 0..MAX_ITEMS elements, optional fields are omitted 30% of
    the time, categorical values stay inside the vocabulary.
    """
    if isinstance(schema, NumericLeaf):
        scale = schema.std if schema.std > 0 else 1.0
        return float(rng.normal(schema.mean, scale))
    if isinstance(schema, StringLeaf):
        return _random_word(rng)
    if isinstance(schema, CategoricalLeaf):
        return schema.values[rng.integers(len(schema.values))]
    if isinstance(schema, Bag):
        n = int(rng.integers(0, MAX_ITEMS + 1))
        return [random_document(rng, schema.child) for _ in range(n)]
    if isinstance(schema, Product):
        doc = {}
        for f in schema.fields:
            if f.optional and rng.random() < 0.3:
                continue
            doc[f.name] = random_document(rng, f.schema)
        return doc
    raise TypeError(f"cannot sample from {schema.kind!r}")


def permute_bags(rng: np.random.Generator, doc, schema: SchemaNode):
    """Copy of ``doc`` with every array reordered by a fresh random
    permutation, at every nesting depth.  Leaves are shared, not copied."""
    if isinstance(schema, Bag):
        order = rng.permutation(len(doc))
        return [permute_bags(rng, doc[i], schema.child) for i in order]
    if isinstance(schema, Product):
        out = {}
        for name, value in doc.items():
            f = schema.field(name)
            out[name] = (permute_bags(rng, value, f.schema)
                         if f is not None else value)
        return out
    return doc
