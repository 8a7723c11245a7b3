"""The random generators draw the stream ``Generator.choice`` drew.

Each single draw from a sequence indexes it with ``rng.integers``; the
references below keep the ``rng.choice`` spelling those draws had, so a
change to the stream fails here by name, not only through the pinned
report digests.
"""

import numpy as np
import pytest

from hmil.generators import _WORDS, MAX_ITEMS, random_document, random_schema
from hmil.model import ModelConfig
from hmil.schema import (
    Bag,
    CategoricalLeaf,
    NumericLeaf,
    Product,
    ProductField,
    StringLeaf,
    node_paths,
)
from hmil.verification import _random_config


def ref_leaf(rng):
    roll = rng.random()
    if roll < 0.5:
        return NumericLeaf(count=1, mean=float(rng.normal(0, 3)),
                           std=float(rng.uniform(0.5, 2.0)))
    if roll < 0.8:
        vocab = rng.choice(_WORDS, size=rng.integers(2, 5), replace=False)
        return CategoricalLeaf(count=1, values=tuple(sorted(map(str, vocab))))
    return StringLeaf(count=1, ngram_n=3,
                      hash_dim=int(rng.choice([8, 16, 32])))


def ref_node(rng, depth):
    if depth <= 0:
        return ref_leaf(rng)
    roll = rng.random()
    if roll < 0.35:
        return Bag(count=1, child=ref_node(rng, depth - 1))
    if roll < 0.7:
        names = rng.choice(_WORDS, size=int(rng.integers(1, 4)), replace=False)
        return Product(count=1, fields=tuple(sorted(
            (ProductField(name=str(nm), schema=ref_node(rng, depth - 1),
                          optional=bool(rng.random() < 0.3))
             for nm in names),
            key=lambda f: f.name)))
    return ref_leaf(rng)


def ref_schema(rng, max_depth, require_bag):
    while True:
        node = ref_node(rng, max_depth)
        if not require_bag or any(isinstance(n, Bag)
                                  for _, n in node_paths(node)):
            return node


def ref_document(rng, schema):
    if isinstance(schema, NumericLeaf):
        scale = schema.std if schema.std > 0 else 1.0
        return float(rng.normal(schema.mean, scale))
    if isinstance(schema, StringLeaf):
        return str(rng.choice(_WORDS)) + str(rng.integers(0, 100))
    if isinstance(schema, CategoricalLeaf):
        return str(rng.choice(schema.values))
    if isinstance(schema, Bag):
        n = int(rng.integers(0, MAX_ITEMS + 1))
        return [ref_document(rng, schema.child) for _ in range(n)]
    doc = {}
    for f in schema.fields:
        if f.optional and rng.random() < 0.3:
            continue
        doc[f.name] = ref_document(rng, f.schema)
    return doc


def ref_config(rng, aggregation=None, activation=None):
    return ModelConfig(
        embed_dim=4, hidden_dim=4, output_dim=2,
        activation=activation or str(rng.choice(["tanh", "relu"])),
        aggregation=aggregation or str(rng.choice(["mean", "max", "meanmax"])),
        seed=int(rng.integers(2**31)))


@pytest.mark.parametrize("max_depth, require_bag", [(0, False), (3, True)])
def test_generators_draw_the_choice_stream(max_depth, require_bag):
    for seed in range(300):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        schemas = [random_schema(rngs[0], max_depth, require_bag),
                   ref_schema(rngs[1], max_depth, require_bag)]
        assert schemas[0] == schemas[1]
        docs = [[random_document(rngs[0], schemas[0]) for _ in range(5)],
                [ref_document(rngs[1], schemas[1]) for _ in range(5)]]
        # repr tells a numpy string or integer from a Python one
        assert repr(docs[0]) == repr(docs[1])
        configs = [_random_config(rngs[0]), ref_config(rngs[1])]
        assert configs[0] == configs[1]
        assert (_random_config(rngs[0], aggregation="max")
                == ref_config(rngs[1], aggregation="max"))
        assert (rngs[0].bit_generator.state
                == rngs[1].bit_generator.state)
