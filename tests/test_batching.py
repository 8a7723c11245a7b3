"""Ragged batching: offsets, presence matrices, concatenation laws,
row gathers."""

import gc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from hmil.batching import build_batch, take
from hmil.encoding import EncodingError
from hmil.generators import random_document, random_schema
from hmil.schema import (
    Bag,
    NumericLeaf,
    SchemaError,
    infer_schema,
    node_paths,
)


def plain_bag() -> Bag:
    # mean 0 / std 1 so encoded values equal the raw numbers
    return Bag(count=1, child=NumericLeaf(count=1, mean=0.0, std=1.0))


class TestFlatBags:
    def test_offsets_and_data(self):
        schema = plain_bag()
        batch = build_batch([[1.0, 2.0], [3.0, 4.0, 5.0]], schema)
        assert batch.batch_size == 2
        np.testing.assert_array_equal(batch.offsets["$"], [0, 2, 5])
        np.testing.assert_array_equal(batch.data["$[]"],
                                      [[1.0], [2.0], [3.0], [4.0], [5.0]])

    def test_empty_bag(self):
        schema = plain_bag()
        batch = build_batch([[]], schema)
        np.testing.assert_array_equal(batch.offsets["$"], [0, 0])
        assert batch.data["$[]"].shape == (0, 1)

    def test_zero_documents(self):
        schema = plain_bag()
        batch = build_batch([], schema)
        assert batch.batch_size == 0
        np.testing.assert_array_equal(batch.offsets["$"], [0])
        assert batch.data["$[]"].shape == (0, 1)

    def test_offsets_are_int64(self):
        schema = plain_bag()
        batch = build_batch([[1.0]], schema)
        assert batch.offsets["$"].dtype == np.int64


class TestNestedBags:
    def test_two_level_offsets_compose(self):
        schema = Bag(count=1, child=plain_bag())
        docs = [[[1.0], [2.0, 3.0]], [[4.0]]]
        batch = build_batch(docs, schema)
        np.testing.assert_array_equal(batch.offsets["$"], [0, 2, 3])
        np.testing.assert_array_equal(batch.offsets["$[]"], [0, 1, 3, 4])
        np.testing.assert_array_equal(batch.data["$[][]"],
                                      [[1.0], [2.0], [3.0], [4.0]])
        # composing the two offset arrays partitions grandchild rows by doc
        per_doc = batch.offsets["$[]"][batch.offsets["$"]]
        np.testing.assert_array_equal(per_doc, [0, 3, 4])

    def test_empty_inner_bags(self):
        schema = Bag(count=1, child=plain_bag())
        docs = [[[], [7.0]], []]
        batch = build_batch(docs, schema)
        np.testing.assert_array_equal(batch.offsets["$"], [0, 2, 2])
        np.testing.assert_array_equal(batch.offsets["$[]"], [0, 0, 1])
        np.testing.assert_array_equal(batch.data["$[][]"], [[7.0]])


class TestPresence:
    def test_optional_field_column(self):
        schema = infer_schema([{"a": 1, "b": "x"}, {"b": "y"}])
        batch = build_batch([{"a": 1, "b": "x"}, {"b": "y"}], schema)
        np.testing.assert_array_equal(batch.presence["$"], [[1.0], [0.0]])

    def test_no_optional_fields_keeps_row_count(self):
        schema = infer_schema([{"a": 1}, {"a": 2}])
        batch = build_batch([{"a": 1}, {"a": 2}, {"a": 3}], schema)
        assert batch.presence["$"].shape == (3, 0)

    def test_presence_under_a_bag(self):
        docs = [[{"x": 1, "y": 2}, {"x": 3}], [{"x": 4}]]
        schema = infer_schema(docs)
        batch = build_batch(docs, schema)
        np.testing.assert_array_equal(batch.presence["$[]"],
                                      [[1.0], [0.0], [0.0]])


class TestNodePaths:
    def test_fitness_style_paths(self):
        docs = [{"tag": "a", "runs": [{"speed": [1.0], "kind": "x"}]}]
        schema = infer_schema(docs, categorical_threshold=0)
        paths = dict(node_paths(schema))
        assert set(paths) == {"$", "$.tag", "$.runs", "$.runs[]",
                              "$.runs[].kind", "$.runs[].speed",
                              "$.runs[].speed[]"}
        assert paths["$.runs[].speed"].kind == "bag"


class TestStructureChecks:
    def test_wrong_document_shape_names_the_index(self):
        schema = plain_bag()
        with pytest.raises(EncodingError) as exc:
            build_batch([[1.0], 2.0, [3.0]], schema)
        assert exc.value.index == 1
        assert [v.path for v in exc.value.violations] == ["$"]


def assert_same_batch(a, b):
    assert a.batch_size == b.batch_size
    for name in ("data", "offsets", "presence"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.keys() == want.keys()
        for path in want:
            assert got[path].dtype == want[path].dtype, (name, path)
            assert got[path].shape == want[path].shape, (name, path)
            np.testing.assert_array_equal(got[path], want[path])


# optional subtree holding a bag, a categorical and an optional product;
# the last document lacks it entirely, the second has an empty bag
NESTED_OPTIONAL = [
    {"a": 1.0, "sub": {"xs": [1.0, 2.0], "tag": "p", "inner": {"y": 5.0}}},
    {"a": 2.0, "sub": {"xs": [], "tag": "q"}},
    {"a": 3.0},
]


class TestConcatenationLaw:
    @given(st.integers(0, 2**32 - 1))
    def test_batching_distributes_over_concatenation(self, seed):
        rng = np.random.default_rng(seed)
        base = random_schema(rng, max_depth=3)
        raw = [random_document(rng, base) for _ in range(8)]
        try:
            schema = infer_schema(raw)
        except SchemaError:
            assume(False)
        k = 3
        whole = build_batch(raw, schema)
        left = build_batch(raw[:k], schema)
        right = build_batch(raw[k:], schema)

        for path in whole.data:
            np.testing.assert_array_equal(
                whole.data[path],
                np.vstack([left.data[path], right.data[path]]))
        for path in whole.presence:
            np.testing.assert_array_equal(
                whole.presence[path],
                np.vstack([left.presence[path], right.presence[path]]))
        for path, off in whole.offsets.items():
            lo, ro = left.offsets[path], right.offsets[path]
            np.testing.assert_array_equal(
                off, np.concatenate([lo, lo[-1] + ro[1:]]))

    def test_document_permutation_permutes_root_rows(self):
        docs = [{"a": float(i)} for i in range(6)]
        schema = infer_schema(docs)
        perm = [4, 0, 5, 2, 1, 3]
        batch = build_batch(docs, schema)
        shuffled = build_batch([docs[i] for i in perm], schema)
        np.testing.assert_array_equal(shuffled.data["$.a"],
                                      batch.data["$.a"][perm])

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 7), max_size=12))
    @example(seed=0, idx=[])
    @example(seed=1, idx=[3, 3, 0, 7, 3])
    def test_take_equals_batching_the_selection(self, seed, idx):
        rng = np.random.default_rng(seed)
        base = random_schema(rng, max_depth=3)
        raw = [random_document(rng, base) for _ in range(8)]
        try:
            schema = infer_schema(raw)
        except SchemaError:
            assume(False)
        assert_same_batch(take(build_batch(raw, schema), idx, schema),
                          build_batch([raw[i] for i in idx], schema))


class TestTake:
    @pytest.mark.parametrize("idx", [[2, 0, 2, 1], [2, 2], [1], []])
    def test_absent_subtrees_and_empty_bags(self, idx):
        schema = infer_schema(NESTED_OPTIONAL)
        corpus = build_batch(NESTED_OPTIONAL, schema)
        assert_same_batch(take(corpus, idx, schema),
                          build_batch([NESTED_OPTIONAL[i] for i in idx],
                                      schema))

    def test_absent_subtree_rows(self):
        schema = infer_schema(NESTED_OPTIONAL)
        batch = take(build_batch(NESTED_OPTIONAL, schema), [2, 0], schema)
        np.testing.assert_array_equal(batch.presence["$"], [[0.0], [1.0]])
        np.testing.assert_array_equal(batch.presence["$.sub"], [[0.0], [1.0]])
        np.testing.assert_array_equal(batch.offsets["$.sub.xs"], [0, 0, 2])
        # standardized against the inferred mean 1.5 and std 0.5
        np.testing.assert_array_equal(batch.data["$.sub.xs[]"],
                                      [[-1.0], [1.0]])
        np.testing.assert_array_equal(batch.data["$.sub.tag"],
                                      [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert batch.data["$.sub.inner.y"][0, 0] == 0.0

    def test_leaves_no_garbage_cycles(self):
        schema = infer_schema(NESTED_OPTIONAL)
        gc.collect()
        gc.disable()
        try:
            batch = build_batch(NESTED_OPTIONAL * 3, schema)
            take(batch, [4, 0, 4, 8], schema)
            assert gc.collect() == 0
        finally:
            gc.enable()
