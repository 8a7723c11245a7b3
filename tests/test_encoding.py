"""Leaf encoders: hashing, standardization, one-hot, document columns."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hmil.batching import build_batch, new_columns
from hmil.encoding import (
    EncodingError,
    encode_categorical,
    encode_document,
    encode_numeric,
    encode_string_ngram,
    fnv1a64,
    leaf_width,
)
from hmil.schema import Bag, CategoricalLeaf, NumericLeaf, infer_schema

DATA = Path(__file__).parent / "data"


class TestFnv1a64:
    # Published reference values for the 64-bit FNV-1a function, plus a
    # few frozen ones computed with an independent implementation.
    def test_reference_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"ab") == 0x089C4407B545986A
        assert fnv1a64(b"bc") == 0x08A63507B54DD372
        assert fnv1a64(b"abc") == 0xE71FA2190541574B

    def test_bucket_assignments(self):
        assert fnv1a64(b"a") % 8 == 4
        assert fnv1a64(b"ab") % 64 == 42
        assert fnv1a64(b"bc") % 64 == 50
        # at dim 8 these two bigrams land in the same bucket
        assert fnv1a64(b"ab") % 8 == fnv1a64(b"bc") % 8 == 2


class TestNumericEncoder:
    def test_standardizes(self):
        np.testing.assert_allclose(encode_numeric(5.0, 2.0, 1.5), [2.0])

    def test_zero_std_always_maps_to_zero(self):
        np.testing.assert_allclose(encode_numeric(7.0, 7.0, 0.0), [0.0])
        np.testing.assert_allclose(encode_numeric(9.0, 7.0, 0.0), [0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(EncodingError):
            encode_numeric(float("nan"), 0.0, 1.0)

    def test_in_schema_context(self):
        s = infer_schema([1, 2, 3])
        np.testing.assert_allclose(encode_numeric(2.0, s.mean, s.std), [0.0],
                                   atol=1e-15)
        np.testing.assert_allclose(encode_numeric(3.0, s.mean, s.std),
                                   [1.0 / math.sqrt(2.0 / 3.0)], rtol=1e-12)


class TestStringEncoder:
    def test_single_trigram(self):
        h = encode_string_ngram("abc", 3, 64)
        expected = np.zeros(64)
        expected[11] = 1.0  # fnv1a64(b"abc") % 64
        np.testing.assert_array_equal(h, expected)

    def test_two_bigrams_distinct_buckets(self):
        h = encode_string_ngram("abc", 2, 64)
        expected = np.zeros(64)
        expected[42] = 0.5  # "ab"
        expected[50] = 0.5  # "bc"
        np.testing.assert_array_equal(h, expected)

    def test_colliding_bigrams_share_one_bucket(self):
        h = encode_string_ngram("abc", 2, 8)
        expected = np.zeros(8)
        expected[2] = 1.0  # "ab" and "bc" both hash to bucket 2 mod 8
        np.testing.assert_array_equal(h, expected)

    def test_too_short_string_is_all_zero(self):
        np.testing.assert_array_equal(encode_string_ngram("ab", 3, 16),
                                      np.zeros(16))
        np.testing.assert_array_equal(encode_string_ngram("", 3, 16),
                                      np.zeros(16))

    @given(st.text(max_size=30), st.integers(2, 4), st.sampled_from([8, 64]))
    def test_histogram_is_l1_normalized_or_zero(self, s, n, dim):
        h = encode_string_ngram(s, n, dim)
        assert h.shape == (dim,)
        assert np.all(h >= 0)
        total = h.sum()
        assert total == 0.0 or np.isclose(total, 1.0, rtol=1e-12)

    def test_ngrams_run_over_utf8_bytes(self):
        # 2-char string, 3 utf-8 bytes: exactly one trigram
        h = encode_string_ngram("é!", 3, 32)
        assert np.isclose(h.sum(), 1.0)
        assert np.count_nonzero(h) == 1


class TestCategoricalEncoder:
    LEAF = CategoricalLeaf(count=3, values=("green", "red"))

    def test_known_values_one_hot(self):
        np.testing.assert_array_equal(encode_categorical("green", self.LEAF),
                                      [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(encode_categorical("red", self.LEAF),
                                      [0.0, 1.0, 0.0])

    def test_unseen_value_hits_last_slot(self):
        np.testing.assert_array_equal(encode_categorical("blue", self.LEAF),
                                      [0.0, 0.0, 1.0])


class TestLeafWidth:
    def test_widths(self):
        assert leaf_width(NumericLeaf(1, 0.0, 1.0)) == 1
        ngrams = infer_schema([f"value{i}" for i in range(40)],
                              categorical_threshold=8)
        assert leaf_width(ngrams) == 64
        cat = CategoricalLeaf(1, ("a", "b"))
        assert leaf_width(cat) == 3
        with pytest.raises(TypeError):
            leaf_width(Bag(count=1, child=cat))


class TestDocumentEncoding:
    @pytest.fixture()
    def fitness(self):
        doc = json.loads((DATA / "fitness_week.json").read_text())
        return doc, infer_schema([doc], categorical_threshold=0)

    def test_tree_shape(self, fitness):
        doc, schema = fitness
        batch = build_batch([doc], schema)
        # "39" is shorter than the n-gram size, so its histogram is empty
        np.testing.assert_array_equal(batch.data["$.weekNumber"],
                                      np.zeros((1, 64)))
        np.testing.assert_array_equal(batch.offsets["$.workouts"], [0, 2])
        assert batch.data["$.workouts[].sport"].shape == (2, 64)

    def test_optional_presence_flags(self, fitness):
        doc, schema = fitness
        batch = build_batch([doc], schema)
        np.testing.assert_array_equal(batch.presence["$.workouts[]"],
                                      [[1.0], [0.0]])
        # the absent subtree still takes its rows: empty bags, zero leaves
        for name, n_items in (("speed", 3), ("altitude", 4), ("labels", 4)):
            np.testing.assert_array_equal(
                batch.offsets[f"$.workouts[].speedData.{name}"],
                [0, n_items, n_items])
        assert batch.presence["$.workouts[].speedData"].shape == (2, 0)

    def test_invalid_document_raises_with_violations(self, fitness):
        _, schema = fitness
        columns = new_columns(schema)
        with pytest.raises(EncodingError) as exc:
            encode_document({"weekNumber": "39", "workouts": 3}, schema,
                            columns)
        assert [v.path for v in exc.value.violations] == ["$.workouts"]
        # nothing was appended
        assert columns == new_columns(schema)

    def test_unseen_categorical_goes_to_unknown_slot(self):
        schema = infer_schema([{"sport": "running"}, {"sport": "swimming"}])
        batch = build_batch([{"sport": "rowing"}], schema)
        np.testing.assert_array_equal(batch.data["$.sport"], [[0.0, 0.0, 1.0]])

    def test_absent_subtree_columns(self):
        docs = [{"a": 1.0, "sub": {"xs": [1.0], "tag": "p",
                                   "inner": {"y": 5.0}}},
                {"a": 2.0, "sub": {"xs": [], "tag": "q"}},
                {"a": 3.0}]
        schema = infer_schema(docs)
        columns = new_columns(schema)
        encode_document(docs[2], schema, columns)
        assert columns["$"] == [[0.0]]  # "sub" absent
        assert columns["$.sub"] == [[0.0]]  # and so its optional "inner"
        assert columns["$.sub.xs"] == [0, 0]  # equal offsets: empty bag
        np.testing.assert_array_equal(columns["$.sub.tag"], [np.zeros(3)])
        np.testing.assert_array_equal(columns["$.sub.inner.y"], [np.zeros(1)])
        assert columns["$.sub.inner"] == [[]]  # no optional fields

    def test_invalid_raw_document_names_its_index(self, fitness):
        doc, schema = fitness
        with pytest.raises(EncodingError) as exc:
            build_batch([doc, doc, {"weekNumber": 39}], schema)
        assert exc.value.index == 2
        assert sorted(v.path for v in exc.value.violations) == [
            "$.weekNumber", "$.workouts"]
