"""Leaf encoders: hashing, standardization, one-hot, document columns."""

import hashlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hmil.batching import build_batch, finish_batch, new_columns
from hmil.encoding import (
    EncodingError,
    encode_column,
    encode_document,
    encode_string_ngram,
    leaf_width,
)
from hmil.schema import (
    Bag,
    CategoricalLeaf,
    NumericLeaf,
    StringLeaf,
    infer_schema,
    validate,
)

DATA = Path(__file__).parent / "data"


def fnv1a64(data: bytes) -> int:
    """Scalar 64-bit FNV-1a: the reference the column hashing of
    ``encode_column`` is checked against."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def encode_numeric(v, mean, std):
    return encode_column(NumericLeaf(1, mean, std), [v])[0]


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

    @pytest.mark.parametrize("missing", [False, True])
    def test_column_converts_as_float_does(self, missing):
        """Bools and ints past 2**53, 2**63 and 2**64 give float()'s bits,
        with or without an absent row."""
        column = [True, False, 2**53 + 1, 2**63 + 5, -2**63 - 1, 2**64 + 7,
                  10**300, 1.5]
        node = NumericLeaf(count=1, mean=0.25, std=3.0)
        expected = (np.array([float(v) for v in column]) - 0.25) / 3.0
        if missing:
            column, expected = column + [None], np.append(expected, 0.0)
        assert (encode_column(node, column).tobytes()
                == expected.reshape(-1, 1).tobytes())

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
        np.testing.assert_array_equal(encode_column(self.LEAF,
                                                    ["green", "red"]),
                                      [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_unseen_value_hits_last_slot(self):
        np.testing.assert_array_equal(encode_column(self.LEAF, ["blue"]),
                                      [[0.0, 0.0, 1.0]])


def _scalar_histogram(s, n, dim):
    """Reference for one string row: the scalar FNV-1a loop, one n-gram
    at a time."""
    out = np.zeros(dim)
    raw = b"" if s is None else s.encode("utf-8")
    for i in range(len(raw) - n + 1):
        out[fnv1a64(raw[i:i + n]) % dim] += 1.0
    total = out.sum()
    if total > 0:
        out /= total
    return out


def _rows(rows, width):
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


class TestEncodeColumn:
    """The column encoders equal, byte for byte, a row-by-row reference."""

    @given(st.lists(st.none() | st.text(max_size=12), max_size=8),
           st.integers(1, 5), st.integers(1, 97))
    @example(["", "ab", "\U0001f600", "x\U0001f600y", None, "é!"], 3, 97)
    # power-of-two widths take a bit mask for the remainder
    @example(["abcdef", "", "xyz", None, "hé", "q"], 2, 64)
    @example(["abcdef", "xyz"], 1, 1)
    def test_strings_match_scalar_fnv1a(self, column, n, dim):
        got = encode_column(StringLeaf(1, n, dim), column)
        want = _rows([_scalar_histogram(s, n, dim) for s in column], dim)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.none() | st.booleans() | st.integers(-10**6, 10**6)
                    | st.floats(-1e12, 1e12), max_size=8),
           st.floats(-1e6, 1e6), st.just(0.0) | st.floats(1e-6, 1e6))
    def test_numerics_match_scalar_standardization(self, column, mean, std):
        got = encode_column(NumericLeaf(1, mean, std), column)
        want = _rows([[0.0] if v is None or std == 0.0
                      else [(float(v) - mean) / std] for v in column], 1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.none() | st.sampled_from(["a", "b", "c", "", "zz"]),
                    max_size=8),
           st.lists(st.sampled_from(["a", "b", "c", ""]), unique=True))
    def test_categoricals_match_scalar_one_hot(self, column, vocab):
        leaf = CategoricalLeaf(1, tuple(sorted(vocab)))
        width = len(vocab) + 1
        want = np.zeros((len(column), width))
        for i, v in enumerate(column):
            if v is not None:  # unseen values go to the last slot
                want[i, leaf.values.index(v) if v in vocab else -1] = 1.0
        got = encode_column(leaf, column)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_empty_column(self):
        for leaf in (NumericLeaf(1, 0.0, 1.0), StringLeaf(1, 3, 16),
                     CategoricalLeaf(1, ("a", "b"))):
            got = encode_column(leaf, [])
            assert got.shape == (0, leaf_width(leaf))
            assert got.dtype == np.float64

    def test_rejects_nonfinite_and_non_leaves(self):
        with pytest.raises(EncodingError, match="non-finite number inf"):
            encode_column(NumericLeaf(1, 0.0, 1.0), [1.0, float("inf")])
        with pytest.raises(TypeError):
            encode_column(Bag(1, NumericLeaf(1, 0.0, 1.0)), [])


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
        assert columns["$.sub.xs"] == [0]  # element count: empty bag
        assert columns["$.sub.tag"] == [None]  # raw leaf values until
        assert columns["$.sub.inner.y"] == [None]  # finish_batch encodes
        assert columns["$.sub.inner"] == [[]]  # no optional fields
        batch = finish_batch(columns, schema)
        np.testing.assert_array_equal(batch.data["$.sub.tag"], [np.zeros(3)])
        np.testing.assert_array_equal(batch.data["$.sub.inner.y"],
                                      [np.zeros(1)])

    def test_too_deep_for_the_walk_raises_encoding_error(self):
        doc = 1.0
        for _ in range(60):
            doc = [doc]
        schema = infer_schema([doc])
        columns = new_columns(schema)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            with pytest.raises(EncodingError, match="nested too deeply"):
                encode_document(doc, schema, columns)
        finally:
            sys.setrecursionlimit(limit)
        assert columns == new_columns(schema)
        encode_document(doc, schema, columns)
        assert len(columns["$"]) == 1

    def test_invalid_raw_document_names_its_index(self, fitness):
        doc, schema = fitness
        with pytest.raises(EncodingError) as exc:
            build_batch([doc, doc, {"weekNumber": 39}], schema)
        assert exc.value.index == 2
        assert sorted(v.path for v in exc.value.violations) == [
            "$.weekNumber", "$.workouts"]


# A fixed corpus with every leaf kind: n-gram strings (non-ASCII and
# shorter than n too), booleans, a degenerate std == 0 leaf, an unseen
# categorical, empty bags, and absent optional subtrees.
GOLDEN_DOCS = [
    {"id": 1, "flag": True, "const": 7, "level": "info",
     "msg": "GET /index.html 200", "tags": ["a", "b"],
     "groups": [[1.5, -2.0], []],
     "sub": {"xs": [0.25, 4.0, -1e-3], "note": "ok", "deep": {"y": 5}}},
    {"id": 2.5, "flag": False, "const": 7, "level": "warn",
     "msg": "POST /api/v1/items?q=café \U0001f600", "tags": [],
     "groups": [],
     "sub": {"xs": [], "note": "fine"}},
    {"id": -3, "flag": True, "const": 7, "level": "error", "msg": "ab",
     "tags": ["c", "a", "c"], "groups": [[], [9.0]]},
    {"id": 10**15, "flag": False, "const": 7, "level": "info", "msg": "",
     "tags": ["b"], "groups": [[0.5]], "sub": None},
    {"id": 0.1, "flag": True, "const": 7, "level": "warn",
     "msg": "日本語のログ line",
     "tags": ["a"], "groups": [[1.0, 2.0, 3.0]],
     "sub": {"xs": [1.0], "note": "ok", "deep": {"y": -5}}},
]
# batched but not inferred from: "debug" and "z" are unseen
GOLDEN_EXTRA = {"id": 4, "flag": False, "const": 7, "level": "debug",
                "msg": "DELETE /x", "tags": ["z"], "groups": [[]],
                "sub": {"xs": [2.0], "note": "new"}}

# sha256 of dtype, shape and bytes of every array, recorded with the
# per-value scalar encoders that the column encoders replaced, and
# re-recorded with the schema statistics rounded once from exact sums
GOLDEN_SHA256 = {
    "data $.const":
        "ed4ae03a4028150db6cb922d7bcb19f3aa697bff71ab36ec885b27362a42d6de",
    "data $.flag":
        "1c13988f79daff622d490d343e3bdf05d9e46af2265367da268a1a78ea85f4fa",
    "data $.groups[][]":
        "e7827a0d2cad34d749e730e7a204acb67074296fea222b6adfb27d9ab3584096",
    "data $.id":
        "b8c51226a1d59d436e5cf9b5247ecf0756aefabfee0f3c4d281344bf6f82926c",
    "data $.level":
        "caae6d44bb828fea4ab304ae0ac42d44d7bb91b5cd840af781c951de7fef0eca",
    "data $.msg":
        "736d9421dc5e0638ee130b1b81aa1bfc540e499f9cf638c58228833ff2ca1b3a",
    "data $.sub.deep.y":
        "932e42fdf433006527f1d194ed4d29dc12224225cbb08f02f305fbc89f2463f3",
    "data $.sub.note":
        "92c2755ce2fe2370ecf85ed4d0996d92001dcd5d719f520799a9498b7c8ca138",
    "data $.sub.xs[]":
        "03ab169f7f92d774acb2af21e69782f8c30f392e0404ac5a7493dc1386163595",
    "data $.tags[]":
        "26f2c83cc2b1e6fc341eb3dafed09079e15a77b6f4f18fefb46f07a532de8fe4",
    "offsets $.groups":
        "7ffc714f0a11ec8b4a1b5a86a377c2fbd702beea8e2946ff0623c805b2c0ee3b",
    "offsets $.groups[]":
        "746df3dfdaee61840b0c1cf2167ab54f6577e31bd4f13581152d9a5748033c0a",
    "offsets $.sub.xs":
        "533f50831f4118de3cb5a916b2c625f5c69c3e04412a8c1ec9d3859f6f0b0c25",
    "offsets $.tags":
        "00d1e8f11eb7adfaf107921cbffd784d6af76aefa7ad8384d86f1dd58e37bbea",
    "presence $":
        "ed2bcfb9ee109574e75cc6c51921ded48ebeb715be58a80eacb739452eb62488",
    "presence $.sub":
        "4d6c73e3d969a84d3f02d977807da3f727efd467306e2db82c2977aedcd1fc19",
    "presence $.sub.deep":
        "888b27347f08359edd24b75dbd6ff1d5a2cbf5313307a2d37c6743371daa1065",
}


def test_golden_batch_digest():
    schema = infer_schema(GOLDEN_DOCS, categorical_threshold=3)
    batch = build_batch(GOLDEN_DOCS + [GOLDEN_EXTRA], schema)
    got = {}
    for kind in ("data", "offsets", "presence"):
        for path, a in getattr(batch, kind).items():
            got[f"{kind} {path}"] = hashlib.sha256(
                f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
    assert got == GOLDEN_SHA256


def _golden_with(**changes):
    return {**GOLDEN_DOCS[0], **changes}


# documents that do not fit: wrong kinds at each depth, missing and null
# fields, extra fields (in unsorted order), non-finite and huge numbers,
# and lone surrogates at n-gram and categorical leaves
BAD_GOLDEN_DOCS = [
    None, 5, "x", True, [], [GOLDEN_DOCS[0]], {},
    {name: None for name in GOLDEN_DOCS[0]},
    _golden_with(id="1", flag=[], const={}, level=3, msg=4.5, tags="a",
                 groups=[["x"], 5, None, [[1.0]], [{"a": 1}]], sub=7),
    _golden_with(zeta=1, alpha=[2], mid=None, Beta={"x": 1}, _=0),
    _golden_with(id=float("inf"), flag=float("nan"), const=-float("inf")),
    _golden_with(id=10**400, const=-(10**309), groups=[[1e308, 10**320]]),
    _golden_with(msg="bad \ud800 x", level="\udfff", tags=["a", "\ud83d"]),
    _golden_with(sub={"xs": [1.0, "2", None, [], {}], "note": 5,
                      "deep": {"y": "5", "z": 1}, "extra": 0}),
    _golden_with(sub={"deep": None, "note": None, "xs": None}),
    _golden_with(sub={"xs": [], "note": "ok", "deep": [{"y": 1}]}),
]
BAD_FITNESS_DOCS = [
    {"weekNumber": 39, "workouts": [
        {"sport": 1, "duration": "1500", "calories": None, "avgPace": [],
         "speedData": {"speed": ["x", 1, None], "altitude": None,
                       "labels": [1, "\ud800"], "zz": 1, "aa": 2}},
        5, None, []],
     "extra_b": 1, "extra_a": 2},
    {"workouts": [{"sport": "running", "distance": float("nan"),
                   "duration": 10**500, "calories": 1, "avgPace": True,
                   "speedData": {"speed": [], "altitude": [],
                                 "labels": []}}]},
    {"weekNumber": None, "workouts": None},
]

# sha256 of every violation's text, document by document; recorded with
# the two-pass validate-then-append encoder
GOLDEN_VIOLATIONS_SHA256 = (
    "8ec74c6668aa52c9564289debb0a5abfb6637844665756a9ebe04a603dcfb805")


def test_golden_violation_digest():
    fitness = json.loads((DATA / "fitness_week.json").read_text())
    cases = [(infer_schema(GOLDEN_DOCS, categorical_threshold=3),
              BAD_GOLDEN_DOCS)]
    cases += [(infer_schema([fitness], categorical_threshold=t),
               BAD_FITNESS_DOCS) for t in (0, 32)]
    digest = hashlib.sha256()
    for schema, docs in cases:
        for doc in docs:
            columns = new_columns(schema)
            with pytest.raises(EncodingError) as exc:
                encode_document(doc, schema, columns)
            assert columns == new_columns(schema)
            assert exc.value.violations == validate(doc, schema)
            for v in exc.value.violations:
                digest.update(str(v).encode("utf-8", "surrogatepass"))
                digest.update(b"\n")
            digest.update(b"--\n")
    assert digest.hexdigest() == GOLDEN_VIOLATIONS_SHA256

