"""Schema inference, validation, and serialization."""

import decimal
import gc
import json
import math
import random
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import hmil.schema
from hmil.batching import new_columns
from hmil.generators import random_document, random_schema
from hmil.schema import (
    Bag,
    CategoricalLeaf,
    NumericLeaf,
    Product,
    ProductField,
    SchemaConflict,
    SchemaError,
    StringLeaf,
    Violation,
    _finite_float,
    _float_run,
    _kind_of_value,
    CHUNK_SIZE,
    dumps_schema,
    fill_columns,
    infer_schema,
    loads_schema,
    node_paths,
    validate,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def fitness_doc():
    return json.loads((DATA / "fitness_week.json").read_text())


class TestLeafInference:
    def test_single_number(self):
        assert infer_schema([5]) == NumericLeaf(count=1, mean=5.0, std=0.0)

    def test_running_stats_over_three_docs(self):
        s = infer_schema([1, 2, 3])
        assert s.count == 3
        np.testing.assert_allclose(s.mean, 2.0, rtol=1e-12)
        # population std of {1, 2, 3}
        np.testing.assert_allclose(s.std, math.sqrt(2.0 / 3.0), rtol=1e-12)

    def test_bool_counts_as_numeric(self):
        s = infer_schema([True, False])
        assert isinstance(s, NumericLeaf)
        np.testing.assert_allclose(s.mean, 0.5, rtol=1e-12)
        np.testing.assert_allclose(s.std, 0.5, rtol=1e-12)

    def test_small_string_vocab_is_categorical(self):
        s = infer_schema(["red", "green", "red"])
        assert s == CategoricalLeaf(count=3, values=("green", "red"))

    def test_vocab_over_threshold_becomes_string_leaf(self):
        docs = [f"v{i:02d}" for i in range(40)]
        s = infer_schema(docs, categorical_threshold=32)
        assert s == StringLeaf(count=40, ngram_n=3, hash_dim=64)

    def test_vocab_at_threshold_stays_categorical(self):
        docs = [f"v{i:02d}" for i in range(32)]
        s = infer_schema(docs, categorical_threshold=32)
        assert isinstance(s, CategoricalLeaf)
        assert len(s.values) == 32

    @given(st.lists(st.floats(min_value=-1.7e308, max_value=1.7e308),
                    min_size=1, max_size=20))
    def test_statistics_of_finite_numbers_stay_finite(self, values):
        leaf = infer_schema(values)
        assert math.isfinite(leaf.mean) and math.isfinite(leaf.std)

    def test_numbers_near_the_float_limit(self):
        leaf = infer_schema([1e308, 1e308, 1.0, 2.0])
        np.testing.assert_allclose(leaf.mean, 5e307, rtol=1e-12)
        np.testing.assert_allclose(leaf.std, 5e307, rtol=1e-12)

    @pytest.mark.parametrize("values, mean, std", [
        # the variance, 1.7e308**2, is past the float range
        ([1.7e308, -1.7e308], 0.0, 1.7e308),
        # mean and std are 2.5e-324, half the least subnormal: a tie that
        # rounds to even, 0.0
        ([5e-324, 0.0], 0.0, 0.0),
        ([5e-324, 5e-324, 0.0], 5e-324, 0.0),
        # 2**53 + 1.5 exactly, from ints that floats would round
        ([2**53 + 1, 2**53 + 2], 2.0**53 + 2, 0.5),
        ([-0.0], 0.0, 0.0),
    ])
    def test_statistics_are_rounded_once_from_exact_sums(self, values, mean,
                                                         std):
        leaf = infer_schema(values)
        assert (leaf.mean, leaf.std) == (mean, std)
        assert math.copysign(1.0, leaf.mean) == 1.0  # -0.0 sums to +0

    @given(st.lists(st.one_of(st.floats(allow_nan=False,
                                        allow_infinity=False),
                              st.integers(-2**70, 2**70), st.booleans()),
                    min_size=1, max_size=20))
    def test_statistics_are_the_correctly_rounded_exact_ones(self, values):
        leaf = infer_schema(values)
        mean = sum(map(Fraction, values)) / len(values)
        var = sum(Fraction(v) ** 2 for v in values) / len(values) - mean ** 2
        assert leaf.mean == float(mean)
        assert leaf.std == _ref_root(var)

    def test_nonfinite_number_rejected(self):
        with pytest.raises(SchemaConflict):
            infer_schema([float("nan")])

    def test_null_scalar_rejected(self):
        with pytest.raises(SchemaConflict):
            infer_schema([None])

    def test_int_too_long_to_print_is_named_by_its_size(self):
        """CPython prints no int past 4300 digits; the conflict names it
        by its size instead."""
        with pytest.raises(SchemaConflict) as exc:
            infer_schema([{"a": 10**5000}])
        assert (exc.value.path, exc.value.expected, exc.value.actual) == (
            "$.a", "finite number", "integer of 16610 bits")
        with pytest.raises(SchemaConflict) as exc:
            infer_schema([1.0, 10**400])
        assert exc.value.actual == repr(10**400)  # printable: named as before


class TestObjectAndArrayInference:
    def test_disjoint_fields_come_out_optional(self):
        s = infer_schema([{"a": 1}, {"b": 2}])
        assert isinstance(s, Product)
        assert s.count == 2
        assert s.field_names == ("a", "b")
        assert all(f.optional for f in s.fields)

    def test_field_in_every_doc_is_required(self):
        s = infer_schema([{"a": 1}, {"a": 2}])
        assert s.field("a").optional is False

    def test_null_valued_field_counts_as_absent(self):
        s = infer_schema([{"a": 1, "b": None}, {"a": 2}])
        assert s.field_names == ("a",)

    def test_conflict_names_the_field_path(self):
        with pytest.raises(SchemaConflict) as exc:
            infer_schema([{"a": 1}, {"a": "x"}])
        assert exc.value.path == "$.a"

    def test_conflict_names_the_array_index(self):
        with pytest.raises(SchemaConflict) as exc:
            infer_schema([[1, "x"]])
        assert exc.value.path == "$[1]"

    @pytest.mark.parametrize("docs, want", [
        # the clash with the corpus at $.a comes before the document's
        # own non-finite number in preorder, but the number wins
        ([{"a": 1, "b": 2}, {"a": "x", "b": float("inf")}],
         ("$.b", "finite number", "inf")),
        # an item's own conflict wins over its clash with earlier items
        ([[{"a": 1}, {"a": "x", "b": float("nan")}]],
         ("$[1].b", "finite number", "nan")),
        ([["x", [float("nan")]]], ("$[1][0]", "finite number", "nan")),
        # an item's clash with earlier items, then within a bag's element
        ([[[{"a": 1}], [{"a": "x"}]]], ("$[1][].a", "numeric", "categorical")),
        ([{"xs": [[{"a": 1}], [{"a": 2}, {"a": "y"}]]}],
         ("$.xs[1][1].a", "numeric", "categorical")),
        # a document's clash with the corpus, under two bags
        ([{"xs": [[{"a": 1}]]}, {"xs": [[], [{"a": "x"}]]}],
         ("$.xs[][].a", "numeric", "categorical")),
        # a bag's items bring in clashing fields out of sorted order: the
        # first field in sorted order is named, as the reference fold does
        ([{"xs": [{"a": 1, "b": 1}]}, {"xs": [{"b": "x"}, {"a": "y"}]}],
         ("$.xs[].a", "numeric", "categorical")),
        # the document's earlier items have already pushed the corpus's
        # $.xs[].a past the threshold when its last item clashes
        ([{"xs": [{"a": "v", "b": 1}]},
          {"xs": [{"a": f"v{i}"} for i in range(40)] + [{"b": "x"}]}],
         ("$.xs[].b", "numeric", "categorical")),
        # ... or its own last item clashes with them
        ([{"xs": [{"a": "v"}]},
          {"xs": [{"a": f"v{i}"} for i in range(40)] + [{"a": 1}]}],
         ("$.xs[40].a", "string", "numeric")),
        # $.xs's element, empty in every earlier document, is already set
        # when a later field clashes, or a later item
        ([{"xs": [], "ys": [{"a": 1}]},
          {"xs": [{"a": "s"}], "ys": [{"a": "t"}]}],
         ("$.ys[].a", "numeric", "categorical")),
        ([{"xs": [], "z": 1}, {"xs": [[1.5], [{"a": 1}]], "z": "x"}],
         ("$.xs[1][]", "numeric", "product")),
    ])
    def test_conflict_precedence(self, docs, want):
        with pytest.raises(SchemaConflict) as exc:
            infer_schema(docs)
        assert (exc.value.path, exc.value.expected, exc.value.actual) == want
        assert _outcome(reference_infer, docs, 32)[2] == want

    @pytest.mark.parametrize("bottom, want", [
        ([1, "x"], ("[1]", "numeric", "categorical")),  # the document's own
        (["x"], ("[]", "numeric", "categorical")),  # a clash with the corpus
    ])
    def test_a_deep_conflict_costs_folds_linear_in_the_nodes(
            self, monkeypatch, bottom, want):
        """A conflict 300 bags down is named after a number of folds
        linear in the documents' nodes; replaying each bag's items on
        the way up would double the folds at every level."""
        depth = 300
        docs = [[1.5], bottom]
        for _ in range(depth):
            docs = [[[], doc] for doc in docs]
        nodes = 2 * (2 * depth + 1) + 1 + len(bottom)
        fold, calls = hmil.schema._fold, []

        def counted(*args):
            calls.append(None)
            assert len(calls) <= 2 * nodes, "more folds than linear"
            return fold(*args)

        monkeypatch.setattr(hmil.schema, "_fold", counted)
        with pytest.raises(SchemaConflict) as exc:
            infer_schema(docs)
        step, expected, actual = want
        assert (exc.value.path, exc.value.expected, exc.value.actual) == (
            "$" + step * (depth + 1), expected, actual)

    def test_bag_items_fold_without_a_state_each(self, monkeypatch):
        """A bag's items fold straight into the corpus's element state:
        documents with {name, value} items build a state per schema node,
        however many documents and items there are, with the same schema."""
        state, made = hmil.schema._State, []

        def counted(*args, **kwargs):
            made.append(args[0])
            return state(*args, **kwargs)

        monkeypatch.setattr(hmil.schema, "_State", counted)
        for n in (3, 30):
            docs = [{"headers": [{"name": f"h{i % 40}", "value": i + j}
                                 for i in range(100)]} for j in range(n)]
            made.clear()
            got = dumps_schema(infer_schema(docs))
            assert len(made) <= 5, (n, Counter(made))
            assert got == dumps_schema(reference_infer(docs, 32))

    def test_empty_corpus(self):
        with pytest.raises(SchemaError, match="empty corpus"):
            infer_schema([])

    def test_always_empty_array_is_diagnosed(self):
        with pytest.raises(SchemaError, match=r"\$\.xs"):
            infer_schema([{"xs": []}, {"xs": []}])

    def test_unknown_path_inside_nested_arrays(self):
        with pytest.raises(SchemaError, match=r"\$\.a\[\]\[\]"):
            infer_schema([{"a": [[]]}])

    def test_array_seen_empty_then_full(self):
        s = infer_schema([{"xs": []}, {"xs": [1.0, 2.0]}])
        child = s.field("xs").schema
        assert isinstance(child, Bag)
        assert isinstance(child.child, NumericLeaf)
        assert child.count == 2


class TestFitnessWeek:
    def test_structure_with_raw_string_leaves(self, fitness_doc):
        s = infer_schema([fitness_doc], categorical_threshold=0)
        assert isinstance(s, Product)
        assert s.field_names == ("weekNumber", "workouts")
        assert isinstance(s.field("weekNumber").schema, StringLeaf)

        workouts = s.field("workouts").schema
        assert isinstance(workouts, Bag)
        workout = workouts.child
        assert isinstance(workout, Product)
        assert workout.field_names == ("avgPace", "calories", "distance",
                                       "duration", "speedData", "sport")
        assert workout.count == 2
        assert isinstance(workout.field("sport").schema, StringLeaf)
        for name in ("avgPace", "calories", "distance", "duration"):
            assert isinstance(workout.field(name).schema, NumericLeaf)
            assert workout.field(name).optional is False

    def test_speed_data_optional_one_of_two(self, fitness_doc):
        s = infer_schema([fitness_doc], categorical_threshold=0)
        speed_field = s.field("workouts").schema.child.field("speedData")
        assert speed_field.optional is True
        speed = speed_field.schema
        assert isinstance(speed, Product)
        assert speed.field_names == ("altitude", "labels", "speed")
        assert speed.count == 1
        for name in ("altitude", "speed"):
            inner = speed.field(name).schema
            assert isinstance(inner, Bag)
            assert isinstance(inner.child, NumericLeaf)
        labels = speed.field("labels").schema
        assert isinstance(labels, Bag)
        assert isinstance(labels.child, StringLeaf)

    def test_default_threshold_keeps_small_vocabs_categorical(self, fitness_doc):
        s = infer_schema([fitness_doc])
        assert s.field("weekNumber").schema == CategoricalLeaf(
            count=1, values=("39",))
        sport = s.field("workouts").schema.child.field("sport").schema
        assert sport == CategoricalLeaf(count=2,
                                        values=("running", "swimming"))
        raw = infer_schema([fitness_doc], categorical_threshold=0)
        assert raw.field("weekNumber").schema.kind == "string"
        assert s.field_names == raw.field_names


class TestValidate:
    def test_clean_document_round_trip(self, fitness_doc):
        for threshold in (0, 32):
            s = infer_schema([fitness_doc], categorical_threshold=threshold)
            assert validate(fitness_doc, s) == []

    def test_wrong_kind_at_nested_path(self, fitness_doc):
        s = infer_schema([fitness_doc], categorical_threshold=0)
        bad = {"weekNumber": "39", "workouts": 3}
        violations = validate(bad, s)
        assert len(violations) == 1
        assert violations[0].path == "$.workouts"
        assert violations[0].expected == "array"

    def test_missing_required_field(self, fitness_doc):
        s = infer_schema([fitness_doc], categorical_threshold=0)
        bad = {"workouts": fitness_doc["workouts"]}
        assert [v.path for v in validate(bad, s)] == ["$.weekNumber"]

    def test_missing_optional_field_is_fine(self, fitness_doc):
        s = infer_schema([fitness_doc], categorical_threshold=0)
        doc = json.loads(json.dumps(fitness_doc))
        for workout in doc["workouts"]:
            workout.pop("speedData", None)
        assert validate(doc, s) == []

    def test_explicit_null_equals_missing(self, fitness_doc):
        s = infer_schema([fitness_doc], categorical_threshold=0)
        doc = json.loads(json.dumps(fitness_doc))
        doc["workouts"][0]["speedData"] = None   # optional: fine
        assert validate(doc, s) == []
        doc["weekNumber"] = None                 # required: violation
        assert [v.path for v in validate(doc, s)] == ["$.weekNumber"]

    def test_unexpected_field(self, fitness_doc):
        s = infer_schema([fitness_doc], categorical_threshold=0)
        doc = json.loads(json.dumps(fitness_doc))
        doc["extra"] = 1
        assert [v.path for v in validate(doc, s)] == ["$.extra"]

    def test_unseen_categorical_value_is_fine(self, fitness_doc):
        s = infer_schema([fitness_doc])  # sport is categorical here
        doc = json.loads(json.dumps(fitness_doc))
        doc["workouts"][0]["sport"] = "rowing"
        assert validate(doc, s) == []

    def test_unpaired_surrogate_at_a_string_leaf(self):
        leaf = StringLeaf(count=1, ngram_n=3, hash_dim=8)
        (v,) = validate("bad \ud800 x", leaf)
        assert v.path == "$" and "UTF-8" in v.expected
        assert validate("fine \U0001f600", leaf) == []

    def test_unpaired_surrogate_is_a_fine_category(self):
        leaf = CategoricalLeaf(count=1, values=("a",))
        assert validate("bad \ud800 x", leaf) == []

    def test_nonfinite_number_is_a_violation(self):
        s = infer_schema([{"a": 1.0}])
        assert [v.path for v in validate({"a": float("inf")}, s)] == ["$.a"]

    def test_int_too_long_to_print_is_named_by_its_size(self):
        s = infer_schema([{"a": 1.0}])
        assert validate({"a": -10**5000}, s) == [
            Violation("$.a", "finite number", "integer of 16610 bits")]
        assert validate({"a": 10**400}, s) == [
            Violation("$.a", "finite number", repr(10**400))]

    def test_misfit_leaves_a_defaultdict_as_it_was(self):
        """Columns that the walk creates before it meets the misfit go
        again, as do the rows it appended to columns already there."""
        s = infer_schema([{"a": 1.0, "b": 2.0}])
        columns = defaultdict(list)
        assert [v.path for v in validate({"a": 1.0, "b": "x"}, s,
                                         columns)] == ["$.b"]
        assert columns == {}
        columns["$"].append([])
        assert validate({"a": 1.0, "b": "x"}, s, columns) != []
        assert columns == {"$": [[]]}

    def test_a_schema_and_its_walker_are_freed_together(self, fitness_doc):
        """The walker lives in its schema's own ``__dict__``: nothing else
        keeps either alive once the last reference to the schema goes."""
        s = infer_schema([fitness_doc])
        assert validate(fitness_doc, s) == []
        schema_ref, walker_ref = weakref.ref(s), weakref.ref(s._walker)
        del s
        gc.collect()
        assert schema_ref() is None and walker_ref() is None

    @given(st.integers(0, 2**32 - 1))
    def test_generated_documents_validate_against_inferred_schema(self, seed):
        rng = np.random.default_rng(seed)
        base = random_schema(rng, max_depth=3)
        docs = [random_document(rng, base) for _ in range(30)]
        try:
            s = infer_schema(docs)
        except SchemaError:
            assume(False)  # some array stayed empty in all 30 draws
        for doc in docs:
            assert validate(doc, s) == []


# items a bag of leaves may hold: floats (including -0.0, subnormal and
# near the float64 limit), ints, bools, non-finite and huge numbers,
# nulls, strings with and without lone surrogates, and nested values
_RUN_FLOATS = (1.0, -0.0, 2.5, 1e308, 1.7e308, -1.7e308, 5e-324)
_RUN_STRINGS = ("a", "", "word \U0001f600", "bad \ud800 x", "\udfff",
                "\ud83d", "\ude00")
_RUN_ODD = (3, 0, True, False, 10**400, -(10**309), float("nan"),
            float("inf"), -float("inf"), None, [1.0], [], {}, {"a": 1})
_RUN_LEAVES = (NumericLeaf(count=1, mean=0.0, std=1.0),
               CategoricalLeaf(count=1, values=("a",)),
               StringLeaf(count=1, ngram_n=3, hash_dim=8))


def _walk_each_item(items, leaf):
    """Violations and columns of ``validate`` on a bag of ``leaf``,
    built one walk of ``leaf`` per item."""
    out, child = [], []
    for i, item in enumerate(items):
        columns = new_columns(leaf)
        out += [Violation(f"$[{i}]" + v.path[1:], v.expected, v.actual)
                for v in validate(item, leaf, columns)]
        child += columns["$"]
    return out, {"$": [len(items)], "$[]": child}


@given(st.lists(st.one_of(
    st.sampled_from(_RUN_FLOATS), st.floats(),
    st.sampled_from(_RUN_STRINGS), st.text(max_size=4),
    st.sampled_from(_RUN_ODD)), max_size=12), st.integers(0, 2))
def test_bag_of_leaves_matches_one_walk_per_item(items, which):
    leaf = _RUN_LEAVES[which]
    for bag in (items, [v for v in items if type(v) is float],
                [v for v in items if type(v) is str]):
        columns = new_columns(Bag(count=1, child=leaf))
        got = validate(bag, Bag(count=1, child=leaf), columns)
        want, want_columns = _walk_each_item(bag, leaf)
        assert got == want
        # a bag that does not fit leaves the columns as they were;
        # repr: NaN equals itself, and 1 differs from 1.0 and True
        assert repr(columns) == repr(
            new_columns(Bag(count=1, child=leaf)) if want else want_columns)


# node kind -> the JSON values it takes, and their name in a violation
_TAKES = {"numeric": ((int, float), "numeric"), "string": (str, "string"),
          "categorical": (str, "string"), "bag": (list, "array"),
          "product": (dict, "object")}


def reference_walk(value, node, path, column_path, columns, out):
    """The plain walk ``validate`` replaced: it dispatches at every node
    and builds both paths at every step.  It appends ``value`` to
    ``columns`` whether or not it fits; an absent optional subtree walks
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
            reference_walk(v, f.schema, f"{path}.{f.name}",
                           f"{column_path}.{f.name}", columns,
                           [] if v is None else out)
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
                reference_walk(item, node.child, f"{path}[{i}]", child_path,
                               columns, out)
    else:
        columns[column_path].append(value)
        if fits and isinstance(node, NumericLeaf) \
                and _finite_float(value) is None:
            out.append(Violation(path, "finite number", repr(value)))
        elif fits and isinstance(node, StringLeaf):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                out.append(Violation(path, "string encodable as UTF-8",
                                     "unpaired surrogate"))


def assert_validate_matches_the_reference(docs, schema):
    """``validate`` of each document into one shared set of columns
    returns the reference walk's violations, in its order, and the
    columns end up as the reference's appends of the documents that
    fit, by repr (NaN equals itself, and 1 differs from 1.0 and True)."""
    columns = new_columns(schema)
    want_columns = defaultdict(list)
    for doc in docs:
        sink, want = defaultdict(list), []
        reference_walk(doc, schema, "$", "$", sink, want)
        assert validate(doc, schema, columns) == want
        assert validate(doc, schema) == want
        if not want:
            for path, values in sink.items():
                want_columns[path] += values
    assert repr(columns) == repr({p: want_columns[p] for p in columns})


_LEAVES = (NumericLeaf(count=1, mean=0.0, std=1.0),
           StringLeaf(count=1, ngram_n=3, hash_dim=8),
           CategoricalLeaf(count=1, values=("a", "\ud800")))
SCHEMAS = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.builds(lambda child: Bag(count=1, child=child), inner)
    | st.dictionaries(st.sampled_from("abcd"),
                      st.tuples(inner, st.booleans()), min_size=1,
                      max_size=3).map(lambda fields: Product(
                          count=1, fields=tuple(
                              ProductField(name, node, optional)
                              for name, (node, optional)
                              in sorted(fields.items())))),
    max_leaves=6)
# values that fit few nodes: nulls, other kinds, numbers that are not
# finite in float64, lone surrogates, and bags of floats
ODD = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(_RUN_ODD + _RUN_STRINGS), st.text(max_size=3),
    st.lists(st.floats(), max_size=4))


@st.composite
def documents(draw, node, odd_one_in):
    """A document for ``node`` whose every value is drawn from ODD once
    in ``odd_one_in`` (never at 0), and whose products may lack fields,
    hold nulls, and carry extra fields."""
    odd = odd_one_in and draw(st.integers(0, odd_one_in - 1)) == 0
    if odd:
        return draw(ODD)
    if isinstance(node, NumericLeaf):
        return draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.integers(-2**80, 2**80), st.booleans()))
    if isinstance(node, StringLeaf):
        return draw(st.text(max_size=5))
    if isinstance(node, CategoricalLeaf):
        return draw(st.sampled_from(node.values) | st.text(max_size=2))
    if isinstance(node, Bag):
        items = documents(node.child, odd_one_in)
        if isinstance(node.child, NumericLeaf):
            items |= st.floats(allow_nan=False, allow_infinity=False)
        return draw(st.lists(items, max_size=5))
    doc = {}
    for f in node.fields:
        if not f.optional and not odd_one_in:
            doc[f.name] = draw(documents(f.schema, odd_one_in))
            continue
        how = draw(st.sampled_from(("absent", "null", "value", "value")))
        if how != "absent":
            doc[f.name] = (None if how == "null"
                           else draw(documents(f.schema, odd_one_in)))
    for name in draw(st.lists(st.sampled_from("aez"), max_size=2)):
        doc.setdefault(name, draw(ODD) if odd_one_in else None)
    return doc


@given(st.data(), SCHEMAS)
def test_validate_matches_the_reference_walk_on_built_schemas(data, schema):
    docs = [data.draw(documents(schema, odd_one_in))
            for odd_one_in in (0, 0, 20, 5)]
    assert_validate_matches_the_reference(docs, schema)


@given(st.data(), st.integers(0, 2**32 - 1), st.sampled_from((0, 1, 32)))
def test_validate_matches_the_reference_walk_on_inferred_schemas(
        data, seed, threshold):
    docs = random_corpus(seed)
    try:
        schema = infer_schema(docs[:-1] or docs,
                              categorical_threshold=threshold)
    except SchemaError:
        assume(False)  # a conflict, or an array empty in every document
    docs += [data.draw(documents(schema, odd_one_in))
             for odd_one_in in (0, 20)]
    assert_validate_matches_the_reference(docs, schema)


def assert_fill_matches_the_walker(docs, schema):
    """``fill_columns`` of ``docs`` as one chunk appends what ``validate``
    of each appends, if each fits, and else leaves the columns as they
    were, by repr (NaN equals itself, and 1 differs from 1.0 and True)."""
    columns = new_columns(schema)
    want = new_columns(schema)
    fits = all([validate(doc, schema, want) == [] for doc in docs])
    assert fill_columns(docs, schema, columns) is fits
    assert repr(columns) == repr(want if fits else new_columns(schema))


@given(st.data(), SCHEMAS)
def test_fill_matches_the_walker_on_built_schemas(data, schema):
    docs = [data.draw(documents(schema, odd_one_in))
            for odd_one_in in (0, 0, 0, 20)]
    for chunk in (docs[:3], docs, docs[3:], []):
        assert_fill_matches_the_walker(chunk, schema)


@given(st.integers(0, 2**32 - 1), st.sampled_from((0, 1, 32)))
def test_fill_matches_the_walker_on_inferred_schemas(seed, threshold):
    docs = random_corpus(seed)
    try:
        schema = infer_schema(docs[:-1] or docs,
                              categorical_threshold=threshold)
    except SchemaError:
        assume(False)  # a conflict, or an array empty in every document
    assert_fill_matches_the_walker(docs, schema)
    assert_fill_matches_the_walker(docs[:-1], schema)


# a corpus of several chunks, and where a misfit or a conflict goes in it:
# the first document, the last of the first chunk, the first of the
# second, and the last document
N_DOCS = 3 * CHUNK_SIZE + 7
PLACES = (0, CHUNK_SIZE - 1, CHUNK_SIZE, N_DOCS - 1)


def _chunked_doc(i):
    doc = {"id": i, "x": i * 0.25 - 9.5, "tag": "abc"[i % 3],
           "msg": f"message {i * 7919 % 1000} of {i % 13}",
           "xs": [i / 7, -1.5, 1e300][:i % 4],
           "items": [{"k": f"k{j}", "v": j - i} for j in range(i % 3)]}
    if i % 5:
        doc["opt"] = None if i % 5 == 1 else {"deep": [[i], []], "n": True}
    return doc


CHUNKED_DOCS = [_chunked_doc(i) for i in range(N_DOCS)]
CHUNKED_SCHEMA = infer_schema(CHUNKED_DOCS, categorical_threshold=5)

# documents that do not fit CHUNKED_SCHEMA, one misfit each
MISFITS = [
    {**_chunked_doc(1), "x": "1.5"},
    {**_chunked_doc(2), "x": float("nan")},
    {**_chunked_doc(3), "xs": [1.0, None]},
    {**_chunked_doc(4), "extra": 1},
    {k: v for k, v in _chunked_doc(6).items() if k != "tag"},
    {**_chunked_doc(7), "opt": {"deep": [[1], [float("inf")]], "n": 1}},
    {**_chunked_doc(8), "msg": "lone \ud800"},
    {**_chunked_doc(9), "items": [{"k": "a", "v": 1}, {"k": 2, "v": 1}]},
    {**_chunked_doc(11), "opt": {"n": 1}},
    None,
]


@pytest.mark.parametrize("misfit", range(len(MISFITS)))
def test_chunks_with_misfits_fill_as_the_walker_does(misfit):
    """Chunk by chunk, with the walker as the fallback of a chunk that
    does not fit, the columns end up as the walker's appends of the
    documents that fit; only a chunk with a misfit falls back."""
    docs = list(CHUNKED_DOCS)
    for k, place in enumerate(PLACES):
        docs[place] = MISFITS[(misfit + k) % len(MISFITS)]
    columns, want = new_columns(CHUNKED_SCHEMA), new_columns(CHUNKED_SCHEMA)
    for doc in docs:
        validate(doc, CHUNKED_SCHEMA, want)
    fell_back = []
    for start in range(0, N_DOCS, CHUNK_SIZE):
        chunk = docs[start:start + CHUNK_SIZE]
        if not fill_columns(chunk, CHUNKED_SCHEMA, columns):
            fell_back.append(start)
            for doc in chunk:
                validate(doc, CHUNKED_SCHEMA, columns)
    assert fell_back == [0, CHUNK_SIZE, 3 * CHUNK_SIZE]
    assert repr(columns) == repr(want)
    assert len(columns["$"]) == N_DOCS - len(PLACES)


# corpora whose one conflict sits at one document: a kind clash with the
# corpus, a clash inside the document, a non-finite number and a null
CONFLICTS = [
    lambda i: {**_chunked_doc(i), "id": "seven"},
    lambda i: {**_chunked_doc(i), "items": [{"k": 1, "v": 1},
                                            {"k": "a", "v": [1]}]},
    lambda i: {**_chunked_doc(i), "xs": [1.0, float("-inf")]},
    lambda i: {**_chunked_doc(i), "opt": {"deep": [[None]], "n": 1}},
    lambda i: [_chunked_doc(i)],
]


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("conflict", range(len(CONFLICTS)))
def test_a_conflict_in_any_chunk_is_named_as_the_reference_names_it(
        place, conflict):
    docs = list(CHUNKED_DOCS)
    docs[place] = CONFLICTS[conflict](place)
    for threshold in (0, 5):
        want = _outcome(reference_infer, docs, threshold)
        assert want[0] == "conflict"
        assert _outcome(lambda d, t: infer_schema(
            iter(d), categorical_threshold=t), docs, threshold) == want


def test_a_chunked_corpus_infers_as_the_reference_does():
    for threshold in (0, 2, 5, 32):
        assert _outcome(
            lambda d, t: infer_schema(d, categorical_threshold=t),
            CHUNKED_DOCS, threshold) == _outcome(
            reference_infer, CHUNKED_DOCS, threshold)


# schema nodes whose keys are all there but hold a value of the wrong
# type or range
BAD_VALUE_NODES = [
    {"kind": "numeric", "count": -1, "mean": 0.0, "std": 1.0},
    {"kind": "numeric", "count": 1.5, "mean": 0.0, "std": 1.0},
    {"kind": "numeric", "count": True, "mean": 0.0, "std": 1.0},
    {"kind": "numeric", "count": 1, "mean": "x", "std": 1.0},
    {"kind": "numeric", "count": 1, "mean": None, "std": 1.0},
    {"kind": "numeric", "count": 1, "mean": 10**400, "std": 1.0},
    {"kind": "numeric", "count": 1, "mean": 0.0, "std": -1.0},
    {"kind": "numeric", "count": 1, "mean": 0.0, "std": False},
    {"kind": "string", "count": 1, "ngram_n": 0, "hash_dim": 8},
    {"kind": "string", "count": 1, "ngram_n": "3", "hash_dim": 8},
    {"kind": "string", "count": 1, "ngram_n": 3, "hash_dim": 0},
    {"kind": "string", "count": 1, "ngram_n": 3, "hash_dim": 8.0},
    {"kind": "string", "count": 1, "ngram_n": True, "hash_dim": 8},
    {"kind": "categorical", "count": 1, "values": ["b", "a"]},
    {"kind": "categorical", "count": 1, "values": ["a", "a"]},
    {"kind": "categorical", "count": 1, "values": ["a", 1]},
    {"kind": "categorical", "count": 1, "values": "ab"},
    {"kind": "bag", "count": -2, "child": {
        "kind": "numeric", "count": 1, "mean": 0.0, "std": 0.0}},
    {"kind": "product", "count": 1, "fields": {"a": {
        "optional": "yes", "schema": {
            "kind": "numeric", "count": 1, "mean": 0.0, "std": 0.0}}}},
    {"kind": "product", "count": 1, "fields": {"a": {
        "optional": 0, "schema": {
            "kind": "numeric", "count": 1, "mean": 0.0, "std": 0.0}}}},
]


class TestSerialization:
    def test_round_trip_identity(self, fitness_doc):
        for docs in ([fitness_doc], [1, 2, 3], [{"a": ["x", "y"]}]):
            s = infer_schema(docs, categorical_threshold=0)
            assert loads_schema(dumps_schema(s)) == s

    def test_canonical_form_is_sorted_and_versioned(self, fitness_doc):
        text = dumps_schema(infer_schema([fitness_doc]))
        assert '"schema_version":1' in text
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True,
                                  separators=(",", ":"))
        assert dumps_schema(infer_schema([fitness_doc])) == text

    def test_version_mismatch_rejected(self):
        text = dumps_schema(infer_schema([1.5]))
        bad = text.replace('"schema_version":1', '"schema_version":99')
        with pytest.raises(SchemaError, match="schema_version"):
            loads_schema(bad)

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            loads_schema("not json at all")
        with pytest.raises(SchemaError):
            loads_schema("[1,2,3]")

    @pytest.mark.parametrize("text", [
        pytest.param('{"schema_version":1}', id="no_root"),
        pytest.param('{"schema_version":1,"root":{"kind":"numeric"}}',
                     id="no_count"),
        pytest.param('{"schema_version":1,"root":{"count":1,"fields":[],'
                     '"kind":"product"}}', id="fields_list"),
        pytest.param('{"schema_version":1,"root":{"child":5,"count":1,'
                     '"kind":"bag"}}', id="child_not_object"),
        pytest.param('{"schema_version":1,"root":{"count":1,'
                     '"kind":"product","fields":{"a":{"optional":false}}}}',
                     id="field_without_schema"),
    ] + [pytest.param(json.dumps({"schema_version": 1, "root": node}),
                      id=f"bad_value_{i}")
         for i, node in enumerate(BAD_VALUE_NODES)])
    def test_malformed_schema_rejected(self, text):
        with pytest.raises(SchemaError, match="malformed schema"):
            loads_schema(text)

    def test_well_formed_values_load(self):
        node = {"kind": "product", "count": 0, "fields": {"a": {
            "optional": True, "schema": {
                "kind": "numeric", "count": 0, "mean": -3, "std": 0}}}}
        s = loads_schema(json.dumps({"schema_version": 1, "root": node}))
        assert s.fields[0].schema == NumericLeaf(count=0, mean=-3, std=0)


# -- reference inference -------------------------------------------------
# A plain reference for ``infer_schema``: one schema per document, merged
# into the corpus schema one document at a time, with the categorical cap
# applied at every merge.  A numeric leaf holds the exact Fraction sums of
# its values and their squares until the whole corpus is merged, and
# only then freezes into a NumericLeaf.


def _ref_kind(value):
    if value is None:
        return "null"
    if isinstance(value, (bool, int, float)):
        return "numeric"
    for types, kind in ((str, "string"), (list, "bag"), (dict, "product")):
        if isinstance(value, types):
            return kind
    return type(value).__name__


def _ref_categorical(count, values, cap):
    if len(values) > cap[0]:
        return StringLeaf(count=count, ngram_n=cap[1], hash_dim=cap[2])
    return CategoricalLeaf(count=count, values=values)


def _ref_from_value(value, path, cap):
    kind = _ref_kind(value)
    if kind == "numeric":
        try:
            v = float(value)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise SchemaConflict(path, "finite number", repr(value))
        return _RefNumbers(1, Fraction(value), Fraction(value) ** 2)
    if kind == "string":
        return _ref_categorical(1, (value,), cap)
    if kind == "bag":
        child = None
        for i, item in enumerate(value):
            item_path = f"{path}[{i}]"
            child = _ref_merge(child, _ref_from_value(item, item_path, cap),
                               item_path, cap)
        return Bag(count=1, child=child)
    if kind == "product":
        return Product(count=1, fields=tuple(
            ProductField(name, _ref_from_value(value[name], f"{path}.{name}",
                                               cap), False)
            for name in sorted(value) if value[name] is not None))
    raise SchemaConflict(path, "a JSON value", kind)


@dataclass(frozen=True)
class _RefNumbers:
    count: int
    sum: Fraction
    squares: Fraction

    kind = "numeric"


_DIGITS = decimal.Context(prec=30, Emin=-10**6, Emax=10**6)


def _ref_root(var):
    """The float nearest the square root of the Fraction ``var``, ties to
    even: of a 30-digit root's float and its two neighbours, the one whose
    rounding interval, squared, holds ``var``."""
    guess = float(_DIGITS.sqrt(_DIGITS.divide(
        decimal.Decimal(var.numerator), decimal.Decimal(var.denominator))))
    fits = []
    for c in (math.nextafter(guess, 0), guess,
              math.nextafter(guess, sys.float_info.max)):
        low = (Fraction(c) + Fraction(math.nextafter(c, 0))) / 2
        high = Fraction(c) + Fraction(math.ulp(c)) / 2
        if low * low <= var <= high * high:
            fits.append(c)
    # two fit only when var is a bound's square: the even one wins
    return min(fits, key=lambda c: c.hex().split("p")[0][-1] in "13579bdf")


def _ref_frozen(node):
    if isinstance(node, _RefNumbers):
        mean = node.sum / node.count
        var = node.squares / node.count - mean * mean
        return NumericLeaf(count=node.count, mean=float(mean),
                           std=_ref_root(var))
    if isinstance(node, Bag):
        return replace(node, child=_ref_frozen(node.child))
    if isinstance(node, Product):
        return replace(node, fields=tuple(replace(f, schema=_ref_frozen(
            f.schema)) for f in node.fields))
    return node


def _ref_merge(a, b, path, cap):
    if a is None or b is None:
        return b if a is None else a
    if isinstance(a, _RefNumbers) and isinstance(b, _RefNumbers):
        return _RefNumbers(a.count + b.count, a.sum + b.sum,
                           a.squares + b.squares)
    if isinstance(a, StringLeaf) and isinstance(b, (StringLeaf,
                                                    CategoricalLeaf)):
        return replace(a, count=a.count + b.count)
    if isinstance(a, CategoricalLeaf) and isinstance(b, StringLeaf):
        return replace(b, count=a.count + b.count)
    if isinstance(a, CategoricalLeaf) and isinstance(b, CategoricalLeaf):
        return _ref_categorical(a.count + b.count,
                                tuple(sorted(set(a.values) | set(b.values))),
                                cap)
    if isinstance(a, Bag) and isinstance(b, Bag):
        return Bag(count=a.count + b.count,
                   child=_ref_merge(a.child, b.child, f"{path}[]", cap))
    if isinstance(a, Product) and isinstance(b, Product):
        total = a.count + b.count
        fields = []
        for name in sorted(set(a.field_names) | set(b.field_names)):
            fa, fb = a.field(name), b.field(name)
            merged = (_ref_merge(fa.schema, fb.schema, f"{path}.{name}", cap)
                      if fa and fb else (fa or fb).schema)
            fields.append(ProductField(name, merged, merged.count < total))
        return Product(count=total, fields=tuple(fields))
    raise SchemaConflict(path, a.kind, b.kind)


def reference_infer(docs, threshold):
    cap = (threshold, 3, 64)
    merged = None
    for doc in docs:
        one = _ref_from_value(doc, "$", cap)
        merged = one if merged is None else _ref_merge(merged, one, "$", cap)
    if merged is None:
        raise SchemaError("empty corpus")
    for path, node in node_paths(merged):
        if node is None:
            raise SchemaError(
                f"{path}: array was empty in every document; "
                "element kind cannot be inferred")
    return _ref_frozen(merged)


# leaf values the random corpora draw from: bools and ints are numeric,
# -0.0 keeps its sign, values near 1e308 overflow the plain mean/std
# formula, 10**400 has no float, and a few strings go past the small
# thresholds
_NUMBERS = (0, 1, -3, True, False, -0.0, 0.5, 2.25, -7.125, 1e308, -1.7e308,
            8.9e307, 5e-324, 1e-300)
_FLOATS = tuple(v for v in _NUMBERS if type(v) is float)
_STRINGS = ("a", "b", "c", "d", "e", "f", "g", "\ud800", "")
_ODD = (None, "z", 1, 2.5, [], [1.0], ["q"], [[]], {"a": 1}, {},
        float("nan"), float("inf"), -float("inf"), 10**400, True)


def _random_shape(rng, depth):
    kinds = ["num", "float", "str"] + (["bag", "obj"] * 2 if depth < 3 else [])
    kind = rng.choice(kinds)
    if kind == "bag":
        return kind, _random_shape(rng, depth + 1)
    if kind == "obj":
        names = rng.sample("abcd", rng.randint(1, 3))
        return kind, {n: _random_shape(rng, depth + 1) for n in names}
    return kind, None


def _random_value(rng, shape, odd):
    if rng.random() < odd:
        return rng.choice(_ODD)
    kind, sub = shape
    if kind == "num":
        return rng.choice(_NUMBERS)
    if kind == "float":
        return rng.choice(_FLOATS) if rng.random() < 0.7 else rng.gauss(0, 9)
    if kind == "str":
        return rng.choice(_STRINGS)
    if kind == "bag":
        return [_random_value(rng, sub, odd)
                for _ in range(rng.choice((0, 0, 1, 2, 3, 5, 8)))]
    doc = {n: _random_value(rng, s, odd) for n, s in sub.items()
           if rng.random() < 0.8}
    if rng.random() < 0.2:
        doc[rng.choice("abcde")] = None  # null == absent
    return doc


def random_corpus(seed):
    """A few documents drawn from one random shape, each node replaced by
    an odd value (another kind, a null, a non-finite or huge number) with
    a small probability that varies by corpus."""
    rng = random.Random(seed)
    shape = _random_shape(rng, 0)
    odd = rng.choice((0.0, 0.01, 0.05, 0.15))
    return [_random_value(rng, shape, odd)
            for _ in range(rng.randint(1, 5))]


def _outcome(infer, docs, threshold):
    """dumps_schema and the tree, or the error's type and text."""
    try:
        schema = infer(docs, threshold)
    except SchemaConflict as exc:
        return "conflict", str(exc), (exc.path, exc.expected, exc.actual)
    except SchemaError as exc:
        return "error", str(exc), None
    return "schema", dumps_schema(schema), schema


def test_inference_matches_the_reference_fold():
    kinds = Counter()
    for seed in range(3000):
        docs = random_corpus(seed)
        for threshold in (0, 1, 2, 3, 5, 32):
            want = _outcome(reference_infer, docs, threshold)
            got = _outcome(
                lambda d, t: infer_schema(d, categorical_threshold=t),
                docs, threshold)
            assert got == want, (seed, threshold)
            kinds[want[0]] += 1
    # the sweep reaches schemas, conflicts and unresolved arrays alike
    assert min(kinds.values()) > 500, kinds


def _shuffled(value, rng):
    """``value`` with the items of every bag in it shuffled."""
    if isinstance(value, list):
        items = [_shuffled(item, rng) for item in value]
        rng.shuffle(items)
        return items
    if isinstance(value, dict):
        return {name: _shuffled(v, rng) for name, v in value.items()}
    return value


@given(st.integers(0, 10**6), st.sampled_from((0, 1, 3, 32)), st.randoms())
def test_schema_does_not_depend_on_document_or_item_order(seed, threshold,
                                                          rng):
    docs = random_corpus(seed)
    want = _outcome(infer_schema, docs, threshold)
    assume(want[0] == "schema")
    shuffled = [_shuffled(doc, rng) for doc in docs]
    rng.shuffle(shuffled)
    assert _outcome(infer_schema, shuffled, threshold)[1] == want[1]
