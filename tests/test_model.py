"""Model compilation, forward semantics, invariances, serialization."""

import inspect
import json
import math
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import hmil.verification as ver
from hmil.batching import build_batch
from hmil.generators import permute_bags, random_document, random_schema
from hmil.model import (
    ACTIVATIONS,
    AGGREGATIONS,
    BLOCK_ACTIVATIONS,
    FORMAT_VERSION,
    MAGIC,
    Model,
    ModelConfig,
    ModelError,
    ModelLoadError,
    _layer_plan,
    build_model,
    embedding_bound,
    forward,
    forward_with_embeddings,
    load_model,
    save_model,
)
from hmil.nn import (
    IDENTITY,
    Tape,
    Tensor,
    backward,
    dense_forward,
    segment_mean,
    uniform_fill,
)
from hmil.schema import (
    Bag,
    NumericLeaf,
    Product,
    ProductField,
    SchemaError,
    dumps_schema,
    infer_schema,
    node_paths,
)
from hmil.training import TrainConfig, predict_scores, train

DATA = Path(__file__).parent / "data"

PLAIN_BAG = Bag(count=1, child=NumericLeaf(count=1, mean=0.0, std=1.0))


def random_case(seed, max_depth=3, n_docs=5, **config_kw):
    """Random (schema, model, docs, batch); None on an uninferable corpus."""
    rng = np.random.default_rng(seed)
    gen = random_schema(rng, max_depth=max_depth, require_bag=True)
    raw = [random_document(rng, gen) for _ in range(n_docs)]
    try:
        schema = infer_schema(raw)
    except SchemaError:
        return None
    config = ModelConfig(embed_dim=4, hidden_dim=4, seed=seed % 2**31,
                         **config_kw)
    model = build_model(schema, config)
    return schema, model, raw, build_batch(raw, schema)


class TestConfig:
    def test_rejects_bad_values(self):
        for kw in ({"embed_dim": 0}, {"activation": "sigmoid"},
                   {"aggregation": "sum"}, {"seed": -1}, {"seed": 1.5},
                   {"embed_dim": True}, {"hidden_dim": 2.0},
                   {"output_dim": "2"}, {"activation": []}):
            with pytest.raises(ModelError):
                ModelConfig(**kw)


class TestBuild:
    def test_same_seed_bit_identical(self):
        schema = infer_schema([{"a": [1.0, 2.0], "b": "x"}])
        a = build_model(schema, ModelConfig(seed=7))
        b = build_model(schema, ModelConfig(seed=7))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        c = build_model(schema, ModelConfig(seed=8))
        assert any(not np.array_equal(pa.data, pc.data)
                   for pa, pc in zip(a.parameters(), c.parameters()))

    def test_closed_form_count_flat_bag(self):
        config = ModelConfig(embed_dim=8, hidden_dim=8, output_dim=1)
        # bag: (1+1)*8 + (8+2)*8 = 96; head: (8+1)*8 + (8+1)*1 = 81
        model = build_model(PLAIN_BAG, config)
        assert model.values.size == 177
        assert sum(p.data.size for p in model.parameters()) == 177

    def test_closed_form_count_meanmax(self):
        config = ModelConfig(embed_dim=8, hidden_dim=8, aggregation="meanmax")
        # pooled width doubles: (1+1)*8 + (16+2)*8 = 160; head unchanged
        model = build_model(PLAIN_BAG, config)
        assert model.values.size == 241
        assert sum(p.data.size for p in model.parameters()) == 241

    def test_closed_form_count_product_with_optional(self):
        schema = infer_schema([{"a": 1, "b": "x"}, {"a": 2}])
        config = ModelConfig(embed_dim=3, hidden_dim=4)
        # widths: a=1, b=2 (one value + unknown slot); one presence flag
        # product: (3+1+1)*4 = 20; head: (4+1)*4 + (4+1)*1 = 25
        model = build_model(schema, config)
        assert model.values.size == 45
        assert sum(p.data.size for p in model.parameters()) == 45

    @given(st.integers(0, 2**32 - 1))
    def test_closed_form_count_matches_construction(self, seed):
        case = random_case(seed)
        assume(case is not None)
        schema, model, _, _ = case
        assert sum(p.data.size for p in model.parameters()) \
            == model.values.size


class TestForwardSemantics:
    def test_output_shape(self):
        docs = [[1.0, 2.0], [3.0], []]
        model = build_model(PLAIN_BAG, ModelConfig(output_dim=3))
        out = forward(model, build_batch(docs, PLAIN_BAG))
        assert out.shape == (3, 3)
        assert np.all(np.isfinite(out.data))

    def test_empty_batch(self):
        model = build_model(PLAIN_BAG, ModelConfig())
        out = forward(model, build_batch([], PLAIN_BAG))
        assert out.shape == (0, 1)

    def test_empty_bag_embedding_is_exactly_the_bias(self):
        model = build_model(PLAIN_BAG, ModelConfig(seed=5))
        e = forward_with_embeddings(
            model, build_batch([[]], PLAIN_BAG))[1]["$"].data
        np.testing.assert_array_equal(e, model.layers["$"][3].data)

    def test_hand_wired_two_level_tanh_chain(self):
        config = ModelConfig(embed_dim=1, hidden_dim=1, output_dim=1)
        model = build_model(PLAIN_BAG, config)
        for p, value in zip(model.parameters(),
                            ([[1.0]], [[0.0]], [[1.0], [0.0]], [[0.0]],
                             [[1.0]], [[0.0]], [[1.0]], [[0.0]])):
            p.data[...] = value
        out = forward(model, build_batch([[1.0]], PLAIN_BAG))
        np.testing.assert_allclose(out.data, [[math.tanh(math.tanh(1.0))]],
                                   rtol=1e-15)
        out = forward(model, build_batch([[2.0, -2.0]], PLAIN_BAG))
        np.testing.assert_allclose(out.data, [[0.0]], atol=1e-15)

    def test_empty_bag_differs_from_absent_bag(self):
        docs = [{"xs": [1.0]}, {}]
        schema = infer_schema(docs)
        model = build_model(schema, ModelConfig(seed=2))
        out = forward(model, build_batch([{"xs": []}, {}], schema))
        # only the presence flag separates these rows
        assert np.max(np.abs(out.data[0] - out.data[1])) > 1e-9

    def test_mutating_pooling_breaks_invariance(self, monkeypatch):
        # guards the test harness itself: a first-instance "pool" must
        # be caught by the permutation check
        import hmil.model as model_mod

        def first_row(instances, offsets, tape=None):
            off = np.asarray(offsets)
            rows = np.zeros((len(off) - 1, instances.cols))
            for i in range(len(off) - 1):
                if off[i + 1] > off[i]:
                    rows[i] = instances.data[off[i]]
            return Tensor(rows)

        monkeypatch.setattr(model_mod, "segment_mean", first_row)
        model = build_model(PLAIN_BAG, ModelConfig(seed=1))
        a = forward(model, build_batch([[1.0, 2.0, 3.0]], PLAIN_BAG))
        b = forward(model, build_batch([[3.0, 2.0, 1.0]], PLAIN_BAG))
        assert np.max(np.abs(a.data - b.data)) > 1e-6


class TestForwardPlan:
    """The forward pass runs the steps compiled with the model: it walks
    no schema tree, so it recurses no deeper as the schema nests."""

    DOCS = [{"a": [1.0, 2.0], "b": "x", "c": [{"d": [3.0]}, {"d": []}]},
            {"a": [], "c": []}]

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_runs_without_walking_the_schema(self, tmp_path, monkeypatch,
                                             aggregation):
        schema = infer_schema(self.DOCS)
        config = ModelConfig(embed_dim=3, hidden_dim=4, output_dim=2,
                             aggregation=aggregation, seed=5)
        built, trained = build_model(schema, config), build_model(schema,
                                                                  config)
        save_model(built, str(tmp_path / "m"))
        loaded, _ = load_model(str(tmp_path / "m"))
        train(trained, self.DOCS, [0, 1], TrainConfig(epochs=2, batch_size=1))
        batch = build_batch(self.DOCS, schema)

        def outputs(model):
            out, sink = forward_with_embeddings(model, batch)
            scores = [row for _, row, _ in predict_scores(
                model, ((i, doc, None) for i, doc in enumerate(self.DOCS)))]
            return (forward(model, batch).data.tobytes(), out.data.tobytes(),
                    {path: e.data.tobytes() for path, e in sink.items()},
                    np.array(scores).tobytes())

        want = [outputs(m) for m in (built, loaded, trained)]
        assert sorted(want[0][2]) == ["$.a", "$.c", "$.c[].d"]

        def no_walk(*args):
            raise AssertionError("the forward pass walked the schema")

        monkeypatch.setattr("hmil.model.node_paths", no_walk)
        assert [outputs(m) for m in (built, loaded, trained)] == want

    def test_depth_costs_no_frames(self):
        """Forward over 400 levels, bags and products alternating, needs
        less than ``depth + 10`` frames of headroom: a walk over the
        schema would need one frame a level, and steps that call their
        children's steps more."""
        depth, limit = 400, sys.getrecursionlimit()
        node, doc = NumericLeaf(count=1, mean=0.0, std=1.0), 1.0
        for level in range(depth):
            if level % 2 == 0:
                node, doc = Bag(count=1, child=node), [doc]
            else:
                node, doc = Product(count=1, fields=(
                    ProductField("a", node, optional=False),)), {"a": doc}
        sys.setrecursionlimit(max(limit, 10 * depth))
        try:  # building and batching recurse as deep as the schema
            model = build_model(node, ModelConfig(embed_dim=2, hidden_dim=2))
            batch = build_batch([doc, doc], node)
            want = forward(model, batch).data.tobytes()
            sys.setrecursionlimit(len(inspect.stack()) + depth + 10)
            got = forward(model, batch).data.tobytes()
        finally:
            sys.setrecursionlimit(limit)
        assert got == want


class TestBlockedScoring:
    """Without a tape, a bag node maps its instances in blocks of whole
    bags, at most ``BLOCK_ACTIVATIONS`` activations each unless one bag
    alone is larger; every bag pools in order from +0.0 as in one block,
    and a numeric leaf's product is one multiply per element."""

    # 8-row blocks at embed_dim 4: cuts fall before, after and inside
    # runs of empty bags, and the 11-number bag is a block of its own
    DOCS = [[], [-0.0, -0.0], [1.5, -2.0, 0.25], [], [0.5] * 5,
            [float(i) - 5.0 for i in range(11)], [], [], [-0.0], [3.0, 4.0],
            [0.125] * 8, [2.0] * 9, []]

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    @pytest.mark.parametrize("block", [32, 4 * 1024])
    def test_equals_one_block_bit_for_bit(self, monkeypatch, aggregation,
                                          block):
        docs = self.DOCS + [[0.001 * i for i in range(5000)], [-0.0]]
        model = build_model(PLAIN_BAG, ModelConfig(
            embed_dim=4, hidden_dim=3, aggregation=aggregation, seed=7))
        model.layers["$"][1].data[0, :2] = -0.0  # rows of -0.0 for -0.0
        batch = build_batch(docs, PLAIN_BAG)
        monkeypatch.setattr("hmil.model.BLOCK_ACTIVATIONS", block)
        one = forward_with_embeddings(model, batch, Tape())
        blocked = forward_with_embeddings(model, batch)
        assert blocked[0].data.tobytes() == one[0].data.tobytes()
        assert blocked[1]["$"].data.tobytes() == one[1]["$"].data.tobytes()

    def test_instance_matrices_stay_within_a_block(self, monkeypatch):
        """About 20k instance rows: each matrix the instance layer makes
        without a tape fits a block; with a tape it is one matrix."""
        rng = np.random.default_rng(3)
        docs = [rng.normal(size=int(n)).tolist()
                for n in rng.integers(800, 1200, 20)]
        model = build_model(PLAIN_BAG, ModelConfig(seed=1))
        batch = build_batch(docs, PLAIN_BAG)
        phi_w, seen = model.layers["$"][0], []

        def recording(x, w, *args):
            out = dense_forward(x, w, *args)
            if w is phi_w:
                seen.append(out.data.size)
            return out

        monkeypatch.setattr("hmil.model.dense_forward", recording)
        forward(model, batch)
        assert sum(seen) == batch.offsets["$"][-1] * 32 > 18000 * 32
        assert len(seen) > 1 and max(seen) <= BLOCK_ACTIVATIONS
        seen.clear()
        forward(model, batch, Tape())
        assert seen == [batch.offsets["$"][-1] * 32]


class TestPermutationInvariance:
    @pytest.mark.parametrize("aggregation", ["mean", "max", "meanmax"])
    def test_fitness_document(self, aggregation):
        doc = json.loads((DATA / "fitness_week.json").read_text())
        schema = infer_schema([doc])
        model = build_model(schema, ModelConfig(aggregation=aggregation))
        rng = np.random.default_rng(0)
        base = forward(model, build_batch([doc], schema)).data
        for _ in range(10):
            shuffled = permute_bags(rng, doc, schema)
            out = forward(model, build_batch([shuffled], schema)).data
            np.testing.assert_allclose(out, base, rtol=0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    def test_random_nested_schemas(self, seed):
        case = random_case(seed)
        assume(case is not None)
        schema, model, raw, batch = case
        base = forward(model, batch).data
        rng = np.random.default_rng(seed + 1)
        shuffled = [permute_bags(rng, d, schema) for d in raw]
        out = forward(model, build_batch(shuffled, schema)).data
        np.testing.assert_allclose(out, base, rtol=0, atol=1e-9)


class TestDiracIdentity:
    @pytest.mark.parametrize("child_docs", [
        [1.0, -2.0, 0.5, 3.0, -0.25],
        [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}, {"a": 0.0, "b": "x"}],
        [[1.0, 2.0], [], [3.0]],
    ])
    def test_bag_embedding_is_mean_of_singletons(self, child_docs):
        schema = infer_schema([child_docs, child_docs])
        model = build_model(schema, ModelConfig(seed=3))
        whole = forward_with_embeddings(
            model, build_batch([child_docs], schema))[1]["$"].data
        singles = forward_with_embeddings(model, build_batch(
            [[item] for item in child_docs], schema))[1]["$"].data
        np.testing.assert_allclose(whole[0], singles.mean(axis=0),
                                   rtol=0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    def test_random_instance_distributions(self, seed):
        rng = np.random.default_rng(seed)
        inner = random_schema(rng, max_depth=2)
        items = [random_document(rng, inner) for _ in range(4)]
        try:
            schema = infer_schema([items])
        except SchemaError:
            assume(False)
        model = build_model(schema, ModelConfig(embed_dim=4, hidden_dim=4,
                                                seed=seed % 2**31))
        whole = forward_with_embeddings(
            model, build_batch([items], schema))[1]["$"].data
        singles = forward_with_embeddings(
            model, build_batch([[it] for it in items], schema))[1]["$"].data
        np.testing.assert_allclose(whole[0], singles.mean(axis=0),
                                   rtol=0, atol=1e-9)


class TestFullModelGradients:
    def scalar_loss(self, model, batch, tape):
        out = forward(model, batch, tape)
        squash = Tensor(np.full((out.cols, 1), 0.37))
        col = dense_forward(out, squash, None, IDENTITY, tape)
        return segment_mean(col, [0, col.rows], tape)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_backward_matches_finite_differences(self, activation):
        docs = [{"tag": "a", "runs": [{"speed": [1.0, 2.0], "kind": "x"},
                                      {"speed": [0.5], "kind": "y"}]},
                {"tag": "b", "runs": []},
                {"tag": "a", "runs": [{"speed": [], "kind": "x"}]}]
        schema = infer_schema(docs)
        config = ModelConfig(embed_dim=3, hidden_dim=4, output_dim=2,
                             activation=activation, seed=11)
        model = build_model(schema, config)
        batch = build_batch(docs, schema)

        tape = Tape()
        loss = self.scalar_loss(model, batch, tape)
        grads = backward(tape, loss)

        eps = 1e-5
        for p in model.parameters():
            g = grads.get(p, np.zeros(p.data.shape))
            fd = np.zeros(p.data.shape)
            it = np.nditer(p.data, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p.data[idx]
                p.data[idx] = orig + eps
                up = self.scalar_loss(model, batch, Tape()).data[0, 0]
                p.data[idx] = orig - eps
                down = self.scalar_loss(model, batch, Tape()).data[0, 0]
                p.data[idx] = orig
                fd[idx] = (up - down) / (2 * eps)
            denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
            assert np.max(np.abs(g - fd) / denom) < 1e-4


class TestEmbeddingBound:
    @given(st.integers(0, 2**32 - 1))
    def test_all_embeddings_within_bound(self, seed):
        case = random_case(seed)
        assume(case is not None)
        schema, model, raw, batch = case
        _, embeddings = forward_with_embeddings(model, batch)
        for path, e in embeddings.items():
            bound = embedding_bound(model, path)
            assert np.all(np.abs(e.data) <= bound + 1e-12)

    def test_rejects_relu(self):
        model = build_model(PLAIN_BAG, ModelConfig(activation="relu"))
        with pytest.raises(ModelError, match="tanh"):
            embedding_bound(model, "$")

    def test_unknown_path(self):
        model = build_model(PLAIN_BAG, ModelConfig())
        with pytest.raises(ModelError, match="bag"):
            embedding_bound(model, "$.nope")


def assert_views_of_values(model):
    """Every parameter is the C-order view of its own slice of
    ``model.values``, at the running offset, in ``parameters()`` order.
    An empty view (a product over no fields has a (0, h) weight) shares
    no memory and numpy reports its address at offset 0, so only its
    place in the order is checked."""
    values, at = model.values, 0
    base = values.__array_interface__["data"][0]
    for p in model.parameters():
        assert p.data.flags.c_contiguous
        if p.data.size:
            assert np.shares_memory(p.data, values)
            assert p.data.__array_interface__["data"][0] == base + 8 * at
        assert p.data.tobytes() == values[at:at + p.data.size].tobytes()
        at += p.data.size
    assert at == values.size


class TestParameterVector:
    def model(self):
        schema = infer_schema([{"a": [1.0, 2.0], "b": "x"}, {"a": []}])
        return build_model(schema, ModelConfig(embed_dim=3, hidden_dim=4,
                                               output_dim=2, seed=3))

    def test_built_as_the_parameters_in_order(self):
        model = self.model()
        assert_views_of_values(model)
        assert model.values.tobytes() == np.concatenate(
            [p.data.ravel() for p in model.parameters()]).tobytes()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(AGGREGATIONS),
           st.sampled_from(ACTIVATIONS))
    # a (0, 4) comb weight at $[].charlie
    @example(seed=111959, aggregation="mean", activation="tanh")
    def test_drawn_in_plan_order_laid_out_in_preorder(self, seed, aggregation,
                                                      activation):
        """Each tensor holds what ``rng.uniform`` draws for it, children
        first and fields in order, while ``values`` keeps ``parameters()``
        order: preorder, head last."""
        case = random_case(seed, aggregation=aggregation,
                           activation=activation)
        assume(case is not None)
        model = case[1]
        rng = np.random.default_rng(model.config.seed)
        drawn, plan = {}, _layer_plan(model.schema, model.config)[0]
        assert [p for p, _ in model.steps] == [p for p, _, _ in plan[:-1]]
        for path, shapes, _ in plan:
            drawn[path] = []
            for (fan_in, fan_out), bias in zip(shapes[::2], shapes[1::2]):
                limit = math.sqrt(6.0 / (fan_in + fan_out))
                drawn[path].append(rng.uniform(-limit, limit,
                                               (fan_in, fan_out)))
                limit = 1.0 / math.sqrt(max(fan_in, 1))
                drawn[path].append(rng.uniform(-limit, limit, bias))
        paths = [p for p, _ in node_paths(model.schema) if p in drawn]
        want = np.concatenate([t.ravel() for path in paths + ["head"]
                               for t in drawn[path]])
        assert model.values.tobytes() == want.tobytes()
        assert_views_of_values(model)

    def test_one_draw_per_plan_node(self, monkeypatch):
        """``build_model`` calls ``random`` once per node, over the node's
        block of ``values``, in plan order; the test above pins that the
        bytes are those of a draw per tensor."""
        real, outs = np.random.default_rng, []

        class Counting:
            def __init__(self, seed):
                self.rng = real(seed)

            def random(self, *args, out=None, **kwargs):
                outs.append(out)
                return self.rng.random(*args, out=out, **kwargs)

        model = self.model()
        monkeypatch.setattr("hmil.model.np.random.default_rng", Counting)
        again = build_model(model.schema, model.config)
        plan = _layer_plan(model.schema, model.config)[0]
        assert [o.size for o in outs] == [
            sum(r * c for r, c in shapes) for _, shapes, _ in plan]
        for out, (path, _, _) in zip(outs, plan):
            assert np.shares_memory(out, again.values)
            assert out.tobytes() == b"".join(
                p.data.tobytes() for p in again.layers[path])
        assert again.values.tobytes() == model.values.tobytes()

    def test_writing_the_vector_writes_the_parameters(self):
        model = self.model()
        model.values[:] = np.arange(model.values.size)
        at = 0
        for p in model.parameters():
            np.testing.assert_array_equal(
                p.data.ravel(), np.arange(at, at + p.data.size))
            at += p.data.size

    def test_after_load_and_train(self, tmp_path):
        model = self.model()
        save_model(model, str(tmp_path / "m"))
        loaded, _ = load_model(str(tmp_path / "m"))
        assert_views_of_values(loaded)
        assert loaded.values.tobytes() == model.values.tobytes()
        values = loaded.values
        train(loaded, [{"a": [1.0], "b": "x"}, {"a": [], "b": "y"}], [0, 1],
              TrainConfig(epochs=2, batch_size=1))
        assert loaded.values is values
        assert_views_of_values(loaded)
        assert loaded.values.tobytes() != model.values.tobytes()

    def test_container_value_section_is_the_vector(self, tmp_path):
        model = self.model()
        save_model(model, str(tmp_path / "m"))
        blob = (tmp_path / "m").read_bytes()
        section = model.values.astype("<f8").tobytes()
        assert blob.endswith(struct.pack("<Q", model.values.size) + section)

    def test_folded_post_map_is_in_the_vector(self):
        model = build_model(PLAIN_BAG, ModelConfig(embed_dim=4, seed=6))
        values = model.values
        batch = build_batch([[1.0, 2.0], []], PLAIN_BAG)
        assert ver._collapse_deviation(model, [batch], inner_dim=3) < 1e-10
        # the draws _collapse_deviation makes for the one bag
        rng = np.random.default_rng([6, 13])
        inner = uniform_fill(rng, np.empty((4, 3)))
        post = uniform_fill(rng, np.empty((4, 4)))
        at = 2 * 4  # phi_w (1, 4) and phi_b (1, 4) come first
        assert values[at:at + 5 * 4].tobytes() \
            == ver._fold(inner, post).tobytes()
        assert_views_of_values(model)


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, tmp_path):
        docs = [{"a": [1.0, 2.0], "b": "x"}, {"a": [3.0]}]
        schema = infer_schema(docs)
        model = build_model(schema, ModelConfig(seed=13))
        target = tmp_path / "m.hmil"
        save_model(model, str(target), extra={"labels": ["x", "y"]})
        loaded, extra = load_model(str(target))
        assert extra == {"labels": ["x", "y"]}
        assert loaded.config == model.config
        assert dumps_schema(loaded.schema) == dumps_schema(schema)
        batch = build_batch(docs, schema)
        np.testing.assert_array_equal(forward(loaded, batch).data,
                                      forward(model, batch).data)

    def test_saving_twice_is_byte_identical(self, tmp_path):
        model = build_model(PLAIN_BAG, ModelConfig(seed=4))
        a, b = tmp_path / "a", tmp_path / "b"
        save_model(model, str(a))
        save_model(model, str(b))
        assert a.read_bytes() == b.read_bytes()
        loaded, _ = load_model(str(a))
        c = tmp_path / "c"
        save_model(loaded, str(c))
        assert c.read_bytes() == a.read_bytes()

    def test_bad_magic(self, tmp_path):
        target = tmp_path / "m"
        save_model(build_model(PLAIN_BAG, ModelConfig()), str(target))
        blob = bytearray(target.read_bytes())
        blob[:4] = b"NOPE"
        target.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="magic"):
            load_model(str(target))

    def test_unsupported_version(self, tmp_path):
        target = tmp_path / "m"
        save_model(build_model(PLAIN_BAG, ModelConfig()), str(target))
        blob = bytearray(target.read_bytes())
        blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        target.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="version"):
            load_model(str(target))

    def test_truncation(self, tmp_path):
        target = tmp_path / "m"
        save_model(build_model(PLAIN_BAG, ModelConfig()), str(target))
        blob = target.read_bytes()
        target.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ModelLoadError, match="truncated"):
            load_model(str(target))

    def test_huge_value_count(self, tmp_path):
        target = tmp_path / "m"
        model = build_model(PLAIN_BAG, ModelConfig())
        save_model(model, str(target))
        blob = bytearray(target.read_bytes())
        n_values = sum(p.data.size for p in model.parameters())
        at = len(blob) - 8 * n_values - 8  # the u64 value count
        assert struct.unpack("<Q", blob[at:at + 8]) == (n_values,)
        blob[at:at + 8] = struct.pack("<Q", 2**62)
        target.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="truncated"):
            load_model(str(target))

    def test_wrong_count_is_refused_before_allocating(self, tmp_path):
        # a hand-made model of one 10-value head tensor, saved under a
        # config whose plan needs 18021002 values
        config = ModelConfig(embed_dim=3000, hidden_dim=3000, output_dim=2)
        values = np.zeros(10)
        save_model(Model(PLAIN_BAG, config, {"head": (Tensor(values),)},
                         values), str(tmp_path / "m"))
        assert (tmp_path / "m").stat().st_size < 400
        tracemalloc.start()
        try:
            with pytest.raises(ModelLoadError, match=(
                    "parameter count mismatch: container has 10, schema "
                    "and config need 18021002")):
                load_model(str(tmp_path / "m"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_big_endian_host_swaps_the_vector_once_in_place(
            self, tmp_path, monkeypatch):
        """The stored little-endian values are swapped once, in the
        vector the tensors view."""
        model = TestParameterVector().model()
        save_model(model, str(tmp_path / "m"))
        monkeypatch.setattr("hmil.model.np.little_endian", False)
        loaded, _ = load_model(str(tmp_path / "m"))
        assert loaded.values.tobytes() == model.values.byteswap().tobytes()
        assert_views_of_values(loaded)

    def test_loading_draws_nothing(self, tmp_path, monkeypatch):
        model = TestParameterVector().model()
        save_model(model, str(tmp_path / "m"))

        def no_draws(*args):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr("hmil.model.np.random.default_rng", no_draws)
        loaded, _ = load_model(str(tmp_path / "m"))
        assert loaded.values.tobytes() == model.values.tobytes()

    # 2007002 values over PLAIN_BAG, 16 MB
    BIG = ModelConfig(embed_dim=1000, hidden_dim=1000, output_dim=2)

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_saving_copies_no_values(self, tmp_path):
        model = build_model(PLAIN_BAG, self.BIG)
        assert model.values.size == 2007002
        _, peak = self.traced_peak(
            lambda: save_model(model, str(tmp_path / "m")))
        assert peak < 0.2 * model.values.nbytes

    def test_loading_reads_straight_into_the_vector(self, tmp_path):
        model = build_model(PLAIN_BAG, self.BIG)
        save_model(model, str(tmp_path / "m"))
        (loaded, _), peak = self.traced_peak(
            lambda: load_model(str(tmp_path / "m")))
        assert peak < 1.2 * model.values.nbytes
        assert loaded.values.tobytes() == model.values.tobytes()
        assert_views_of_values(loaded)

    # byte 16 opens the schema JSON, byte 17 starts its first key
    @pytest.mark.parametrize("at", [16, 17])
    @pytest.mark.parametrize("byte", [b"\xff", b"x"])
    def test_corrupt_schema_blob(self, tmp_path, at, byte):
        target = tmp_path / "m"
        save_model(build_model(PLAIN_BAG, ModelConfig()), str(target))
        blob = bytearray(target.read_bytes())
        assert blob[16:18] == b'{"'
        blob[at:at + 1] = byte
        target.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="corrupt schema"):
            load_model(str(target))

    @pytest.mark.parametrize("byte", [b"\xff", b"x"])
    def test_corrupt_config_blob(self, tmp_path, byte):
        target = tmp_path / "m"
        save_model(build_model(PLAIN_BAG, ModelConfig()), str(target))
        blob = bytearray(target.read_bytes())
        (n_schema,) = struct.unpack("<Q", blob[8:16])
        at = 16 + n_schema + 8  # the config blob's opening brace
        assert blob[at:at + 1] == b"{"
        blob[at:at + 1] = byte
        target.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="corrupt config blob"):
            load_model(str(target))

    def test_trailing_bytes(self, tmp_path):
        target = tmp_path / "m"
        save_model(build_model(PLAIN_BAG, ModelConfig()), str(target))
        target.write_bytes(target.read_bytes() + b"\x00")
        with pytest.raises(ModelLoadError, match="trailing"):
            load_model(str(target))

    def test_parameter_count_mismatch(self, tmp_path):
        schema_blob = dumps_schema(infer_schema([[1.0]])).encode()
        config_blob = json.dumps(
            {"model": {}, "extra": {}}, sort_keys=True,
            separators=(",", ":")).encode()
        target = tmp_path / "m"
        with open(target, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(schema_blob)) + schema_blob)
            fh.write(struct.pack("<Q", len(config_blob)) + config_blob)
            fh.write(struct.pack("<Q", 3) + np.zeros(3).tobytes())
        with pytest.raises(ModelLoadError, match="mismatch"):
            load_model(str(target))
