"""Executable checks of the model family's checkable claims.

Four groups:

* invariants: permutation insensitivity, the singleton-mean identity,
  exact collapse of an extra per-instance linear layer into the
  post-pooling map, gradient agreement with
  finite differences, embedding bounds, and the full schema pipeline on
  random documents;
* concentration: how fast outputs stabilize as bags grow;
* benchmarks: three train-and-measure tasks, each paired with a
  no-signal control that must score near chance;
* an unbiased MMD^2 estimator as the kernel baseline.

Every entry point is seeded and returns plain dicts of floats, so a
repeated run reproduces reports byte for byte, on any number of CPUs
``run_suite`` spreads a suite's checks over.  Wall-clock timing never
enters a report; callers wanting it measure around these functions.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .batching import build_batch, finish_batch, new_columns
from .encoding import EncodingError, encode_document
from .generators import permute_bags, random_document, random_schema
from .model import (
    Model,
    ModelConfig,
    build_model,
    embedding_bound,
    forward,
    forward_with_embeddings,
)
from .nn import (
    IDENTITY,
    Tape,
    Tensor,
    activate,
    backward,
    dense_forward,
    flat_gradient,
    segment_mean,
    uniform_fill,
)
from .schema import (
    Bag,
    NumericLeaf,
    Product,
    SchemaError,
    infer_schema,
    node_paths,
)
from .training import (
    TrainConfig,
    evaluate_accuracy,
    train,
)

__all__ = [
    "SUITE_NAMES",
    "concentration_experiment",
    "check_concentration",
    "benchmark_variance_task",
    "benchmark_nested_task",
    "benchmark_product_task",
    "mmd_baseline",
    "check_permutation_invariance",
    "check_dirac_identity",
    "check_matrix_collapse",
    "check_gradients",
    "check_embedding_bounds",
    "check_pipeline_round_trip",
    "check_variance_task",
    "check_nested_task",
    "check_product_task",
    "check_mmd_baseline",
    "run_suite",
    "summarize_report",
]

PLAIN_BAG = Bag(count=1, child=NumericLeaf(count=1, mean=0.0, std=1.0))
REF_FACTOR = 100
MIN_DEPTH, MAX_DEPTH = 1, 3  # of a random schema in the invariant checks
FD_EPS = 1e-5  # finite-difference step of the gradient check
COLLAPSE_BATCHES = 10  # batches of 3 documents per matrix-collapse model
BOUND_DOCS_PER_SCHEMA = 100  # documents per embedding-bound model


def _inferable_case(rng, n_docs):
    """Random generator schema, documents, and the schema inferred back
    from them.  Redraws until inference succeeds (it fails only when
    some array came out empty in every document)."""
    while True:
        depth = int(rng.integers(MIN_DEPTH, MAX_DEPTH + 1))
        gen = random_schema(rng, max_depth=depth, require_bag=True)
        raw = [random_document(rng, gen) for _ in range(n_docs)]
        try:
            return infer_schema(raw), raw
        except SchemaError:
            continue


def _random_config(rng, aggregation=None, activation=None) -> ModelConfig:
    return ModelConfig(
        embed_dim=4, hidden_dim=4, output_dim=2,
        activation=activation or ("tanh", "relu")[rng.integers(2)],
        aggregation=aggregation or ("mean", "max", "meanmax")[rng.integers(3)],
        seed=int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# invariant checks


def check_permutation_invariance(seed: int, cases: int = 1000) -> dict:
    """Forward outputs must not move when any bag's elements are
    reordered, at any nesting depth."""
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for _ in range(cases):
        schema, raw = _inferable_case(rng, n_docs=int(rng.integers(2, 5)))
        model = build_model(schema, _random_config(rng))
        base = forward(model, build_batch(raw, schema)).data
        shuffled = [permute_bags(rng, doc, schema) for doc in raw]
        out = forward(model, build_batch(shuffled, schema)).data
        worst = max(worst, float(np.max(np.abs(out - base), initial=0.0)))
    return {"name": "permutation_invariance", "passed": worst < 1e-9,
            "details": {"cases": cases, "max_deviation": worst,
                        "bound": 1e-9}}


def check_dirac_identity(seed: int, cases: int = 1000) -> dict:
    """A mean-pooled bag embedding equals the average of the embeddings
    of its elements taken as singleton bags."""
    rng = np.random.default_rng([seed, 12])
    worst = 0.0
    done = 0
    while done < cases:
        inner = random_schema(rng, max_depth=int(rng.integers(0, 3)))
        items = [random_document(rng, inner)
                 for _ in range(int(rng.integers(1, 5)))]
        try:
            schema = infer_schema([items])
        except SchemaError:
            continue
        model = build_model(schema, _random_config(
            rng, aggregation="mean"))
        whole = forward_with_embeddings(
            model, build_batch([items], schema))[1]["$"].data
        singles = forward_with_embeddings(
            model, build_batch([[it] for it in items], schema))[1]["$"].data
        worst = max(worst, float(np.max(np.abs(whole[0] - singles.mean(axis=0)))))
        done += 1
    return {"name": "dirac_identity", "passed": worst < 1e-9,
            "details": {"cases": cases, "max_deviation": worst,
                        "bound": 1e-9}}


def _fold(inner: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Post-pooling weights equivalent to ``inner`` before mean pooling
    followed by ``post``: pool(h @ M) == pool(h) @ M for the pooled
    rows, while the indicator row passes through unchanged."""
    return np.vstack([inner @ post[:-1], post[-1:]])


def _two_matrix_forward(model: Model, batch, extra: dict
                        ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Outputs and bag embeddings of ``model`` with each bag's post map
    replaced by ``extra[path] = (M, W2)``: instance rows go through M
    before mean pooling, and W2 maps [pooled, non-empty] to the
    embedding.  Plain numpy, none of the tape ops the production
    forward uses."""
    act = model.config.activation
    out: dict[str, np.ndarray] = {}
    embeddings: dict[str, np.ndarray] = {}
    for path, node in reversed(node_paths(model.schema)):
        if isinstance(node, Bag):
            phi_w, phi_b, _, post_b = model.layers[path]
            h = activate(act, out.pop(path + "[]") @ phi_w.data + phi_b.data)
            inner, post = extra[path]
            h = h @ inner
            offsets = batch.offsets[path]
            pooled = np.zeros((len(offsets) - 1, h.shape[1]))
            for i, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
                if e > s:
                    pooled[i] = h[s:e].sum(axis=0) / (e - s)
            non_empty = (np.diff(offsets) > 0).astype(np.float64)[:, None]
            out[path] = embeddings[path] = (
                np.hstack([pooled, non_empty]) @ post + post_b.data)
        elif isinstance(node, Product):
            comb_w, comb_b = model.layers[path]
            z = np.hstack([out.pop(f"{path}.{f.name}") for f in node.fields]
                          + [batch.presence[path]])
            out[path] = activate(act, z @ comb_w.data + comb_b.data)
        else:
            out[path] = batch.data[path]
    w1, b1, w2, b2 = model.layers["head"]
    rep = activate(act, out["$"] @ w1.data + b1.data)
    return rep @ w2.data + b2.data, embeddings


def _collapse_deviation(model: Model, batches: list, inner_dim: int) -> float:
    """Draw an inner matrix M and a post map W2 for every bag, fold them
    into the model's post weights with ``_fold`` (in place), and return
    the largest absolute disagreement, over the batches, between the
    two-matrix reference and the folded model's outputs and bag
    embeddings."""
    rng = np.random.default_rng([model.config.seed, 13])
    k = model.config.embed_dim
    extra = {path: (uniform_fill(rng, np.empty((k, inner_dim))),
                    uniform_fill(rng, np.empty((inner_dim + 1, k))))
             for path in model.bag_paths()}
    references = [_two_matrix_forward(model, batch, extra)
                  for batch in batches]
    for path, (inner, post) in extra.items():
        model.layers[path][2].data[:] = _fold(inner, post)
    worst = 0.0
    for batch, (out_ref, emb_ref) in zip(batches, references):
        out, emb = forward_with_embeddings(model, batch)
        worst = max(worst, float(np.max(np.abs(out.data - out_ref),
                                        initial=0.0)))
        for path, e in emb.items():
            worst = max(worst, float(np.max(np.abs(e.data - emb_ref[path]),
                                            initial=0.0)))
    return worst


def check_matrix_collapse(seed: int, models: int = 100) -> dict:
    """An extra per-instance linear layer before mean pooling folds
    exactly into the post-pooling map."""
    rng = np.random.default_rng([seed, 13])
    worst = 0.0
    for _ in range(models):
        # infer from the union so every batch validates against the schema
        schema, raw = _inferable_case(rng, n_docs=3 * COLLAPSE_BATCHES)
        model = build_model(schema, _random_config(rng, aggregation="mean"))
        inner_dim = int(rng.integers(2, 7))
        batches = [build_batch(raw[i:i + 3], schema)
                   for i in range(0, len(raw), 3)]
        worst = max(worst, _collapse_deviation(model, batches, inner_dim))
    return {"name": "matrix_collapse", "passed": worst < 1e-10,
            "details": {"models": models,
                        "batches_per_model": COLLAPSE_BATCHES,
                        "max_deviation": worst, "bound": 1e-10}}


def _fd_max_rel_error(model: Model, batch) -> float:
    squash = Tensor(np.full((model.config.output_dim, 1), 0.37))

    def scalar_loss(tape=None):
        out = forward(model, batch, tape)
        col = dense_forward(out, squash, None, IDENTITY, tape)
        return segment_mean(col, [0, col.rows], tape)

    values, tape = model.values, Tape()
    g = flat_gradient(backward(tape, scalar_loss(tape)), model.parameters())
    worst = 0.0
    for i, orig in enumerate(values.tolist()):
        values[i] = orig + FD_EPS
        up = scalar_loss().data[0, 0]
        values[i] = orig - FD_EPS
        down = scalar_loss().data[0, 0]
        values[i] = orig
        fd = (up - down) / (2 * FD_EPS)
        worst = max(worst, abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-4))
    return worst


def check_gradients(seed: int) -> dict:
    """Tape gradients against central finite differences, through a
    nested model exercising every node kind and both activations."""
    raw = [{"tag": "a", "runs": [{"speed": [1.0, 2.0], "kind": "x"},
                                 {"speed": [0.5], "kind": "y"}]},
           {"tag": "b", "runs": []},
           {"tag": "a", "runs": [{"speed": [], "kind": "x"}]}]
    schema = infer_schema(raw)
    batch = build_batch(raw, schema)
    worst = 0.0
    for i, activation in enumerate(("tanh", "relu")):
        for aggregation in ("mean", "max", "meanmax"):
            model = build_model(schema, ModelConfig(
                embed_dim=3, hidden_dim=4, output_dim=2,
                activation=activation, aggregation=aggregation,
                seed=seed + i))
            worst = max(worst, float(_fd_max_rel_error(model, batch)))
    return {"name": "gradient_check", "passed": worst < 1e-4,
            "details": {"max_rel_error": worst, "bound": 1e-4}}


def check_embedding_bounds(seed: int, documents: int = 10000) -> dict:
    """Every tanh bag embedding stays inside its analytic coordinate
    bound.  The slack of 1e-12 covers float rounding only."""
    rng = np.random.default_rng([seed, 14])
    violations = 0
    seen = 0
    while seen < documents:
        schema, raw = _inferable_case(rng, n_docs=BOUND_DOCS_PER_SCHEMA)
        model = build_model(schema, _random_config(rng, activation="tanh"))
        _, embeddings = forward_with_embeddings(model,
                                                build_batch(raw, schema))
        for path, e in embeddings.items():
            bound = embedding_bound(model, path)
            violations += int(np.sum(np.abs(e.data) > bound + 1e-12))
        seen += len(raw)
    return {"name": "embedding_bound", "passed": violations == 0,
            "details": {"documents": seen, "violations": violations}}


def check_pipeline_round_trip(seed: int, schemas: int = 10,
                              docs_per_schema: int = 1000) -> dict:
    """infer -> validate and encode -> batch on random corpora: every
    generated document must validate cleanly and batch to full size."""
    rng = np.random.default_rng([seed, 15])
    violations = 0
    batched = 0
    for _ in range(schemas):
        schema, raw = _inferable_case(rng, n_docs=docs_per_schema)
        columns = new_columns(schema)
        for doc in raw:
            try:
                encode_document(doc, schema, columns)
            except EncodingError as exc:
                violations += len(exc.violations)
        batch = finish_batch(columns, schema)
        if batch.batch_size == len(raw):
            batched += len(raw)
    ok = violations == 0 and batched == schemas * docs_per_schema
    return {"name": "pipeline_round_trip", "passed": ok,
            "details": {"schemas": schemas,
                        "documents": schemas * docs_per_schema,
                        "violations": violations, "batched": batched}}


# ---------------------------------------------------------------------------
# concentration


def concentration_experiment(model: Model, generator,
                             bag_sizes, repeats: int,
                             rng: np.random.Generator) -> dict:
    """Median |f(bag of size l) - f(reference bag)| per bag size.

    ``generator(rng, size)`` samples one bag of i.i.d. instances.  The
    reference output stands in for the infinite-sample value; the
    reference bag holds ``REF_FACTOR`` times the largest tested size,
    putting its own error well below the measured deviations.
    """
    sizes = sorted(bag_sizes)
    ref_doc = generator(rng, REF_FACTOR * max(sizes))
    f_ref = forward(model, build_batch([ref_doc], model.schema)).data[0, 0]
    table = {}
    for size in sizes:
        docs = [generator(rng, size) for _ in range(repeats)]
        out = forward(model, build_batch(docs, model.schema)).data[:, 0]
        table[size] = float(np.median(np.abs(out - f_ref)))
    return table


CONCENTRATION_SIZES = (4, 16, 64, 256)
CONCENTRATION_REPEATS = 200


def check_concentration(seed: int) -> dict:
    rng = np.random.default_rng([seed, 21])
    model = build_model(PLAIN_BAG, ModelConfig(
        output_dim=1, seed=int(rng.integers(2**31))))

    def generator(r, size):
        return [float(v) for v in r.normal(0.0, 1.0, size)]

    table = concentration_experiment(model, generator, CONCENTRATION_SIZES,
                                     CONCENTRATION_REPEATS, rng)
    sizes = sorted(table)
    medians = [table[s] for s in sizes]
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    ratio = medians[-1] / medians[0] if medians[0] > 0 else float("inf")
    return {"name": "concentration_decay",
            "passed": inversions <= 1 and ratio < 0.25,
            "details": {"bag_sizes": sizes, "medians": medians,
                        "repeats": CONCENTRATION_REPEATS,
                        "inversions": inversions, "max_inversions": 1,
                        "ratio_largest_over_smallest": ratio,
                        "ratio_bound": 0.25}}


# ---------------------------------------------------------------------------
# benchmarks


_BENCH_TRAIN = TrainConfig(epochs=30, batch_size=64, learning_rate=3e-3)
VARIANCE_BAG_SIZE = 50


def _held_out_accuracy(config: ModelConfig, tc: TrainConfig, train_raw: list,
                       train_labels, test_raw: list, test_labels) -> float:
    """Test accuracy of a model built from ``config`` on the schema
    inferred from ``train_raw`` and trained there under ``tc``."""
    model = build_model(infer_schema(train_raw), config)
    train(model, train_raw, np.array(train_labels), tc)
    return evaluate_accuracy(model, test_raw, test_labels)


def _antithetic_bag(rng, sigma: float, size: int) -> list:
    """Bag of draws from N(0, sigma^2) in +/- pairs, so the bag's
    empirical mean is exactly zero regardless of sigma."""
    half = rng.normal(0.0, sigma, size // 2)
    return [float(v) for pair in zip(half, -half) for v in pair]


def benchmark_variance_task(seed: int = 0, n_train: int = 2000,
                            n_test: int = 500,
                            train_config: TrainConfig | None = None) -> dict:
    """Equal-mean scale discrimination: bags of 50 draws with sigma 1
    against sigma 2.  The instance-mean baseline sees a feature that is
    identically zero, so anything it scores above chance would expose a
    harness bug; the shuffled-label control guards the trainer itself."""
    rng = np.random.default_rng([seed, 41])

    def make_split(n):
        raw, labels = [], []
        for i in range(n):
            label = i % 2
            raw.append(_antithetic_bag(rng, 2.0 if label else 1.0,
                                       VARIANCE_BAG_SIZE))
            labels.append(label)
        return raw, labels

    train_raw, train_labels = make_split(n_train)
    test_raw, test_labels = make_split(n_test)
    config = ModelConfig(output_dim=2, seed=int(rng.integers(2**31)))
    tc = train_config or _BENCH_TRAIN
    means_train, means_test = ([[float(np.mean(bag))] for bag in raw]
                               for raw in (train_raw, test_raw))
    shuffled_labels = np.random.default_rng([seed, 42]).permutation(
        np.array(train_labels))
    return {"mil_accuracy": _held_out_accuracy(
                config, tc, train_raw, train_labels, test_raw, test_labels),
            "mean_baseline_accuracy": _held_out_accuracy(
                config, tc, means_train, train_labels, means_test,
                test_labels),
            "shuffled_accuracy": _held_out_accuracy(
                config, tc, train_raw, shuffled_labels, test_raw,
                test_labels),
            "n_train": n_train, "n_test": n_test,
            "bag_size": VARIANCE_BAG_SIZE,
            "train_config": tc.__dict__ | {}}


def _grouped_doc(rng, n_bags: int, bag_size: int, coherent: bool) -> list:
    """One bags-of-bags document.  Instances are center + noise draws;
    the coherent class keeps each bag around its own center, the other
    class shuffles the same instances across bags.  Unions of the two
    classes are identically distributed, so any flat model working on
    the pooled instances is blind by construction."""
    centers = rng.normal(0.0, 1.0, n_bags)
    values = (np.repeat(centers, bag_size)
              + rng.normal(0.0, 1.0, n_bags * bag_size))
    if not coherent:
        values = rng.permutation(values)
    return [[float(v) for v in bag] for bag in values.reshape(n_bags, bag_size)]


def benchmark_nested_task(seed: int = 0, n_train: int = 1000,
                          n_test: int = 400, n_bags: int = 10,
                          bag_size: int = 20,
                          train_config: TrainConfig | None = None) -> dict:
    """Grouping detection in bags of bags: one class's inner bags stay
    near their own centers (wide inter-bag mean spread), the other's are
    random regroupings of the same kind of draws (narrow spread)."""
    rng = np.random.default_rng([seed, 43])

    def make_split(n):
        raw, labels = [], []
        for i in range(n):
            label = i % 2
            raw.append(_grouped_doc(rng, n_bags, bag_size,
                                    coherent=bool(label)))
            labels.append(label)
        return raw, labels

    train_raw, train_labels = make_split(n_train)
    test_raw, test_labels = make_split(n_test)
    config = ModelConfig(output_dim=2, seed=int(rng.integers(2**31)))
    tc = train_config or _BENCH_TRAIN
    flat_train, flat_test = ([[v for bag in doc for v in bag] for doc in raw]
                             for raw in (train_raw, test_raw))
    return {"nested_accuracy": _held_out_accuracy(
                config, tc, train_raw, train_labels, test_raw, test_labels),
            "flat_accuracy": _held_out_accuracy(
                config, tc, flat_train, train_labels, flat_test, test_labels),
            "n_train": n_train, "n_test": n_test,
            "bags_per_doc": n_bags, "bag_size": bag_size,
            "train_config": tc.__dict__ | {}}


def benchmark_product_task(seed: int = 0, n_train: int = 1500,
                           n_test: int = 500, bag_size: int = 80,
                           train_config: TrainConfig | None = None) -> dict:
    """Joint reasoning over a vector and a bag: the label is the sign
    of x0 flipped by whether bag1's variance parameter sits above 1.5.
    Marginally x0 carries zero information about the label."""
    rng = np.random.default_rng([seed, 44])

    def make_split(n):
        raw, labels, x_labels = [], [], []
        for i in range(n):
            high_var = i % 2
            x0, x1 = rng.normal(0.0, 1.0, 2)
            variance = 2.0 if high_var else 1.0
            doc = {"x0": float(x0), "x1": float(x1),
                   "readings": [float(v) for v in
                                rng.normal(0.0, np.sqrt(variance), bag_size)],
                   "noise": [float(v) for v in
                             rng.normal(0.0, 1.0, bag_size)]}
            raw.append(doc)
            labels.append(1 if x0 * (variance - 1.5) > 0 else 0)
            x_labels.append(1 if x0 > 0 else 0)
        return raw, labels, x_labels

    train_raw, train_labels, train_x_labels = make_split(n_train)
    test_raw, test_labels, test_x_labels = make_split(n_test)
    config = ModelConfig(output_dim=2, seed=int(rng.integers(2**31)))
    tc = train_config or _BENCH_TRAIN
    x_train, x_test = ([{"x0": doc["x0"], "x1": doc["x1"]} for doc in raw]
                       for raw in (train_raw, test_raw))
    return {"joint_accuracy": _held_out_accuracy(
                config, tc, train_raw, train_labels, test_raw, test_labels),
            "x_only_accuracy": _held_out_accuracy(
                config, tc, x_train, train_labels, x_test, test_labels),
            "x_only_on_x_label_accuracy": _held_out_accuracy(
                config, tc, x_train, train_x_labels, x_test, test_x_labels),
            "n_train": n_train, "n_test": n_test, "bag_size": bag_size,
            "train_config": tc.__dict__ | {}}


# ---------------------------------------------------------------------------
# MMD baseline


def _pool(bags) -> np.ndarray:
    if not isinstance(bags, np.ndarray):
        bags = np.vstack([np.asarray(b, dtype=np.float64).reshape(len(b), -1)
                          for b in bags])
    arr = np.asarray(bags, dtype=np.float64)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def mmd_baseline(bags_a, bags_b, kernel_bandwidth: float) -> float:
    """Unbiased MMD^2 between pooled samples under an RBF kernel.

    Diagonals are excluded from every term (including the cross term
    when sample sizes match), so literal duplicates give exactly zero.
    Cost is quadratic in the pooled instance counts, where the network
    embedding is linear; scripts/mmd_scaling.py times the two.
    """
    if not kernel_bandwidth > 0:
        raise ValueError("kernel bandwidth must be positive")
    x, y = _pool(bags_a), _pool(bags_b)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ValueError("the unbiased estimator needs >= 2 points per side")
    scale = -1.0 / (2.0 * kernel_bandwidth ** 2)

    def kernel(u, v):
        d = ((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        return np.exp(scale * d)

    kxx, kyy, kxy = kernel(x, x), kernel(y, y), kernel(x, y)
    t_xx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    t_yy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    if m == n:
        t_xy = (kxy.sum() - np.trace(kxy)) / (m * (m - 1))
    else:
        t_xy = kxy.mean()
    return float(t_xx + t_yy - 2.0 * t_xy)


def check_mmd_baseline(seed: int) -> dict:
    rng = np.random.default_rng([seed, 45])
    same = rng.normal(0.0, 1.0, (500, 1))
    identical = mmd_baseline(same, same, kernel_bandwidth=1.0)
    left = rng.normal(0.0, 1.0, (500, 1))
    right = rng.normal(5.0, 1.0, (500, 1))
    separated = mmd_baseline(left, right, kernel_bandwidth=1.0)
    flipped = mmd_baseline(right, left, kernel_bandwidth=1.0)
    symmetry_gap = abs(separated - flipped)
    passed = (abs(identical) < 1e-12 and separated > 0.5
              and symmetry_gap < 1e-12)
    return {"name": "mmd_baseline", "passed": passed,
            "details": {"identical_value": identical,
                        "separated_value": separated,
                        "separation_bound": 0.5,
                        "symmetry_gap": symmetry_gap,
                        "points_per_side": 500}}


# ---------------------------------------------------------------------------
# suite assembly


def check_variance_task(seed: int) -> dict:
    variance = benchmark_variance_task(seed)
    return {"name": "variance_task",
            "passed": (variance["mil_accuracy"] >= 0.95
                       and variance["mean_baseline_accuracy"] <= 0.55
                       and variance["shuffled_accuracy"] <= 0.55),
            "details": variance | {"mil_bound": 0.95, "control_bound": 0.55}}


def check_nested_task(seed: int) -> dict:
    nested = benchmark_nested_task(seed)
    return {"name": "nested_task",
            "passed": (nested["nested_accuracy"] >= 0.9
                       and nested["flat_accuracy"] <= 0.55),
            "details": nested | {"nested_bound": 0.9, "control_bound": 0.55}}


def check_product_task(seed: int) -> dict:
    product = benchmark_product_task(seed)
    return {"name": "product_task",
            "passed": (product["joint_accuracy"] >= 0.9
                       and abs(product["x_only_accuracy"] - 0.5) <= 0.05
                       and product["x_only_on_x_label_accuracy"] >= 0.95),
            "details": product | {"joint_bound": 0.9,
                                  "control_band": [0.45, 0.55],
                                  "sanity_bound": 0.95}}


# Each suite's check names, in report order.  A name is looked up when
# its check runs, so rebinding it (as a tracer does) reaches this process.
_SUITES = {
    "invariants": ("check_permutation_invariance", "check_dirac_identity",
                   "check_matrix_collapse", "check_gradients",
                   "check_embedding_bounds", "check_pipeline_round_trip"),
    "concentration": ("check_concentration",),
    "benchmarks": ("check_variance_task", "check_nested_task",
                   "check_product_task", "check_mmd_baseline"),
}
_SUITES["all"] = tuple(name for names in _SUITES.values() for name in names)
SUITE_NAMES = tuple(_SUITES)


def _run_checks(names: tuple[str, ...], seed: int) -> list[dict]:
    """Results of the named checks, in order.  With n usable CPUs, this
    process runs ``names[0::n]`` and a child interpreter (or, failing
    that, this process) each other ``names[i::n]``, so a monkeypatch
    reaches only the first share.  A failed child raises
    ``ChildProcessError``; no child outlives the call."""
    affinity = getattr(os, "sched_getaffinity", None)
    n = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(names))
    results, children = [None] * len(names), {}
    if n > 1:  # not at module level: a plain import stays cheap
        import pickle
        import signal
        import subprocess
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        # one BLAS thread in each worker, as hmil.cli sets for itself
        env = {"OPENBLAS_NUM_THREADS": "1", **os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
    try:
        for i in range(1, n):
            code = ("import pickle, signal, sys; signal.signal(signal.SIGINT, "
                    "signal.SIG_IGN); import numpy as np, hmil.verification as "
                    f"v; np.seterr(**{np.geterr()!r}); sys.stdout.buffer.write("
                    f"pickle.dumps([getattr(v, name)({seed!r}) for name in "
                    f"{names[i::n]!r}]))")
            # an interrupt waits until the child is listed for the kill
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                if sys.executable:
                    children[i] = subprocess.Popen(
                        [sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                        stdout=subprocess.PIPE, start_new_session=True, env=env)
            except OSError:
                pass
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for i in range(n):
            if i not in children:
                results[i::n] = [globals()[name](seed) for name in names[i::n]]
                continue
            out = children[i].communicate()[0]
            if children[i].returncode:
                raise ChildProcessError(
                    f"the verify worker running {', '.join(names[i::n])} "
                    f"exited with code {children[i].returncode}")
            results[i::n] = pickle.loads(out)
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    return results


def run_suite(suite: str, seed: int) -> dict:
    """Run one named suite (or all three) and fold the results into a
    single report dict."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    checks = _run_checks(_SUITES[suite], seed)
    return {"suite": suite, "seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def summarize_report(report: dict) -> str:
    """Plain-text table for humans; the JSON report is the artifact."""
    lines = [f"suite: {report['suite']}   seed: {report['seed']}",
             f"{'check':<28} {'result':<8} detail"]
    for check in report["checks"]:
        details = check["details"]
        shown = {k: v for k, v in details.items()
                 if isinstance(v, (int, float)) and not isinstance(v, bool)}
        brief = ", ".join(f"{k}={v:.3g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in list(shown.items())[:4])
        lines.append(f"{check['name']:<28} "
                     f"{'pass' if check['passed'] else 'FAIL':<8} {brief}")
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)
