"""Compile a schema into a hierarchical permutation-invariant network.

Each bag node becomes: a per-instance dense layer, order-insensitive
pooling over every bag's rows, an appended non-empty indicator column,
and a linear map producing the bag embedding.  Each product node
concatenates child outputs plus presence flags for its optional fields
and mixes them with a dense layer.  A two-layer head on the root
representation produces task outputs.

The network has exactly the shape of the schema tree, so the model holds
no tree of its own: ``Model.layers`` is a table of each node's dense
layers keyed by its ``schema.node_paths`` path (plus ``"head"``), and
its forward pass, compiled once with the layers, is one loop over a
step per node, children before parents.

Without a tape, a bag node maps its instances in blocks of whole bags,
each at most ``BLOCK_ACTIVATIONS`` activations (4096 rows at embed_dim
32) unless one bag is larger, so scoring memory is bounded by a block
per bag node plus the chunk's leaf columns, not by chunk x bag size.

The linear map after pooling keeps two facts checkable: an extra
per-instance linear layer before mean pooling folds into it exactly
(``verification.check_matrix_collapse``), and with tanh units every
embedding coordinate obeys the data-independent bound returned by
``embedding_bound``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .batching import RaggedBatch
from .encoding import leaf_width
from .nn import (
    IDENTITY,
    RELU,
    TANH,
    Tape,
    Tensor,
    concat_cols,
    dense_forward,
    segment_max,
    segment_mean,
    uniform_fill,
)
from .schema import (
    Bag,
    Product,
    SchemaError,
    SchemaNode,
    dumps_schema,
    loads_schema,
    node_paths,
)

__all__ = [
    "ModelConfig",
    "Model",
    "ModelError",
    "ModelLoadError",
    "MAX_PARAMS",
    "build_model",
    "forward",
    "forward_with_embeddings",
    "embedding_bound",
    "replacing",
    "save_model",
    "load_model",
]

MAGIC = b"HMIL"
FORMAT_VERSION = 1
# build_model refuses larger models before allocating: 800 MB of float64
# weights, four times that with the gradients and Adam's moments
MAX_PARAMS = 10**8

ACTIVATIONS = (TANH, RELU)
AGGREGATIONS = ("mean", "max", "meanmax")
BLOCK_ACTIVATIONS = 2**17  # per instance block of a forward with no tape


class ModelError(Exception):
    pass


class ModelLoadError(ModelError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    hidden_dim: int = 32
    output_dim: int = 1
    activation: str = TANH
    aggregation: str = "mean"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("embed_dim", 1), ("hidden_dim", 1),
                          ("output_dim", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # a bool is no int
                raise ModelError(f"{name} must be an int >= {low}")
        if self.activation not in ACTIVATIONS:
            raise ModelError(f"unknown activation {self.activation!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ModelError(f"unknown aggregation {self.aggregation!r}")


@dataclass
class Model:
    """A schema and its dense layers.

    ``layers`` maps the path of every bag node to (phi_w, phi_b, post_w,
    post_b), of every product node to (comb_w, comb_b), and ``"head"``
    to (w1, b1, w2, b2), in ``node_paths`` preorder, head last.  Leaves
    hold no parameters and have no entry.

    ``values`` holds every parameter in one float64 vector, in
    ``parameters()`` order and each in C order, and each tensor's
    ``data`` is a view of its slice from the moment the model exists.
    Nothing rebinds a parameter's ``data``: it is written in place.
    ``steps`` is the forward pass, each bag and product node's (path,
    step) in ``_plan`` order; a model built without it cannot run.
    """

    schema: SchemaNode
    config: ModelConfig
    layers: dict[str, tuple[Tensor, ...]]
    values: np.ndarray
    steps: Sequence[tuple[str, Callable]] = ()

    def parameters(self) -> list[Tensor]:
        """Every tensor in ``layers`` order, which ``values`` and the
        container keep."""
        return [p for tensors in self.layers.values() for p in tensors]

    def bag_paths(self) -> list[str]:
        return [path for path, node in node_paths(self.schema)
                if isinstance(node, Bag)]


def _plan(node: SchemaNode, path: str, config: ModelConfig
          ) -> tuple[int, list[tuple[str, list[tuple[int, int]], Callable]]]:
    """Output width of ``node`` and, for each bag and product node in its
    subtree, children first and fields in order, its path, tensor shapes
    (a dense layer's (fan_in, fan_out) weight, then its (1, fan_out)
    bias) and forward step; ``build_model`` draws in this order.

    A bag over a child of width w maps instances through (w, k) and
    [pooled, non-empty] through (A+1, k), where k is embed_dim and A the
    pooled width (k, or 2k for meanmax).  A product over children of
    total width s with q optional fields mixes them through (s+q, h).
    A step pops its children's outputs from ``out``, and it calls the nn
    ops by their names here when it runs, for wrappers bound over them.
    """
    k, h, act = config.embed_dim, config.hidden_dim, config.activation
    if isinstance(node, Bag):
        child, agg = path + "[]", config.aggregation
        width, plan = _plan(node.child, child, config)

        def pool(x, offsets, layers, tape):
            rows = dense_forward(x, *layers[:2], act, tape)
            z = [segment_mean(rows, offsets, tape)] if agg != "max" else []
            return z + ([segment_max(rows, offsets, tape)] if agg != "mean"
                        else [])

        def bag(layers, batch, out, tape, sink):
            x, offsets = out.pop(child), batch.offsets[path]
            # one block with a tape: splitting would reorder its gradient sums
            cuts = (_cuts(offsets, BLOCK_ACTIVATIONS // k) if tape is None
                    and offsets[-1] * k > BLOCK_ACTIVATIONS else ())
            if len(cuts) <= 2:
                z = pool(x, offsets, layers, tape)
            else:  # every bag's rows still pool in order from +0.0
                blocks = [pool(Tensor(x.data[offsets[a]:offsets[b]]),
                               offsets[a:b + 1] - offsets[a], layers, None)
                          for a, b in zip(cuts, cuts[1:])]
                z = [Tensor(np.concatenate([p.data for p in parts]))
                     for parts in zip(*blocks)]
            non_empty = (offsets[1:] > offsets[:-1])[:, None].astype(np.float64)
            z = concat_cols(z + [Tensor(non_empty)], tape)
            sink[path] = dense_forward(z, *layers[2:], IDENTITY, tape)
            return sink[path]
        pooled = 2 * k if agg == "meanmax" else k
        return k, plan + [(path, [(width, k), (1, k), (pooled + 1, k),
                                  (1, k)], bag)]
    if isinstance(node, Product):
        width, plan, children = 0, [], []
        for f in node.fields:
            children.append(f"{path}.{f.name}")
            w, sub = _plan(f.schema, children[-1], config)
            width += w + f.optional  # and its presence column, if any
            plan += sub

        def product(layers, batch, out, tape, sink):
            parts = [*map(out.pop, children), Tensor(batch.presence[path])]
            return dense_forward(concat_cols(parts, tape), *layers, act, tape)
        return h, plan + [(path, [(width, h), (1, h)], product)]
    return leaf_width(node), []


def _cuts(offsets: np.ndarray, limit: int) -> list[int]:
    """Bag indices from 0 to the bag count that cut ``offsets`` into
    consecutive blocks of at most ``limit`` rows, a larger bag alone."""
    cuts, n = [0], offsets.size - 1
    while cuts[-1] < n:
        end = np.searchsorted(offsets, offsets[cuts[-1]] + limit, "right") - 1
        cuts.append(max(int(end), cuts[-1] + 1))
    return cuts


def _layer_plan(schema: SchemaNode, config: ModelConfig) -> tuple[list, int]:
    """``_plan`` of the whole tree followed by the two-layer head, and
    its parameter count.  Raises ModelError past ``MAX_PARAMS``."""
    width, plan = _plan(schema, "$", config)
    h, out = config.hidden_dim, config.output_dim
    plan.append(("head", [(width, h), (1, h), (h, out), (1, out)], None))
    n = sum(rows * cols for _, shapes, _ in plan for rows, cols in shapes)
    if n > MAX_PARAMS:
        raise ModelError(f"model would have {n} parameters, more than "
                         f"the limit of {MAX_PARAMS}")
    return plan, n


def _laid_out(schema: SchemaNode, config: ModelConfig, plan: list, n: int
              ) -> tuple[Model, dict[str, np.ndarray]]:
    """A model of ``plan``'s steps and ``n`` values, not yet written, each
    tensor a view of its slice of ``values`` in ``node_paths`` preorder,
    and each node's block of ``values``: its tensors, in order."""
    shapes, values, at, layers = {p: s for p, s, _ in plan}, np.empty(n), 0, {}
    blocks = {}
    for path in [p for p, _ in node_paths(schema) if p in shapes] + ["head"]:
        tensors, start = [], at
        for rows, cols in shapes[path]:
            tensors.append(Tensor(values[at:at + rows * cols].reshape(rows, cols)))
            at += rows * cols
        layers[path], blocks[path] = tuple(tensors), values[start:at]
    return Model(schema, config, layers, values,
                 [(path, step) for path, _, step in plan[:-1]]), blocks


def build_model(schema: SchemaNode, config: ModelConfig) -> Model:
    """Deterministic compilation: same schema, config, and seed give
    bit-identical initial parameters.  Raises ModelError past
    ``MAX_PARAMS`` parameters."""
    plan, n = _layer_plan(schema, config)
    model, blocks = _laid_out(schema, config, plan, n)
    rng = np.random.default_rng(config.seed)
    for path, _, _ in plan:
        rng.random(out=blocks[path])  # each tensor's own draw, in order
        tensors = model.layers[path]
        for w, b in zip(tensors[::2], tensors[1::2]):
            uniform_fill(w.data)
            # nonzero biases keep all-zero rows off the relu kink, which
            # would break finite-difference checks exactly; fan_in 0
            # happens for products inferred from field-free objects
            uniform_fill(b.data, 1.0 / math.sqrt(max(w.rows, 1)))
    return model


def forward(model: Model, batch: RaggedBatch, tape: Tape | None = None) -> Tensor:
    """Task outputs, one row per document."""
    return forward_with_embeddings(model, batch, tape)[0]


def forward_with_embeddings(model: Model, batch: RaggedBatch,
                            tape: Tape | None = None
                            ) -> tuple[Tensor, dict[str, Tensor]]:
    """Outputs plus every bag node's embedding rows, keyed by node path;
    steps run children first, so each finds its inputs in ``out``."""
    out = {path: Tensor(data) for path, data in batch.data.items()}
    sink: dict[str, Tensor] = {}
    for path, step in model.steps:
        out[path] = step(model.layers[path], batch, out, tape, sink)
    w1, b1, w2, b2 = model.layers["head"]
    h = dense_forward(out["$"], w1, b1, model.config.activation, tape)
    return dense_forward(h, w2, b2, IDENTITY, tape), sink


def embedding_bound(model: Model, path: str) -> np.ndarray:
    """Per-coordinate bound on the bag embedding at ``path``: the
    absolute column sums of the post-pooling weights plus |bias|.

    Holds because every input to that map lies in [-1, 1]: tanh
    outputs, their means and maxes, and the indicator column.  Only
    meaningful for tanh models; relu outputs are unbounded.
    """
    if model.config.activation != TANH:
        raise ModelError("embedding bounds require tanh activation")
    if path not in model.bag_paths():
        raise ModelError(f"no bag node at {path!r}")
    _, _, post_w, post_b = model.layers[path]
    return np.abs(post_w.data).sum(axis=0) + np.abs(post_b.data[0])


@contextlib.contextmanager
def replacing(path: str, mode: str = "w"):
    """A file (text, or bytes under mode "wb") written beside the file
    ``path`` names, which it replaces when the block completes: ``path``
    may be an input still being read, and a failed write leaves the old
    file in place and no partial one.  A device or FIFO (/dev/null) is
    written in place."""
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else os.path.realpath(path)
    tmp, fh = target if in_place else f"{target}.{os.getpid()}.tmp", None
    try:
        # "x": a file already of that name is not this run's to replace
        fh = open(tmp, mode if in_place else mode.replace("w", "x"),
                  encoding=None if "b" in mode else "utf-8")
        with fh:
            yield fh
        if not in_place:
            os.replace(tmp, target)
    finally:
        if fh is not None and not in_place and os.path.exists(tmp):
            os.unlink(tmp)


def save_model(model: Model, path: str, extra: dict | None = None) -> None:
    """Write a self-contained model container.

    Layout: magic "HMIL", u32 format version, then length-prefixed
    canonical schema JSON and config JSON, then a u64 value count and
    ``model.values`` as little-endian float64.  Same model and extra
    give byte-identical files, and a failed write leaves any old file
    at ``path`` as it was (see ``replacing``).
    """
    schema_blob = dumps_schema(model.schema).encode("utf-8")
    config_blob = json.dumps(
        {"model": asdict(model.config), "extra": extra or {}},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(schema_blob)))
        fh.write(schema_blob)
        fh.write(struct.pack("<Q", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<Q", model.values.size))
        fh.write(model.values.astype("<f8", copy=False))


def _read_exact(fh, n: int, what: str) -> bytes:
    # checked before reading: a corrupt length field may exceed any
    # buffer size
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ModelLoadError(f"truncated container: {what}")
    return fh.read(n)


def load_model(path: str) -> tuple[Model, dict]:
    """Read a container written by ``save_model``; returns the model and
    the extra metadata dict."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise ModelLoadError("not a model container (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise ModelLoadError(f"unsupported format version {version}")
        (n,) = struct.unpack("<Q", _read_exact(fh, 8, "schema length"))
        raw = _read_exact(fh, n, "schema")
        try:
            schema = loads_schema(raw.decode("utf-8"))
        except (SchemaError, UnicodeDecodeError) as exc:
            raise ModelLoadError(f"corrupt schema: {exc}") from exc
        (n,) = struct.unpack("<Q", _read_exact(fh, 8, "config length"))
        raw = _read_exact(fh, n, "config")
        try:
            blob = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # includes UnicodeDecodeError
            raise ModelLoadError(f"corrupt config blob: {exc}") from exc
        try:
            config = ModelConfig(**blob["model"])
            extra = blob["extra"]
        except (KeyError, TypeError, ModelError) as exc:
            raise ModelLoadError(f"malformed config blob: {exc}") from exc
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "value count"))
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * 8 > left:
            raise ModelLoadError("truncated container: parameters")
        if count * 8 < left:
            raise ModelLoadError("trailing bytes after parameters")
        try:  # refuses a size past the limit before a count mismatch
            plan, expected = _layer_plan(schema, config)
        except ModelError as exc:
            raise ModelLoadError(str(exc)) from exc
        if count != expected:  # checked before _laid_out allocates
            raise ModelLoadError(
                f"parameter count mismatch: container has {count}, "
                f"schema and config need {expected}")
        model, _ = _laid_out(schema, config, plan, expected)
        if fh.readinto(model.values) != model.values.nbytes:
            raise ModelLoadError("truncated container: parameters")
    if not np.little_endian:  # the container stores little-endian float64
        model.values.byteswap(inplace=True)
    return model, extra
