"""Compile a schema into a hierarchical permutation-invariant network.

Each bag node becomes: a per-instance dense layer, order-insensitive
pooling over every bag's rows, an appended non-empty indicator column,
and a linear map producing the bag embedding.  Each product node
concatenates child outputs plus presence flags for its optional fields
and mixes them with a dense layer.  A two-layer head on the root
representation produces task outputs.

The linear map after pooling keeps two facts checkable: an extra
per-instance linear layer before mean pooling folds into it exactly
(``verification.check_matrix_collapse``), and with tanh units every
embedding coordinate obeys the data-independent bound returned by
``embedding_bound``.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .batching import RaggedBatch
from .encoding import leaf_width
from .nn import (
    IDENTITY,
    RELU,
    TANH,
    Activation,
    Tape,
    Tensor,
    concat_cols,
    dense_forward,
    glorot_uniform,
    segment_max,
    segment_mean,
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
    "embed",
    "embedding_bound",
    "param_count",
    "save_model",
    "load_model",
    "describe_model",
]

MAGIC = b"HMIL"
FORMAT_VERSION = 1
# build_model refuses larger models before allocating: 800 MB of float64
# weights, four times that with the gradients and Adam's moments
MAX_PARAMS = 10**8

_ACTIVATIONS = {"tanh": TANH, "relu": RELU}
_AGGREGATIONS = ("mean", "max", "meanmax")


class ModelError(Exception):
    pass


class ModelLoadError(ModelError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    hidden_dim: int = 32
    output_dim: int = 1
    activation: str = "tanh"
    aggregation: str = "mean"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("embed_dim", 1), ("hidden_dim", 1),
                          ("output_dim", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # a bool is no int
                raise ModelError(f"{name} must be an int >= {low}")
        if self.activation not in tuple(_ACTIVATIONS):
            raise ModelError(f"unknown activation {self.activation!r}")
        if self.aggregation not in _AGGREGATIONS:
            raise ModelError(f"unknown aggregation {self.aggregation!r}")


class LeafNet:
    """Pass-through for encoded leaf matrices; holds no parameters."""

    def __init__(self, path: str, node: SchemaNode):
        self.path = path
        self.node = node
        self.out_dim = leaf_width(node)

    def own_params(self) -> list[Tensor]:
        return []


class BagNet:
    def __init__(self, path: str, child: "Net", phi_w: Tensor, phi_b: Tensor,
                 post_w: Tensor, post_b: Tensor, aggregation: str,
                 activation: Activation):
        self.path = path
        self.child = child
        self.phi_w = phi_w
        self.phi_b = phi_b
        self.post_w = post_w
        self.post_b = post_b
        self.aggregation = aggregation
        self.activation = activation
        self.out_dim = post_w.cols

    def own_params(self) -> list[Tensor]:
        return [self.phi_w, self.phi_b, self.post_w, self.post_b]


class ProductNet:
    def __init__(self, path: str, children: list[tuple[str, "Net"]],
                 n_optional: int, comb_w: Tensor, comb_b: Tensor,
                 activation: Activation):
        self.path = path
        self.children = children
        self.n_optional = n_optional
        self.comb_w = comb_w
        self.comb_b = comb_b
        self.activation = activation
        self.out_dim = comb_w.cols

    def own_params(self) -> list[Tensor]:
        return [self.comb_w, self.comb_b]


Net = Union[LeafNet, BagNet, ProductNet]


class Head:
    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 activation: Activation):
        self.w1 = w1
        self.b1 = b1
        self.w2 = w2
        self.b2 = b2
        self.activation = activation

    def own_params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class Model:
    schema: SchemaNode
    config: ModelConfig
    root: Net
    head: Head

    def nets(self) -> list[Net]:
        """Every node of the net tree in preorder: each node, then its
        children in field order."""
        out: list[Net] = []
        stack: list[Net] = [self.root]
        while stack:
            net = stack.pop()
            out.append(net)
            if isinstance(net, BagNet):
                stack.append(net.child)
            elif isinstance(net, ProductNet):
                stack.extend(child for _, child in reversed(net.children))
        return out

    def parameters(self) -> list[Tensor]:
        """Each node's own tensors in ``nets()`` order, head last.
        Serialization relies on this order."""
        return [p for net in self.nets() for p in net.own_params()] \
            + self.head.own_params()

    def bag_paths(self) -> list[str]:
        return [net.path for net in self.nets() if isinstance(net, BagNet)]


def _agg_width(aggregation: str, embed_dim: int) -> int:
    return 2 * embed_dim if aggregation == "meanmax" else embed_dim


def _bias_init(rng: np.random.Generator, fan_in: int, dim: int) -> Tensor:
    # nonzero biases keep pre-activations of all-zero rows off the relu
    # kink, which would otherwise break finite-difference checks exactly;
    # fan_in 0 happens for products inferred from field-free objects
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, dim))


def _build_net(node: SchemaNode, path: str, config: ModelConfig,
               rng: np.random.Generator, act: Activation) -> Net:
    if isinstance(node, Bag):
        child = _build_net(node.child, path + "[]", config, rng, act)
        k = config.embed_dim
        phi_w = glorot_uniform(rng, child.out_dim, k)
        phi_b = _bias_init(rng, child.out_dim, k)
        agg_dim = _agg_width(config.aggregation, k)
        post_w = glorot_uniform(rng, agg_dim + 1, k)
        post_b = _bias_init(rng, agg_dim + 1, k)
        return BagNet(path, child, phi_w, phi_b, post_w, post_b,
                      config.aggregation, act)
    if isinstance(node, Product):
        children = [(f.name, _build_net(f.schema, f"{path}.{f.name}", config,
                                        rng, act))
                    for f in node.fields]
        n_optional = sum(1 for f in node.fields if f.optional)
        in_dim = sum(c.out_dim for _, c in children) + n_optional
        comb_w = glorot_uniform(rng, in_dim, config.hidden_dim)
        comb_b = _bias_init(rng, in_dim, config.hidden_dim)
        return ProductNet(path, children, n_optional, comb_w, comb_b, act)
    return LeafNet(path, node)


def build_model(schema: SchemaNode, config: ModelConfig) -> Model:
    """Deterministic compilation: same schema, config, and seed give
    bit-identical initial parameters.  Raises ModelError past
    ``MAX_PARAMS`` parameters."""
    n = param_count(schema, config)
    if n > MAX_PARAMS:
        raise ModelError(f"model would have {n} parameters, more than "
                         f"the limit of {MAX_PARAMS}")
    rng = np.random.default_rng(config.seed)
    act = _ACTIVATIONS[config.activation]
    root = _build_net(schema, "$", config, rng, act)
    w1 = glorot_uniform(rng, root.out_dim, config.hidden_dim)
    b1 = _bias_init(rng, root.out_dim, config.hidden_dim)
    w2 = glorot_uniform(rng, config.hidden_dim, config.output_dim)
    b2 = _bias_init(rng, config.hidden_dim, config.output_dim)
    return Model(schema=schema, config=config, root=root,
                 head=Head(w1, b1, w2, b2, act))


def _net_forward(net: Net, batch: RaggedBatch, tape: Tape | None,
                 sink: dict[str, Tensor]) -> Tensor:
    if isinstance(net, LeafNet):
        return Tensor(batch.data[net.path])
    if isinstance(net, BagNet):
        x = _net_forward(net.child, batch, tape, sink)
        h = dense_forward(x, net.phi_w, net.phi_b, net.activation, tape)
        offsets = batch.offsets[net.path]
        if net.aggregation == "mean":
            pooled = segment_mean(h, offsets, tape)
        elif net.aggregation == "max":
            pooled = segment_max(h, offsets, tape)
        else:
            pooled = concat_cols([segment_mean(h, offsets, tape),
                                  segment_max(h, offsets, tape)], tape)
        non_empty = (np.diff(offsets) > 0).astype(np.float64).reshape(-1, 1)
        z = concat_cols([pooled, Tensor(non_empty)], tape)
        e = dense_forward(z, net.post_w, net.post_b, IDENTITY, tape)
        sink[net.path] = e
        return e
    parts = [_net_forward(child, batch, tape, sink)
             for _, child in net.children]
    parts.append(Tensor(batch.presence[net.path]))
    z = concat_cols(parts, tape)
    return dense_forward(z, net.comb_w, net.comb_b, net.activation, tape)


def forward(model: Model, batch: RaggedBatch, tape: Tape | None = None) -> Tensor:
    """Task outputs, one row per document."""
    return forward_with_embeddings(model, batch, tape)[0]


def forward_with_embeddings(model: Model, batch: RaggedBatch,
                            tape: Tape | None = None
                            ) -> tuple[Tensor, dict[str, Tensor]]:
    """Outputs plus every bag node's embedding rows, keyed by node path."""
    sink: dict[str, Tensor] = {}
    rep = _net_forward(model.root, batch, tape, sink)
    h = dense_forward(rep, model.head.w1, model.head.b1,
                      model.head.activation, tape)
    out = dense_forward(h, model.head.w2, model.head.b2, IDENTITY, tape)
    return out, sink


def embed(model: Model, batch: RaggedBatch, path: str) -> np.ndarray:
    """Embedding matrix of the bag node at ``path``, one row per bag."""
    _, sink = forward_with_embeddings(model, batch)
    if path not in sink:
        raise ModelError(f"no bag node at {path!r}; "
                         f"bag paths: {model.bag_paths()}")
    return sink[path].data


def embedding_bound(model: Model, path: str) -> np.ndarray:
    """Per-coordinate bound on the bag embedding at ``path``: the
    absolute column sums of the post-pooling weights plus |bias|.

    Holds because every input to that map lies in [-1, 1]: tanh
    outputs, their means and maxes, and the indicator column.  Only
    meaningful for tanh models; relu outputs are unbounded.
    """
    if model.config.activation != "tanh":
        raise ModelError("embedding bounds require tanh activation")
    net = next((n for n in model.nets()
                if isinstance(n, BagNet) and n.path == path), None)
    if net is None:
        raise ModelError(f"no bag node at {path!r}")
    return np.abs(net.post_w.data).sum(axis=0) + np.abs(net.post_b.data[0])


def param_count(schema: SchemaNode, config: ModelConfig) -> int:
    """Closed-form parameter count of ``build_model(schema, config)``.

    Per bag over a child of width w: w*k + k for the instance layer and
    (A+2)*k for the post-pooling map, where k is embed_dim and A is the
    pooled width (k, or 2k for meanmax).  Per product over children of
    total width s with q optional fields: (s+q+1)*h.  Head over a root
    of width r: (r+1)*h + (h+1)*o.
    """
    k, h, o = config.embed_dim, config.hidden_dim, config.output_dim
    agg = _agg_width(config.aggregation, k)

    def width(node: SchemaNode) -> int:
        if isinstance(node, Bag):
            return k
        if isinstance(node, Product):
            return h
        return leaf_width(node)

    n = 0
    for _, node in node_paths(schema):
        if isinstance(node, Bag):
            n += (width(node.child) + 1) * k + (agg + 2) * k
        elif isinstance(node, Product):
            total = sum(width(f.schema) for f in node.fields)
            q = sum(1 for f in node.fields if f.optional)
            n += (total + q + 1) * h
    return n + (width(schema) + 1) * h + (h + 1) * o


def describe_model(model: Model) -> str:
    """Human-readable table of nodes, their kinds, widths, and sizes."""
    lines = [f"{'node':<40} {'kind':<10} {'out':>5} {'params':>8}"]

    for net in model.nets():
        own = sum(p.data.size for p in net.own_params())
        kind = {LeafNet: "leaf", BagNet: "bag", ProductNet: "product"}[type(net)]
        lines.append(f"{net.path:<40} {kind:<10} {net.out_dim:>5} {own:>8}")
    head_params = sum(p.data.size for p in model.head.own_params())
    lines.append(f"{'(head)':<40} {'head':<10} "
                 f"{model.config.output_dim:>5} {head_params:>8}")
    total = sum(p.data.size for p in model.parameters())
    lines.append(f"{'total':<40} {'':<10} {'':>5} {total:>8}")
    return "\n".join(lines)


def save_model(model: Model, path: str, extra: dict | None = None) -> None:
    """Write a self-contained model container.

    Layout: magic "HMIL", u32 format version, then length-prefixed
    canonical schema JSON and config JSON, then a u64 value count and
    the parameters as little-endian float64 in ``parameters()`` order.
    Same model and extra give byte-identical files.
    """
    schema_blob = dumps_schema(model.schema).encode("utf-8")
    config_blob = json.dumps(
        {"model": asdict(model.config), "extra": extra or {}},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    values = np.concatenate(
        [p.data.reshape(-1) for p in model.parameters()]) \
        if model.parameters() else np.empty(0)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(schema_blob)))
        fh.write(schema_blob)
        fh.write(struct.pack("<Q", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<Q", values.size))
        fh.write(values.astype("<f8").tobytes())


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
        values = np.frombuffer(
            _read_exact(fh, count * 8, "parameters"), dtype="<f8")
        if fh.read(1):
            raise ModelLoadError("trailing bytes after parameters")
    try:
        model = build_model(schema, config)
    except ModelError as exc:
        raise ModelLoadError(str(exc)) from exc
    params = model.parameters()
    expected = sum(p.data.size for p in params)
    if count != expected:
        raise ModelLoadError(
            f"parameter count mismatch: container has {count}, "
            f"schema and config need {expected}")
    pos = 0
    for p in params:
        size = p.data.size
        p.data = values[pos:pos + size].reshape(p.data.shape).copy()
        pos += size
    return model, extra
