"""Dense 2-D float64 tensors with a reverse-mode gradient tape.

Only the handful of operations the bag/product architectures need:
dense layers, segment aggregation over contiguous row ranges, column
concatenation, and Adam. Everything is float64 and single-threaded.
An activation is named by a string, one of ``TANH``, ``RELU`` and
``IDENTITY``.

A tensor wraps its input array without copying it when that array is
already float64, and gradients pass between ops uncopied, so ops never
mutate their inputs or the upstream gradient: parameters are updated
only through ``adam_step``. A dense layer adds its bias and applies its
activation in place to its own matmul product, so each call allocates
one output-sized array, forward and backward. A segment mean two or
more columns wide pools in one numpy pass, a reshaped sum when every
segment has one non-zero length and a weighted ``np.bincount`` over
(segment, column) bins otherwise; either adds each column's rows in
order from +0.0. ``uniform_fill`` draws initial parameters in place, and Adam
updates the parameter vector (``model.Model.values``) and its two moments
in place in one pass, from the gradient ``flat_gradient`` lays out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "TANH",
    "RELU",
    "IDENTITY",
    "activate",
    "ShapeError",
    "OffsetError",
    "dense_forward",
    "segment_mean",
    "segment_max",
    "concat_cols",
    "backward",
    "flat_gradient",
    "AdamState",
    "adam_step",
    "uniform_fill",
]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class OffsetError(ValueError):
    """Segment offsets are malformed."""


class Tensor:
    """A dense row-major matrix of 64-bit floats.

    1-D input is promoted to a single row so biases can be written as
    plain lists. Hashable by identity; gradient dictionaries key on it.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensor must be 2-D, got shape {arr.shape}")
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor({self.rows}x{self.cols})"


TANH, RELU, IDENTITY = "tanh", "relu", "identity"


def activate(act: str, z: np.ndarray) -> np.ndarray:
    """``act`` applied element-wise to ``z``, which it overwrites and
    returns, so callers pass an array of their own.  ``IDENTITY`` is for
    linear maps and tests only; ``model.ModelConfig`` refuses it."""
    if act == TANH:
        return np.tanh(z, out=z)
    if act == RELU:
        return np.maximum(z, 0.0, out=z)
    if act == IDENTITY:
        return z
    raise ValueError(f"unknown activation {act!r}")


class _Node:
    __slots__ = ("out", "parents", "backward_fn")

    def __init__(self, out, parents, backward_fn):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of ops; replaying it in reverse yields gradients.

    Nodes are appended in execution order, so every node's inputs precede
    it and one reverse sweep is a valid backward pass.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def record(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> None:
        """Register ``out = op(*parents)``.

        ``backward_fn`` maps the upstream gradient (ndarray shaped like
        ``out``) to one gradient ndarray per parent, in order.
        """
        self.nodes.append(_Node(out, parents, backward_fn))


def dense_forward(x: Tensor, w: Tensor, b: Tensor | None, act: str,
                  tape: Tape | None = None) -> Tensor:
    """``act(x @ w + b)`` with the op recorded on ``tape`` if given.

    ``b`` is a single row broadcast over the batch, or None for a purely
    linear map (the finite-difference gradient check uses one to reduce
    the outputs to a scalar loss).
    """
    if x.cols != w.rows:
        raise ShapeError(f"dense: x is {x.shape}, w is {w.shape}")
    if b is not None and b.shape != (1, w.cols):
        raise ShapeError(f"dense: bias is {b.shape}, expected (1, {w.cols})")
    z = x.data @ w.data
    if b is not None:
        z += b.data
    y = activate(act, z)
    out = Tensor(y)
    if tape is not None:
        parents = (x, w) if b is None else (x, w, b)

        def bwd(g: np.ndarray) -> list[np.ndarray]:
            if act == TANH:  # g * (1 - y * y), in one buffer
                gz = y * y
                np.subtract(1.0, gz, out=gz)
                gz *= g
            else:  # y > 0 exactly where z > 0; a bool multiplies as 1 or 0
                gz = g if act == IDENTITY else g * (y > 0.0)
            grads = [gz @ w.data.T, x.data.T @ gz]
            if b is not None:
                grads.append(gz.sum(axis=0, keepdims=True))
            return grads

        tape.record(out, parents, bwd)
    return out


def _check_offsets(offsets, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets as int64, and the row count of each segment."""
    offs = np.asarray(offsets, dtype=np.int64)
    # length 1 is legal: zero segments, as in a batch of zero documents
    if offs.ndim != 1 or offs.size < 1:
        raise OffsetError(f"offsets must be a 1-D array of length >= 1, got {offs.shape}")
    if offs[0] != 0:
        raise OffsetError(f"offsets must start at 0, got {offs[0]}")
    if offs[-1] != n_rows:
        raise OffsetError(f"offsets must end at the row count {n_rows}, got {offs[-1]}")
    counts = offs[1:] - offs[:-1]
    if (counts < 0).any():
        raise OffsetError("offsets must be non-decreasing")
    return offs, counts


def segment_mean(instances: Tensor, offsets, tape: Tape | None = None) -> Tensor:
    """Row ``b`` = mean of instance rows ``offsets[b]:offsets[b+1]``.

    An empty segment yields a zero row (the model appends a presence
    indicator so downstream layers can tell empty from mean-zero).
    """
    offs, counts = _check_offsets(offsets, instances.rows)
    x = instances.data
    n, d = counts.size, x.shape[1]
    if d == 1:
        # numpy sums a single column of 8 rows or more pairwise, not in
        # row order, so this width keeps its own sum per segment
        out_data = np.zeros((n, 1))
        for i in np.flatnonzero(counts):
            out_data[i] = x[offs[i]:offs[i + 1]].sum(axis=0) / counts[i]
    elif n and counts[0] and (counts == counts[0]).all():
        # a sum over the middle axis adds whole rows in order; adding
        # +0.0 makes an all -0.0 sum +0.0, whatever numpy starts it from
        out_data = x.reshape(n, counts[0], d).sum(axis=1)
        out_data += 0.0
        out_data /= counts[0]
    else:
        # bincount adds each bin's weights in order, from +0.0; with no
        # rows it returns int64 zeros, which the division makes floats
        bins = np.repeat(np.arange(0, n * d, d), counts)[:, None] + np.arange(d)
        out_data = (np.bincount(bins.ravel(), x.ravel(), n * d).reshape(n, d)
                    / np.maximum(counts, 1)[:, None])
    out = Tensor(out_data)
    if tape is not None:

        def bwd(g: np.ndarray) -> list[np.ndarray]:
            per_row = g / np.maximum(counts, 1)[:, None]
            return [np.repeat(per_row, counts, axis=0)]

        tape.record(out, (instances,), bwd)
    return out


def segment_max(instances: Tensor, offsets, tape: Tape | None = None) -> Tensor:
    """Element-wise max per segment; empty segments yield zero rows.

    Backward routes each column's gradient to the first row attaining
    the max (deterministic subgradient on ties).
    """
    offs, counts = _check_offsets(offsets, instances.rows)
    x = instances.data
    live = counts > 0
    starts = offs[:-1][live]
    # the first row attaining each column's max (or its first NaN, which
    # the max propagates), as argmax finds it; the output is read from
    # that row, since on a +0/-0 tie np.maximum keeps the later operand
    top = np.repeat(np.maximum.reduceat(x, starts, axis=0), counts[live],
                    axis=0)
    rows = np.arange(x.shape[0])[:, None]
    hit = np.where((x == top) | np.isnan(x), rows, x.shape[0])
    argmaxes = np.minimum.reduceat(hit, starts, axis=0)
    cols = np.arange(instances.cols)
    out_data = np.zeros((counts.size, instances.cols))
    out_data[live] = x[argmaxes, cols]
    out = Tensor(out_data)
    if tape is not None:

        def bwd(g: np.ndarray) -> list[np.ndarray]:
            # no two segments or columns share a target, so one scatter
            # adds each once; adding to +0.0 keeps a -0.0 gradient +0.0
            gx = np.zeros_like(x)
            gx[argmaxes, cols] += g[live]
            return [gx]

        tape.record(out, (instances,), bwd)
    return out


def concat_cols(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Concatenate tensors with equal row counts along columns."""
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise ShapeError(
                f"concat: row counts differ, {p.shape} vs ({rows}, ...)")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None:
        widths = [p.cols for p in parts]

        def bwd(g: np.ndarray) -> list[np.ndarray]:
            grads = []
            at = 0
            for w in widths:
                grads.append(g[:, at:at + w])
                at += w
            return grads

        tape.record(out, tuple(parts), bwd)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Gradients of the scalar ``loss`` w.r.t. every tensor on the tape.

    One reverse sweep over the recorded nodes; fan-out accumulates by
    addition. Returns a dict keyed by tensor identity.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar, got {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((1, 1))}
    for node in reversed(tape.nodes):
        g = grads.get(node.out)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg
    return grads


def flat_gradient(grads: dict[Tensor, np.ndarray],
                  params: list[Tensor]) -> np.ndarray:
    """The gradients of ``params`` as one flat vector, each in C order
    and in their order, zero for a tensor the tape never reached."""
    return np.concatenate([grads[p].ravel() if p in grads
                           else np.zeros(p.data.size) for p in params])


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's defaults


@dataclass
class AdamState:
    """First/second moments, each shaped like the parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(values: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = 1e-3) -> None:
    """One Adam update with bias correction, in place on the flat
    parameter vector ``values``, from ``grad`` laid out the same way."""
    if not values.shape == grad.shape == state.m.shape:
        raise ShapeError("adam: values, grad and moments differ in shape")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    values -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def uniform_fill(rng: np.random.Generator | None, out: np.ndarray,
                 limit: float | None = None) -> np.ndarray:
    """``out``, overwritten with the bytes ``rng.uniform(-limit, limit,
    out.shape)`` returns; by default Glorot's limit, sqrt(6 / sum(shape)).
    With ``rng`` None, ``out`` already holds the draw of ``rng.random``."""
    limit = math.sqrt(6.0 / sum(out.shape)) if limit is None else limit
    if rng is not None:
        rng.random(out=out)
    out *= limit - -limit  # uniform's low + range * u: IEEE + and * commute
    out += -limit
    return out
