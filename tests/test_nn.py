import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hmil.nn import (
    IDENTITY,
    RELU,
    TANH,
    AdamState,
    OffsetError,
    ShapeError,
    Tape,
    Tensor,
    activate,
    adam_step,
    backward,
    concat_cols,
    dense_forward,
    flat_gradient,
    segment_max,
    segment_mean,
)
from hmil.training import loss_mse, loss_softmax_ce


def fd_grad(f, arr, eps=1e-5):
    """Central-difference gradient of scalar f() w.r.t. the entries of arr.

    Independent oracle: perturbs raw array entries and re-runs the
    forward closure, never touching the tape.
    """
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = arr[ix]
        arr[ix] = orig + eps
        hi = f()
        arr[ix] = orig - eps
        lo = f()
        arr[ix] = orig
        g[ix] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def rel_err(a, b):
    """Max element-wise relative error with a small denominator floor."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float(np.max(np.abs(a - b) / denom))


class TestDenseForward:
    def test_identity_weights(self):
        out = dense_forward(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)),
                            Tensor([0.0, 0.0]), IDENTITY)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_relu_clips_negative(self):
        out = dense_forward(Tensor([[-1.0, 1.0]]), Tensor(np.eye(2)),
                            Tensor([0.0, 0.0]), RELU)
        np.testing.assert_array_equal(out.data, [[0.0, 1.0]])

    def test_tanh_scalar(self):
        # tanh(0.5 * 2 + 1) = tanh(2); oracle value from math.tanh
        out = dense_forward(Tensor([[0.5]]), Tensor([[2.0]]), Tensor([1.0]), TANH)
        assert out.data[0, 0] == pytest.approx(0.9640275800758169, abs=1e-12)
        assert out.data[0, 0] == pytest.approx(math.tanh(2.0), abs=1e-15)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            dense_forward(Tensor([[1.0, 2.0]]), Tensor([[1.0]]), None, IDENTITY)
        assert "(1, 2)" in str(exc.value) and "(1, 1)" in str(exc.value)

    def test_bias_optional(self):
        out = dense_forward(Tensor([[2.0]]), Tensor([[3.0]]), None, IDENTITY)
        assert out.data[0, 0] == 6.0

    def test_tanh_output_in_open_unit_interval(self):
        # float64 tanh saturates to exactly +/-1 for |z| > ~19, so the
        # strict bound is asserted on the representable range.
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(40, 6)))
        w = Tensor(rng.normal(size=(6, 5)))
        b = Tensor(rng.normal(size=(1, 5)))
        z = x.data @ w.data + b.data
        assert np.all(np.abs(z) < 18)
        out = dense_forward(x, w, b, TANH)
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)


DENSE_POOL = [-0.0, 0.0, 0.5, -1.0, 3.0, np.nan, np.inf, -np.inf,
              8e307, -8e307, 1e308, -1e308]
OUT_OF_PLACE = {TANH: np.tanh, RELU: lambda v: np.maximum(v, 0.0),
                IDENTITY: lambda v: v}


@pytest.mark.parametrize("act", [TANH, RELU, IDENTITY])
def test_activate_overwrites_and_returns_its_argument(act):
    # a matmul sums from +0.0, so only here does -0.0 reach an activation
    z = np.random.default_rng(37).choice(DENSE_POOL, size=(16, 12))
    before = z.copy()
    with np.errstate(all="ignore"):
        want = OUT_OF_PLACE[act](before.copy())
        got = activate(act, z)
    assert got is z
    assert_same_bits(got, want)
    # the relu backward reads its mask from the output
    np.testing.assert_array_equal(got > 0.0, before > 0.0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("act", [TANH, RELU, IDENTITY])
def test_dense_matches_the_out_of_place_formulas(act, seed):
    """The output and the three gradients equal, bit for bit, the plain
    out-of-place expressions ``act(x @ w + b)``, ``g * (1 - y * y)`` and
    ``g * (z > 0)`` evaluated on copies, with pre-activations holding
    zeros, NaN, +/-inf and finite values near +/-1e308."""
    rng = np.random.default_rng(seed)
    x, w, b, g = (rng.choice(DENSE_POOL, size=shape)
                  for shape in ((64, 2), (2, 6), (1, 6), (64, 6)))
    w[:, 0], b[0, 0] = 1.0, 0.0  # column 0 of rows 0-1 is +/-1.6e308
    x[:2] = [[8e307, 8e307], [-8e307, -8e307]]
    with np.errstate(all="ignore"):
        z = x.copy() @ w.copy() + b.copy()
        y = OUT_OF_PLACE[act](z)
        gz = g if act == IDENTITY else g * (
            1.0 - y * y if act == TANH else z > 0.0)
        want = [y, gz @ w.T, x.T @ gz, gz.sum(axis=0, keepdims=True)]
        tape = Tape()
        out = dense_forward(Tensor(x), Tensor(w), Tensor(b), act, tape)
        got = [out.data, *tape.nodes[-1].backward_fn(g)]
    finite = z[np.isfinite(z)]
    assert np.isnan(z).any() and np.isposinf(z).any() and np.isneginf(z).any()
    assert (finite == 0.0).any()
    assert (finite > 1e308).any() and (finite < -1e308).any()
    for a, want_a in zip(got, want):
        assert_same_bits(a, want_a)


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` beyond what was live at
    its start; tracemalloc counts numpy's array buffers."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestDenseAllocation:
    """A dense layer writes one output-sized array, forward and
    backward: bias, activation and the tanh derivative run in place."""

    ROWS, COLS = 4096, 32
    BOUND = 1.5 * ROWS * COLS * 8

    def inputs(self):
        rng = np.random.default_rng(31)
        return (Tensor(rng.normal(size=(self.ROWS, 1))),
                Tensor(rng.normal(size=(1, self.COLS))),
                Tensor(rng.normal(size=(1, self.COLS))))

    @pytest.mark.parametrize("act", [TANH, RELU])
    def test_forward_peaks_at_one_output(self, act):
        x, w, b = self.inputs()
        assert _traced_peak(lambda: dense_forward(x, w, b, act)) < self.BOUND

    @pytest.mark.parametrize("act", [TANH, RELU])
    def test_backward_peaks_at_one_output(self, act):
        x, w, b = self.inputs()
        tape = Tape()
        out = dense_forward(x, w, b, act, tape)
        g = np.ones(out.shape)
        peak = _traced_peak(lambda: tape.nodes[-1].backward_fn(g))
        assert peak < self.BOUND


class TestSegmentMean:
    def test_mean_of_two_rows(self):
        out = segment_mean(Tensor([[1.0, 3.0], [3.0, 5.0]]), [0, 2])
        np.testing.assert_array_equal(out.data, [[2.0, 4.0]])

    def test_singleton_is_identity(self):
        out = segment_mean(Tensor([[7.0, 7.0]]), [0, 1])
        np.testing.assert_array_equal(out.data, [[7.0, 7.0]])

    def test_empty_segment_yields_zero_row(self):
        out = segment_mean(Tensor([[1.0, 1.0], [2.0, 2.0]]), [0, 0, 2])
        np.testing.assert_array_equal(out.data, [[0.0, 0.0], [1.5, 1.5]])

    @pytest.mark.parametrize("offsets", [[1, 2], [0, 1], [0, 3, 2], [0]])
    def test_malformed_offsets(self, offsets):
        with pytest.raises(OffsetError):
            segment_mean(Tensor([[1.0], [2.0], [3.0]]), offsets)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(1, 12)
            k = rng.integers(1, 5)
            a = rng.normal(size=(n, k))
            b = rng.normal(size=(n, k))
            alpha, beta = rng.normal(size=2)
            cuts = np.sort(rng.integers(0, n + 1, size=3))
            offsets = np.concatenate([[0], cuts, [n]])
            lhs = segment_mean(Tensor(alpha * a + beta * b), offsets).data
            rhs = (alpha * segment_mean(Tensor(a), offsets).data
                   + beta * segment_mean(Tensor(b), offsets).data)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)


class TestSegmentMax:
    def test_elementwise_max(self):
        out = segment_max(Tensor([[1.0, 5.0], [3.0, 2.0]]), [0, 2])
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_singleton(self):
        out = segment_max(Tensor([[-1.0, -2.0]]), [0, 1])
        np.testing.assert_array_equal(out.data, [[-1.0, -2.0]])

    def test_empty_bag_convention(self):
        out = segment_max(Tensor(np.empty((0, 3))), [0, 0])
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])


def ref_segment_mean(x, offsets, g):
    """The per-segment loop that pooled before the row sweep: ``.sum`` of
    each segment's slice, and the upstream gradient spread evenly."""
    counts = np.diff(offsets)
    out = np.zeros((counts.size, x.shape[1]))
    for i in range(counts.size):
        if counts[i] > 0:
            out[i] = x[offsets[i]:offsets[i + 1]].sum(axis=0) / counts[i]
    gx = np.repeat(g / np.maximum(counts, 1)[:, None], counts, axis=0)
    return out, gx


def ref_segment_max(x, offsets, g):
    """The per-segment argmax loop: the output and the upstream gradient
    both go through each column's first maximal row."""
    counts = np.diff(offsets)
    cols = np.arange(x.shape[1])
    out = np.zeros((counts.size, x.shape[1]))
    gx = np.zeros_like(x)
    for i in range(counts.size):
        if counts[i] > 0:
            seg = x[offsets[i]:offsets[i + 1]]
            idx = seg.argmax(axis=0)
            out[i] = seg[idx, cols]
            gx[offsets[i] + idx, cols] += g[i]
    return out, gx


# value pools: spread magnitudes (the sum order shows in the last bits),
# exact ties with both signed zeros, and non-finite values
POOLS = {"ties": [-1.0, -0.0, 0.0, 0.5, 1.0],
         "nonfinite": [-0.0, 0.0, 1.0, np.nan, np.inf, -np.inf]}


def draw(rng, pool, shape):
    if pool == "spread":
        return rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
    return rng.choice(POOLS[pool], size=shape)


def assert_same_bits(got, want):
    """Byte equality, except that a NaN need only be a NaN: its sign bit
    depends on the order in which numpy combined the operands."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


# segments all of one non-zero length take segment_mean's reshape form,
# any other mix at width 2 or more its bincount form
@given(width=st.sampled_from([1, 2]) | st.integers(1, 40),
       counts=(st.lists(st.integers(0, 20), max_size=8)
               | st.builds(lambda n, size: [n] * size,
                           st.integers(0, 20), st.integers(1, 8))),
       pool=st.sampled_from(["spread", "ties", "nonfinite"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(width=3, counts=[], pool="spread", seed=0)
@example(width=1, counts=[0, 0, 0], pool="spread", seed=0)
@example(width=3, counts=[0, 0, 0], pool="spread", seed=0)
# seed 2 draws -0.0 in both rows of the first segment's second column
@example(width=2, counts=[2, 2, 2], pool="ties", seed=2)
@example(width=1, counts=[9, 0, 17], pool="spread", seed=1)
@example(width=40, counts=[2, 0, 5], pool="ties", seed=2)
def test_pooling_matches_the_segment_loops(width, counts, pool, seed):
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    x = draw(rng, pool, (int(offsets[-1]), width))
    g = draw(rng, "ties" if seed % 2 else "spread", (len(counts), width))
    for op, ref in ((segment_mean, ref_segment_mean),
                    (segment_max, ref_segment_max)):
        with np.errstate(invalid="ignore"):
            tape = Tape()
            out = op(Tensor(x), offsets, tape)
            (gx,) = tape.nodes[-1].backward_fn(g)
            want_out, want_gx = ref(x, offsets, g)
        assert_same_bits(out.data, want_out)
        assert_same_bits(gx, want_gx)


class TestBackward:
    def test_linear_chain_rule(self):
        x, w = Tensor([[1.0]]), Tensor([[3.0]])
        tape = Tape()
        loss = dense_forward(x, w, None, IDENTITY, tape)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[w], [[1.0]])
        np.testing.assert_array_equal(grads[x], [[3.0]])

    def test_mean_backward_splits_evenly(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        ones = Tensor([[1.0], [1.0]])
        tape = Tape()
        pooled = segment_mean(x, [0, 2], tape)
        loss = dense_forward(pooled, ones, None, IDENTITY, tape)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x], [[0.5, 0.5], [0.5, 0.5]])

    def test_max_backward_routes_to_first_argmax(self):
        x = Tensor([[2.0], [2.0], [1.0]])
        tape = Tape()
        pooled = segment_max(x, [0, 3], tape)
        grads = backward(tape, pooled)
        np.testing.assert_array_equal(grads[x], [[1.0], [0.0], [0.0]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]])
        tape = Tape()
        out = dense_forward(x, Tensor(np.eye(2)), None, IDENTITY, tape)
        with pytest.raises(ShapeError):
            backward(tape, out)

    def test_fanout_accumulates(self):
        x = Tensor([[1.0]])
        two, three = Tensor([[2.0]]), Tensor([[3.0]])
        tape = Tape()
        a = dense_forward(x, two, None, IDENTITY, tape)
        b = dense_forward(x, three, None, IDENTITY, tape)
        loss = dense_forward(concat_cols([a, b], tape),
                             Tensor([[1.0], [1.0]]), None, IDENTITY, tape)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x], [[5.0]])


class TestGradientVsFiniteDifferences:
    """Randomized finite-difference checks for every op, 100+ cases.

    Each case scalarizes by mean-pooling a single output column, so the
    tape under test and the fd oracle share only the forward closure.
    """

    def test_dense_tanh_many_shapes(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(60):
            n, d, k = (int(v) for v in rng.integers(1, 7, size=3))
            x = Tensor(rng.normal(size=(n, d)))
            w = Tensor(rng.normal(size=(d, k)))
            b = Tensor(rng.normal(size=(1, k)))
            ones = Tensor(np.ones((k, 1)))

            def run():
                h = dense_forward(x, w, b, TANH)
                col = dense_forward(h, ones, None, IDENTITY)
                return segment_mean(col, [0, n]).data[0, 0]

            tape = Tape()
            h = dense_forward(x, w, b, TANH, tape)
            col = dense_forward(h, ones, None, IDENTITY, tape)
            loss = segment_mean(col, [0, n], tape)
            grads = backward(tape, loss)
            for t in (x, w, b):
                worst = max(worst, rel_err(grads[t], fd_grad(run, t.data)))
        assert worst < 1e-4

    def test_segment_ops_many_shapes(self):
        rng = np.random.default_rng(456)
        worst = 0.0
        for case in range(50):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, 4))
            x = Tensor(rng.normal(size=(n, k)) * 2)
            cuts = np.sort(rng.integers(0, n + 1, size=2))
            offsets = np.concatenate([[0], cuts, [n]])
            w = Tensor(rng.normal(size=(k, 1)))
            agg = segment_mean if case % 2 == 0 else segment_max

            def run():
                pooled = agg(x, offsets)
                col = dense_forward(pooled, w, None, IDENTITY)
                return segment_mean(col, [0, col.rows]).data[0, 0]

            tape = Tape()
            pooled = agg(x, offsets, tape)
            col = dense_forward(pooled, w, None, IDENTITY, tape)
            loss = segment_mean(col, [0, col.rows], tape)
            grads = backward(tape, loss)
            worst = max(worst, rel_err(grads[x], fd_grad(run, x.data)))
            worst = max(worst, rel_err(grads[w], fd_grad(run, w.data)))
        assert worst < 1e-4

    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(789)
        x = Tensor(rng.normal(size=(5, 3)) + 3.0 * np.sign(rng.normal(size=(5, 3))))
        w = Tensor(np.eye(3))
        tape = Tape()
        h = dense_forward(x, w, None, RELU, tape)
        col = dense_forward(h, Tensor(np.ones((3, 1))), None, IDENTITY, tape)
        total = segment_mean(col, [0, 5], tape)
        grads = backward(tape, total)

        def run():
            h = dense_forward(x, w, None, RELU)
            col = dense_forward(h, Tensor(np.ones((3, 1))), None, IDENTITY)
            return segment_mean(col, [0, 5]).data[0, 0]

        assert rel_err(grads[x], fd_grad(run, x.data)) < 1e-4


def _adam_state(size):
    return AdamState(np.zeros(size), np.zeros(size))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        values = np.array([1.0, -2.0])
        adam_step(values, np.zeros(2), _adam_state(2), lr=0.1)
        np.testing.assert_array_equal(values, [1.0, -2.0])

    def test_single_step_hand_value(self):
        # m-hat = v-hat = 1 after one unit-gradient step, so the update is
        # lr / (1 + eps); hand-evaluated: -0.09999999900000002
        values = np.zeros(1)
        adam_step(values, np.ones(1), _adam_state(1), lr=0.1)
        assert values[0] == pytest.approx(-0.09999999900000002, abs=1e-15)

    def test_identical_params_get_identical_updates(self):
        values = np.array([0.3, 0.3])
        adam_step(values, np.array([0.7, 0.7]), _adam_state(2), lr=0.01)
        assert values[0] == values[1]

    def test_state_length_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(2), np.zeros(2), _adam_state(1))
        with pytest.raises(ShapeError):
            adam_step(np.zeros(1), np.zeros(2), _adam_state(1))


def test_flat_gradient_lays_out_params_in_order_with_zeros_for_the_unseen():
    params = [Tensor(np.ones((2, 3))), Tensor([[5.0]]), Tensor([[1.0, 2.0]])]
    grads = {params[0]: np.arange(6.0).reshape(2, 3),
             params[2]: np.array([[7.0, 8.0]])}
    np.testing.assert_array_equal(flat_gradient(grads, params),
                                  [0, 1, 2, 3, 4, 5, 0, 7, 8])


def test_fused_adam_matches_a_per_parameter_update():
    rng = np.random.default_rng(17)
    shapes = [(3, 4), (1, 4), (1, 1), (5, 2), (2, 7)]
    start = [rng.normal(size=shape) for shape in shapes]
    params = [Tensor(a) for a in start]
    values = np.concatenate([a.ravel() for a in start])
    state = _adam_state(values.size)
    ref_p, ref_m, ref_v = start, [np.zeros(s) for s in shapes], \
        [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = [draw(rng, "ties" if t % 2 else "spread", s) for s in shapes]
        adam_step(values, flat_gradient(dict(zip(params, grads)), params),
                  state, lr=0.01)
        # the update as written per parameter before it was fused
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for i, g in enumerate(grads):
            ref_m[i] = 0.9 * ref_m[i] + (1.0 - 0.9) * g
            ref_v[i] = 0.999 * ref_v[i] + (1.0 - 0.999) * g * g
            ref_p[i] = ref_p[i] - 0.01 * (ref_m[i] / c1) / (
                np.sqrt(ref_v[i] / c2) + 1e-8)
        assert values.tobytes() == np.concatenate(
            [p.ravel() for p in ref_p]).tobytes()
    assert state.step == 5
    assert state.m.tobytes() == np.concatenate(
        [m.ravel() for m in ref_m]).tobytes()
    assert state.v.tobytes() == np.concatenate(
        [v.ravel() for v in ref_v]).tobytes()


def _dense(act):
    def case(rng):
        # signed zeros make some pre-activations exactly zero
        arrays = [rng.choice(DENSE_POOL[:5], size=shape)
                  for shape in ((5, 3), (3, 4), (1, 4))]
        return arrays, lambda tape: dense_forward(
            *(Tensor(a) for a in arrays), act, tape)
    return case


def _segment(op):
    def case(rng):
        arrays = [rng.choice([-0.0, 0.0, 1.0, 2.0], size=(6, 3)),
                  np.array([0, 2, 2, 6])]
        return arrays, lambda tape: op(Tensor(arrays[0]), arrays[1], tape)
    return case


def _concat(rng):
    arrays = [rng.normal(size=(4, 2)), rng.normal(size=(4, 1))]
    return arrays, lambda tape: concat_cols([Tensor(a) for a in arrays], tape)


def _softmax_ce(rng):
    arrays = [rng.normal(size=(4, 3)), np.array([0, 2, 1, 2])]
    return arrays, lambda tape: loss_softmax_ce(Tensor(arrays[0]), arrays[1],
                                                tape)


def _mse(rng):
    arrays = [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))]
    return arrays, lambda tape: loss_mse(Tensor(arrays[0]), arrays[1], tape)


class TestNoMutation:
    """A tensor shares the array it wraps, so no op may write to its
    inputs, forward or backward, nor to the upstream gradient."""

    @pytest.mark.parametrize("case", [
        _dense(TANH), _dense(RELU), _dense(IDENTITY), _segment(segment_mean),
        _segment(segment_max), _concat, _softmax_ce, _mse],
        ids=["dense-tanh", "dense-relu", "dense-identity", "segment-mean",
             "segment-max", "concat", "softmax-ce", "mse"])
    def test_op_leaves_inputs_and_gradient_alone(self, case):
        rng = np.random.default_rng(23)
        arrays, run = case(rng)
        before = [a.copy() for a in arrays]
        tape = Tape()
        out = run(tape)
        g = rng.normal(size=out.shape)
        g_before = g.copy()
        tape.nodes[-1].backward_fn(g)
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()
        assert g.tobytes() == g_before.tobytes()

    def test_backward_leaves_every_tensor_alone(self):
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(6, 3)))
        w1, b1 = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4))
        w2 = Tensor(rng.normal(size=(9, 3)))
        tape = Tape()
        h = dense_forward(x, w1, b1, TANH, tape)
        pooled = concat_cols([segment_mean(h, [0, 2, 6], tape),
                              segment_max(h, [0, 2, 6], tape),
                              Tensor(np.ones((2, 1)))], tape)
        loss = loss_softmax_ce(dense_forward(pooled, w2, None, RELU, tape),
                               np.array([0, 2]), tape)
        seen = {id(t): t for node in tape.nodes for t in (node.out, *node.parents)}
        before = {key: t.data.copy() for key, t in seen.items()}
        backward(tape, loss)
        for key, t in seen.items():
            assert t.data.tobytes() == before[key].tobytes()


def test_tensor_wraps_floats_and_converts_ints_and_lists():
    floats = np.ones((2, 3))
    assert np.shares_memory(Tensor(floats).data, floats)
    ints = np.array([[1, 2], [3, 4]])
    t = Tensor(ints)
    assert t.data.dtype == np.float64 and not np.shares_memory(t.data, ints)
    np.testing.assert_array_equal(t.data, [[1.0, 2.0], [3.0, 4.0]])
    row = Tensor([1, 2])
    assert row.data.dtype == np.float64 and row.shape == (1, 2)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(6, 3)))
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(1, 4)))
        h = dense_forward(x, w, b, TANH)
        return segment_mean(h, [0, 2, 6]).data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_forward_outputs_finite_on_finite_input():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(20, 4)) * 50)
    w = Tensor(rng.normal(size=(4, 4)) * 50)
    b = Tensor(rng.normal(size=(1, 4)))
    for act in (TANH, RELU, IDENTITY):
        out = dense_forward(x, w, b, act)
        assert np.all(np.isfinite(out.data))
