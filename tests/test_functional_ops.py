"""Tests for the numpy kernels, including numeric-gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dnn.layers import Activation, PoolMode
from repro.errors import ShapeError
from repro.functional import tensor_ops as ops


def brute_conv(x, w, b, stride, pad, groups=1):
    """O(n^4) reference convolution for cross-checking im2col."""
    out_c, in_cg, k, _ = w.shape
    in_c = x.shape[0]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h, wdt = xp.shape[1:]
    out_h = (h - k) // stride + 1
    out_w = (wdt - k) // stride + 1
    out = np.zeros((out_c, out_h, out_w), dtype=np.float64)
    out_per_group = out_c // groups
    for f in range(out_c):
        g = f // out_per_group
        for i in range(out_h):
            for j in range(out_w):
                patch = xp[
                    g * in_cg : (g + 1) * in_cg,
                    i * stride : i * stride + k,
                    j * stride : j * stride + k,
                ]
                out[f, i, j] = (patch * w[f]).sum() + b[f]
    return out


class TestConvForward:
    @pytest.mark.parametrize(
        "in_c,out_c,size,k,stride,pad,groups",
        [
            (3, 4, 8, 3, 1, 1, 1),
            (2, 6, 9, 3, 2, 0, 1),
            (4, 4, 7, 5, 1, 2, 2),
            (1, 1, 5, 5, 1, 0, 1),
        ],
    )
    def test_matches_brute_force(self, in_c, out_c, size, k, stride, pad,
                                 groups):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (in_c, size, size)).astype(np.float32)
        w = rng.normal(0, 1, (out_c, in_c // groups, k, k)).astype(np.float32)
        b = rng.normal(0, 1, out_c).astype(np.float32)
        got = ops.conv2d_forward(x, w, b, stride, pad, groups)
        want = brute_conv(x, w, b, stride, pad, groups)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_group_mismatch(self):
        x = np.zeros((3, 4, 4), np.float32)
        w = np.zeros((4, 2, 3, 3), np.float32)
        with pytest.raises(ShapeError):
            ops.conv2d_forward(x, w, np.zeros(4, np.float32), groups=2)

    def test_requires_3d(self):
        with pytest.raises(ShapeError):
            ops.conv2d_forward(
                np.zeros((4, 4), np.float32),
                np.zeros((1, 1, 3, 3), np.float32),
                np.zeros(1, np.float32),
            )


class TestConvBackward:
    def test_numeric_gradients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (2, 6, 6)).astype(np.float64)
        w = rng.normal(0, 1, (3, 2, 3, 3)).astype(np.float64)
        b = np.zeros(3)
        grad_out = rng.normal(0, 1, (3, 6, 6)).astype(np.float64)

        gx, gw, gb = ops.conv2d_backward(x, w, grad_out, 1, 1)
        eps = 1e-6

        def loss(xv, wv):
            return (ops.conv2d_forward(xv, wv, b, 1, 1) * grad_out).sum()

        for idx in [(0, 2, 3), (1, 5, 5)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            num = (loss(xp, w) - loss(xm, w)) / (2 * eps)
            assert num == pytest.approx(gx[idx], rel=1e-4, abs=1e-6)
        for idx in [(0, 0, 1, 1), (2, 1, 0, 2)]:
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            num = (loss(x, wp) - loss(x, wm)) / (2 * eps)
            assert num == pytest.approx(gw[idx], rel=1e-4, abs=1e-6)
        np.testing.assert_allclose(gb, grad_out.sum(axis=(1, 2)))

    def test_grouped_gradients_shapes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (4, 5, 5))
        w = rng.normal(0, 1, (6, 2, 3, 3))
        grad = rng.normal(0, 1, (6, 5, 5))
        gx, gw, gb = ops.conv2d_backward(x, w, grad, 1, 1, groups=2)
        assert gx.shape == x.shape
        assert gw.shape == w.shape
        assert gb.shape == (6,)


class TestIm2Col:
    @settings(max_examples=50, deadline=None)
    @given(
        c=st.integers(1, 4),
        size=st.integers(3, 10),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
    )
    def test_col2im_is_adjoint(self, c, size, k, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> — the defining property the
        conv backward pass relies on."""
        if size + 2 * pad < k:
            return
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, (c, size, size))
        cols, out_h, out_w = ops.im2col(x, k, stride, pad)
        y = rng.normal(0, 1, cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * ops.col2im(y, x.shape, k, stride, pad)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("pad", [1, 2])
    @pytest.mark.parametrize(
        "layout",
        [
            lambda x: x,
            lambda x: x[:, ::-1, :],
            np.asfortranarray,
            lambda x: x.transpose(0, 2, 1),
            lambda x: x[::2],
        ],
    )
    def test_pad_spatial_is_np_pad(self, pad, layout):
        """Same bits, dtype and memory order as ``np.pad`` (signed zeros
        included), so im2col windows — and the products over them — are
        unchanged."""
        x = np.random.default_rng(3).normal(0, 1, (4, 5, 6)).astype(
            np.float32
        )
        x[0, 0, 0] = -0.0
        src = layout(x)
        got = ops.pad_spatial(src, pad)
        expected = np.pad(src, ((0, 0), (pad, pad), (pad, pad)))
        assert got.dtype == expected.dtype
        assert got.strides == expected.strides
        assert got.tobytes(order="A") == expected.tobytes(order="A")


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, arg = ops.pool_forward(x, 2, 2, 0, PoolMode.MAX)
        np.testing.assert_allclose(out[0], [[5, 7], [13, 15]])
        assert arg.shape == (1, 2, 2)

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, arg = ops.pool_forward(x, 2, 2, 0, PoolMode.AVG)
        np.testing.assert_allclose(out[0], [[2.5, 4.5], [10.5, 12.5]])
        assert arg.size == 0

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, arg = ops.pool_forward(x, 2, 2, 0, PoolMode.MAX)
        grad = np.ones_like(out)
        gx = ops.pool_backward(grad, x.shape, 2, 2, 0, PoolMode.MAX, arg)
        assert gx.sum() == 4
        assert gx[0, 1, 1] == 1  # element 5 was a max
        assert gx[0, 0, 0] == 0

    def test_avg_pool_backward_spreads(self):
        grad = np.ones((1, 2, 2))
        gx = ops.pool_backward(
            grad, (1, 4, 4), 2, 2, 0, PoolMode.AVG, np.empty(0)
        )
        np.testing.assert_allclose(gx, np.full((1, 4, 4), 0.25))

    def test_overlapping_max_pool_gradient_numeric(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (2, 5, 5))
        out, arg = ops.pool_forward(x, 3, 2, 0, PoolMode.MAX)
        grad = rng.normal(0, 1, out.shape)
        gx = ops.pool_backward(grad, x.shape, 3, 2, 0, PoolMode.MAX, arg)
        eps = 1e-6
        idx = (1, 2, 2)
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        lp = (ops.pool_forward(xp, 3, 2, 0, PoolMode.MAX)[0] * grad).sum()
        lm = (ops.pool_forward(xm, 3, 2, 0, PoolMode.MAX)[0] * grad).sum()
        assert (lp - lm) / (2 * eps) == pytest.approx(gx[idx], abs=1e-5)

    def test_global_pool_roundtrip(self):
        x = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        out = ops.global_pool_forward(x)
        np.testing.assert_allclose(out.reshape(-1), [1.5, 5.5])
        gx = ops.global_pool_backward(np.ones((2, 1, 1)), x.shape)
        np.testing.assert_allclose(gx, np.full(x.shape, 0.25))


class TestFC:
    def test_forward(self):
        x = np.array([1.0, 2.0], np.float32).reshape(2, 1, 1)
        w = np.array([[1.0, 0.0], [0.0, 3.0], [1.0, 1.0]], np.float32)
        b = np.array([0.0, 1.0, 0.0], np.float32)
        out = ops.fc_forward(x, w, b)
        np.testing.assert_allclose(out, [1.0, 7.0, 3.0])

    def test_backward_is_outer_product(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (3, 2, 2))
        w = rng.normal(0, 1, (5, 12))
        g = rng.normal(0, 1, 5)
        gx, gw, gb = ops.fc_backward(x, w, g)
        np.testing.assert_allclose(gw, np.outer(g, x.reshape(-1)))
        np.testing.assert_allclose(gx.reshape(-1), w.T @ g)
        np.testing.assert_allclose(gb, g)


class TestActivations:
    @pytest.mark.parametrize(
        "fn", [Activation.RELU, Activation.TANH, Activation.SIGMOID]
    )
    def test_derivative_numeric(self, fn):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 32)
        x = x[np.abs(x) > 1e-3]  # avoid ReLU kink
        eps = 1e-6
        act = ops.activate(x, fn)
        grad = ops.activate_backward(np.ones_like(x), act, fn)
        num = (ops.activate(x + eps, fn) - ops.activate(x - eps, fn)) / (
            2 * eps
        )
        np.testing.assert_allclose(grad, num, atol=1e-5)

    def test_softmax_sums_to_one(self):
        out = ops.activate(np.array([1.0, 2.0, 3.0]), Activation.SOFTMAX)
        assert out.sum() == pytest.approx(1.0)
        assert out.argmax() == 2

    def test_softmax_stable_for_large_logits(self):
        out = ops.activate(np.array([1000.0, 1001.0]), Activation.SOFTMAX)
        assert np.isfinite(out).all()

    def test_none_passthrough(self):
        x = np.array([-1.0, 2.0])
        np.testing.assert_allclose(ops.activate(x, Activation.NONE), x)

    def test_cross_entropy_gradient(self):
        p = ops.activate(np.array([0.1, 0.5, 0.2]), Activation.SOFTMAX)
        loss, grad = ops.softmax_cross_entropy(p, 1)
        assert loss == pytest.approx(-np.log(p[1]))
        np.testing.assert_allclose(grad, p - np.eye(3)[1])


def _conv_block_reference(words, features, k, stride, pad, h, w, bias, fn):
    """Per-instruction semantics of one conv superop on one image: an
    NDCONV per (plane, kernel) source (the first overwrites, the rest
    accumulate), an NDACCUM of each feature's bias, one NDACTFN."""
    zero = np.zeros(1, dtype=np.float32)
    blocks = []
    for sources in features:
        acc = None
        for plane_addr, kernel_addr in sources:
            out = ops.conv2d_forward(
                words[plane_addr : plane_addr + h * w].reshape(1, h, w),
                words[kernel_addr : kernel_addr + k * k].reshape(1, 1, k, k),
                zero, stride, pad,
            ).reshape(-1)
            acc = out if acc is None else acc + out
        blocks.append(acc)
    pre = np.concatenate(blocks) + bias
    return pre, ops.activate(pre.copy(), fn)


def _steps(features):
    """The fusion pass's step grouping: step s holds the s-th source of
    every feature with more than s sources."""
    steps = []
    for s in range(max(len(srcs) for srcs in features)):
        feats = tuple(f for f, srcs in enumerate(features) if len(srcs) > s)
        steps.append((
            feats,
            tuple(features[f][s][0] for f in feats),
            tuple(features[f][s][1] for f in feats),
        ))
    return steps


class TestConvBlockForward:
    """The batched superop kernel against per-instruction semantics:
    every row bitwise identical, across its plan's special cases."""

    H = W = 6
    K = 3

    def _run(self, features, words_per_image, fn, stride=1, pad=1, batch=3):
        h, w, k = self.H, self.W, self.K
        rng = np.random.default_rng(11)
        words = rng.normal(0, 1, (batch, words_per_image)).astype(np.float32)
        out_size = ((h + 2 * pad - k) // stride + 1) ** 2
        n = len(features)
        bias = rng.normal(0, 1, (batch, n * out_size)).astype(np.float32)
        plan = ops.conv_block_plan(_steps(features), k)
        pre, act = ops.conv_block_forward(
            words, plan, k, stride, pad, (h, w), out_size, n, bias, fn,
        )
        assert pre.shape == act.shape == (batch, n * out_size)
        for i in range(batch):
            ref_pre, ref_act = _conv_block_reference(
                words[i], features, k, stride, pad, h, w, bias[i], fn
            )
            assert np.array_equal(pre[i], ref_pre), i
            assert np.array_equal(act[i], ref_act), i
        return plan

    def test_dense_block_uses_broadcast_plane_and_kernel_view(self):
        planes = [0, 36, 72]
        kern = 200  # feature-major kernels: stride 3 * 9 words
        features = [
            [(p, kern + (f * 3 + s) * 9) for s, p in enumerate(planes)]
            for f in range(4)
        ]
        plan = self._run(features, 400, Activation.RELU, stride=2)
        assert all(pick is None for _, _, pick, _, _ in plan)
        assert all(kstride == 27 for *_, kstride in plan)

    def test_ragged_sparse_block(self):
        """Connection-table style: features read different planes at
        the same step, skip steps (non-contiguous rows) and carry
        ragged kernel addresses."""
        features = [
            [(0, 300), (36, 309), (72, 318)],
            [(36, 327)],
            [(72, 336), (0, 345), (36, 354)],
            [(0, 363), (72, 372)],
        ]
        plan = self._run(features, 400, Activation.SOFTMAX)
        rows, _, pick, _, kstride = plan[1]
        assert rows == [0, 2, 3] and pick is not None
        assert kstride is None  # 309, 345, 372: not a progression

    def test_kernel_view_past_end_falls_back(self):
        """A kernel progression whose strided view would run past the
        scratchpad end is gathered kernel by kernel instead."""
        features = [[(0, 100 + f * 20)] for f in range(3)]
        plan = self._run(features, 149, Activation.TANH, pad=0)
        (_, _, _, addrs, kstride), = plan
        assert kstride == 20 and addrs[0] + len(addrs) * kstride > 149

    def test_batch_one_is_the_single_image_case(self):
        features = [[(0, 100), (36, 109)], [(36, 118), (0, 127)]]
        self._run(features, 200, Activation.SIGMOID, batch=1)


class TestBatchedFC:
    def test_rows_match_single_image_products(self):
        rng = np.random.default_rng(3)
        mats = rng.normal(0, 1, (4, 5, 7)).astype(np.float32)
        vecs = rng.normal(0, 1, (4, 7)).astype(np.float32)
        bias = rng.normal(0, 1, (4, 5)).astype(np.float32)
        pre, act = ops.fc_block_forward(
            mats, vecs, bias, Activation.SOFTMAX
        )
        for i in range(4):
            expected = mats[i] @ vecs[i]
            expected += bias[i]
            assert np.array_equal(pre[i], expected)
            assert np.array_equal(
                act[i], ops.activate(expected.copy(), Activation.SOFTMAX)
            )
