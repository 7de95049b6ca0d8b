"""Numpy implementations of the DNN kernels (forward and backward).

These are the golden-model counterparts of the hardware kernels in
Fig 5: nD-convolution, matrix multiply, accumulation, sampling,
activation functions and the element-wise products of the WG step.
Layout convention: feature volumes are ``(count, height, width)`` arrays
(single image; the trainer loops or vectorises over the batch axis).
The engine's superop kernels (:func:`conv_block_forward`,
:func:`fc_block_forward`) and the ``*_rows`` helpers instead take
scratchpad words with a leading batch axis, batch 1 being the
single-image case.

Convolutions are computed via im2col so that forward, input-gradient and
weight-gradient all reduce to matrix multiplies — the same decomposition
the CompHeavy tile realises with its 2D-PE array.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dnn.layers import Activation, PoolMode
from repro.errors import ShapeError


def _check_3d(x: np.ndarray, name: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{name} must be 3-D (count, h, w), got {x.shape}")


def pad_spatial(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial dimensions of a feature volume.

    Returns what ``np.pad(x, ((0, 0), (pad, pad), (pad, pad)))``
    returns — the same bits in the same memory order — without its
    per-call overhead (the engine pads once per NDCONV)."""
    if pad == 0:
        return x
    c, h, w = x.shape
    out = np.zeros(
        (c, h + 2 * pad, w + 2 * pad), dtype=x.dtype,
        order="F" if x.flags.fnc else "C",
    )
    out[:, pad : pad + h, pad : pad + w] = x
    return out


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (C,H,W) into columns of shape (C*k*k, out_h*out_w)."""
    _check_3d(x, "im2col input")
    c, h, w = x.shape
    xp = pad_spatial(x, pad)
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kernel} stride {stride} pad {pad} does not fit "
            f"{x.shape}"
        )
    # Gather all kernel-window offsets with stride tricks.
    shape = (c, kernel, kernel, out_h, out_w)
    strides = (
        xp.strides[0],
        xp.strides[1],
        xp.strides[2],
        xp.strides[1] * stride,
        xp.strides[2] * stride,
    )
    windows = np.lib.stride_tricks.as_strided(xp, shape, strides)
    return windows.reshape(c * kernel * kernel, out_h * out_w), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into a (C,H,W) volume, accumulating overlaps —
    the adjoint of :func:`im2col`."""
    c, h, w = x_shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols = cols.reshape(c, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        for kj in range(kernel):
            xp[
                :,
                ki : ki + out_h * stride : stride,
                kj : kj + out_w * stride : stride,
            ] += cols[:, ki, kj]
    if pad:
        return xp[:, pad:-pad, pad:-pad]
    return xp


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------
def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """2-D convolution.  ``weights`` is (out_c, in_c//groups, k, k)."""
    _check_3d(x, "conv input")
    out_c, in_cg, k, _ = weights.shape
    in_c = x.shape[0]
    if in_c % groups or out_c % groups or in_cg != in_c // groups:
        raise ShapeError(
            f"conv groups mismatch: x={x.shape}, w={weights.shape}, "
            f"groups={groups}"
        )
    out_per_group = out_c // groups
    outputs = []
    for g in range(groups):
        xg = x[g * in_cg : (g + 1) * in_cg]
        wg = weights[g * out_per_group : (g + 1) * out_per_group]
        cols, out_h, out_w = im2col(xg, k, stride, pad)
        res = wg.reshape(out_per_group, -1) @ cols
        outputs.append(res.reshape(out_per_group, out_h, out_w))
    out = np.concatenate(outputs, axis=0)
    return out + bias[:, None, None]


def conv2d_backward(
    x: np.ndarray,
    weights: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a 2-D convolution.

    Returns ``(grad_x, grad_w, grad_b)`` — the BP and WG steps of the
    paper's Fig 3 in one call.
    """
    out_c, in_cg, k, _ = weights.shape
    in_c = x.shape[0]
    out_per_group = out_c // groups
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(weights)
    for g in range(groups):
        xg = x[g * in_cg : (g + 1) * in_cg]
        wg = weights[g * out_per_group : (g + 1) * out_per_group]
        gg = grad_out[g * out_per_group : (g + 1) * out_per_group]
        cols, out_h, out_w = im2col(xg, k, stride, pad)
        gflat = gg.reshape(out_per_group, -1)
        grad_w[g * out_per_group : (g + 1) * out_per_group] = (
            gflat @ cols.T
        ).reshape(out_per_group, in_cg, k, k)
        gcols = wg.reshape(out_per_group, -1).T @ gflat
        grad_x[g * in_cg : (g + 1) * in_cg] = col2im(
            gcols, xg.shape, k, stride, pad
        )
    grad_b = grad_out.sum(axis=(1, 2))
    return grad_x, grad_w, grad_b


def conv2d_plane_batched(
    x: np.ndarray, kernels: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Batched single-plane convolution: ``x`` is (B, H, W) — one plane
    per image — and ``kernels`` is (B, k, k), one (usually identical)
    kernel per image.  Returns (B, out_h, out_w).

    This is the engine's NDCONV vectorised across a minibatch: each
    image convolves independently, so the batch axis rides along the
    im2col window gather and one einsum contracts every image at once.
    """
    _check_3d(x, "batched conv input")
    b, h, w = x.shape
    k = kernels.shape[-1]
    if kernels.shape != (b, k, k):
        raise ShapeError(
            f"batched conv kernels {kernels.shape} != ({b}, {k}, {k})"
        )
    xp = pad_spatial(np.ascontiguousarray(x), pad)
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {k} stride {stride} pad {pad} does not fit {x.shape}"
        )
    shape = (b, k, k, out_h, out_w)
    strides = (
        xp.strides[0],
        xp.strides[1],
        xp.strides[2],
        xp.strides[1] * stride,
        xp.strides[2] * stride,
    )
    windows = np.lib.stride_tricks.as_strided(xp, shape, strides)
    return np.einsum("bijhw,bij->bhw", windows, kernels)


def conv_rowgroup(weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One fused convolution step over a group of output features.

    ``weights`` is (..., F, k*k) — one single-plane kernel per feature —
    and ``cols`` is (..., F, k*k, N), each feature's im2col'd source
    plane (a size-1 feature axis broadcasts one plane to every
    feature).  Returns the (..., F, N) partial sums.

    This is the superop fast path's replacement for F separate NDCONV
    dispatches.  Bit-exactness matters: numpy's stacked ``matmul`` of
    (..., F, 1, k*k) @ (..., F, k*k, N) computes each slice as its own
    (1, k*k) @ (k*k, N) product, bitwise identical to the per-slice
    products that :func:`conv2d_forward` computes (property-checked in
    the tests — note a plain (F, k*k) @ (k*k, N) GEMM does *not* have
    this property), and the trailing ``+ 0.0`` reproduces the zero-bias
    add in :func:`conv2d_forward` so signed zeros match too.
    """
    return (
        np.matmul(weights[..., None, :], cols)[..., 0, :] + np.float32(0.0)
    )


def conv_block_plan(steps, kernel: int) -> tuple:
    """Hoist the static indexing of :func:`conv_block_forward` out of
    its per-call loop (superop plans are fixed at compile time, so the
    engine builds this once per superop at decode).

    ``steps`` lists one entry per input-source *step* ``i`` — the
    ``i``-th source of every output feature that has at least ``i+1``
    sources — as ``(feature_indices, in_addrs, kernel_addrs)``.  Each
    planned step is ``(features, planes, pick, kernel_addrs,
    kernel_stride)``: ``features`` selects the accumulator rows (a
    slice when contiguous), ``planes`` the distinct source-plane
    addresses in first-use order, ``pick`` maps each feature to its
    plane (None when every feature reads the one plane, which then
    broadcasts), and ``kernel_stride`` is the word stride of
    ``kernel_addrs`` when they form a progression of non-overlapping
    kernels (None otherwise), so the weights load as one strided view.
    """
    kk = kernel * kernel
    plan = []
    for feats, in_addrs, kernel_addrs in steps:
        planes = tuple(dict.fromkeys(in_addrs))
        pick = (
            None if len(planes) == 1
            else [planes.index(addr) for addr in in_addrs]
        )
        first, last = feats[0], feats[-1]
        rows = (
            slice(first, last + 1) if last - first + 1 == len(feats)
            else list(feats)
        )
        base = kernel_addrs[0]
        kstride = kernel_addrs[1] - base if len(kernel_addrs) > 1 else kk
        if kstride < kk or any(
            addr != base + j * kstride
            for j, addr in enumerate(kernel_addrs)
        ):
            kstride = None
        plan.append((rows, planes, pick, kernel_addrs, kstride))
    return tuple(plan)


def conv_block_extent(plan, kernel: int, in_words: int) -> int:
    """One past the highest staging word :func:`conv_block_forward`
    reads for ``plan``: its source planes (``in_words`` each), its
    kernels, and the full extent of each strided weight view — so the
    caller may hand it just that prefix of the scratchpad and still get
    the strided fast path."""
    kk = kernel * kernel
    end = 0
    for _, planes, _, kernel_addrs, kstride in plan:
        end = max(end, max(planes) + in_words, max(kernel_addrs) + kk)
        if kstride is not None:
            end = max(end, kernel_addrs[0] + len(kernel_addrs) * kstride)
    return end


def conv_block_forward(
    src_words: np.ndarray,
    plan,
    kernel: int,
    stride: int,
    pad: int,
    in_shape: Tuple[int, int],
    out_size: int,
    n_features: int,
    bias_block: np.ndarray,
    fn: Activation,
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole-layer fused convolution: every NDCONV/NDACCUM/NDACTFN of
    one conv program slice collapsed into a handful of numpy calls,
    for a whole minibatch at once.

    ``src_words`` is the staging scratchpad, one ``(batch, words)`` row
    per image (a single image is the batch-1 case) — or just its prefix
    up to :func:`conv_block_extent`; ``plan`` comes from
    :func:`conv_block_plan`, whose step 0 must cover all
    ``n_features`` features in order (the code generator emits each
    feature's first source with ``is_accum=0``); ``bias_block`` is
    ``(batch, n_features * out_size)``.

    Returns ``(pre, out)``, both ``(batch, n_features * out_size)``:
    the pre-activation block (the values the per-instruction path
    leaves in the accumulation scratchpad) and the activated output
    block.  Every row is bitwise identical to per-instruction execution
    of that image.
    """
    batch, words = src_words.shape
    h, w = in_shape
    in_words = h * w
    kk = kernel * kernel
    acc = np.empty((batch, n_features, out_size), dtype=np.float32)
    for i, (rows, planes, pick, kernel_addrs, kstride) in enumerate(plan):
        if pick is None:
            x = src_words[:, planes[0] : planes[0] + in_words]
        else:
            x = np.stack(
                [src_words[:, a : a + in_words] for a in planes], axis=1
            )
        cols, _, _ = im2col(x.reshape(-1, h, w), kernel, stride, pad)
        cols = cols.reshape(batch, len(planes), kk, -1)
        if pick is not None:
            cols = cols[:, pick]
        count = len(kernel_addrs)
        base = kernel_addrs[0]
        if kstride is not None and base + count * kstride <= words:
            weights = src_words[:, base : base + count * kstride].reshape(
                batch, count, kstride
            )[:, :, :kk]
        else:
            weights = np.stack(
                [src_words[:, a : a + kk] for a in kernel_addrs], axis=1
            )
        contrib = conv_rowgroup(weights, cols)
        if i == 0:
            acc[...] = contrib
        else:
            acc[:, rows] += contrib
    acc += bias_block.reshape(batch, n_features, out_size)
    pre = acc.reshape(batch, -1)
    return pre, activate_rows(pre.copy(), fn)


def fc_block_forward(
    mats: np.ndarray,
    vecs: np.ndarray,
    bias: np.ndarray,
    fn: Activation,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused MATMUL + bias NDACCUM + NDACTFN of one FC program slice,
    for a minibatch: ``mats`` (B, rows, cols), ``vecs`` (B, cols),
    ``bias`` (B, rows).

    Returns ``(pre, out)``, both (B, rows) — see
    :func:`conv_block_forward`.  Each image's product is its own
    matrix-vector call, then the same ``+=`` and activation the
    per-instruction path applies, in the same order, so every row is
    bitwise identical to it (softmax stays row-wise).
    """
    pre = matmul_rows(mats, vecs)
    pre += bias
    return pre, activate_rows(pre.copy(), fn)


def matmul_rows(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Batched matrix-vector multiply: ``mats`` (B, rows, cols) @
    ``vecs`` (B, cols) -> (B, rows) — the engine's MATMUL vectorised
    across a minibatch (the matrix is usually identical per image)."""
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def activate_rows(x: np.ndarray, fn: Activation) -> np.ndarray:
    """Row-wise activation over a (B, n) batch.  Elementwise functions
    delegate to :func:`activate`; softmax normalises each row
    independently (the single-image path flattens, which would couple
    the batch)."""
    if fn is Activation.SOFTMAX:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    return activate(x, fn)


# ---------------------------------------------------------------------------
# Pooling (SAMP layers)
# ---------------------------------------------------------------------------
def pool_forward(
    x: np.ndarray,
    window: int,
    stride: int,
    pad: int = 0,
    mode: PoolMode = PoolMode.MAX,
) -> Tuple[np.ndarray, np.ndarray]:
    """Down-sampling.  Returns ``(out, argmax)``; ``argmax`` (flat window
    indices) is empty for average pooling."""
    _check_3d(x, "pool input")
    c = x.shape[0]
    fill = -np.inf if mode is PoolMode.MAX else 0.0
    xp = (
        np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=fill)
        if pad
        else x
    )
    h, w = xp.shape[1:]
    out_h = (h - window) // stride + 1
    out_w = (w - window) // stride + 1
    shape = (c, out_h, out_w, window, window)
    strides = (
        xp.strides[0],
        xp.strides[1] * stride,
        xp.strides[2] * stride,
        xp.strides[1],
        xp.strides[2],
    )
    windows = np.lib.stride_tricks.as_strided(xp, shape, strides)
    flat = windows.reshape(c, out_h, out_w, window * window)
    if mode is PoolMode.MAX:
        arg = flat.argmax(axis=3)
        out = np.take_along_axis(flat, arg[..., None], axis=3)[..., 0]
        return out, arg
    return flat.mean(axis=3), np.empty(0, dtype=np.int64)


def pool_backward(
    grad_out: np.ndarray,
    x_shape: Tuple[int, int, int],
    window: int,
    stride: int,
    pad: int,
    mode: PoolMode,
    argmax: np.ndarray,
) -> np.ndarray:
    """Error up-sampling (the paper's BP step for SAMP layers)."""
    c, h, w = x_shape
    out_h, out_w = grad_out.shape[1:]
    gxp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    for i in range(out_h):
        for j in range(out_w):
            hi, wj = i * stride, j * stride
            if mode is PoolMode.MAX:
                idx = argmax[:, i, j]
                di, dj = idx // window, idx % window
                gxp[np.arange(c), hi + di, wj + dj] += grad_out[:, i, j]
            else:
                gxp[:, hi : hi + window, wj : wj + window] += (
                    grad_out[:, i, j][:, None, None] / (window * window)
                )
    if pad:
        return gxp[:, pad:-pad, pad:-pad]
    return gxp


def global_pool_forward(x: np.ndarray) -> np.ndarray:
    """Global average pooling to (C, 1, 1)."""
    _check_3d(x, "global pool input")
    return x.mean(axis=(1, 2), keepdims=True)


def global_pool_backward(
    grad_out: np.ndarray, x_shape: Tuple[int, int, int]
) -> np.ndarray:
    c, h, w = x_shape
    return np.broadcast_to(grad_out / (h * w), x_shape).copy()


# ---------------------------------------------------------------------------
# Fully connected
# ---------------------------------------------------------------------------
def fc_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Vector-matrix multiply: ``weights`` is (out, in); ``x`` flattens."""
    return weights @ x.reshape(-1) + bias


def fc_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the FC layer.  The weight gradient is the outer
    product of the BP error and FP input — the paper's VECMUL kernel."""
    flat = x.reshape(-1)
    grad_w = np.outer(grad_out, flat)
    grad_x = (weights.T @ grad_out).reshape(x.shape)
    return grad_x, grad_w, grad_out.copy()


# ---------------------------------------------------------------------------
# Activation functions (MemHeavy SFU repertoire: ReLU, tanh, sigmoid)
# ---------------------------------------------------------------------------
def activate(x: np.ndarray, fn: Activation) -> np.ndarray:
    if fn is Activation.NONE:
        return x
    if fn is Activation.RELU:
        return np.maximum(x, 0.0)
    if fn is Activation.TANH:
        return np.tanh(x)
    if fn is Activation.SIGMOID:
        return 1.0 / (1.0 + np.exp(-x))
    if fn is Activation.SOFTMAX:
        flat = x.reshape(-1)
        e = np.exp(flat - flat.max())
        return (e / e.sum()).reshape(x.shape)
    raise ShapeError(f"unsupported activation {fn}")


def activate_backward(
    grad_out: np.ndarray, activated: np.ndarray, fn: Activation
) -> np.ndarray:
    """Chain the activation derivative using the *activated* output."""
    if fn is Activation.NONE:
        return grad_out
    if fn is Activation.RELU:
        return grad_out * (activated > 0)
    if fn is Activation.TANH:
        return grad_out * (1.0 - activated**2)
    if fn is Activation.SIGMOID:
        return grad_out * activated * (1.0 - activated)
    if fn is Activation.SOFTMAX:
        # Softmax + cross-entropy is fused in the loss; the pass-through
        # here expects the loss to have produced (p - y) already.
        return grad_out
    raise ShapeError(f"unsupported activation {fn}")


def softmax_cross_entropy(
    logits_softmaxed: np.ndarray, target: int
) -> Tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. the pre-softmax logits, given softmax
    outputs and a golden class index."""
    p = logits_softmaxed.reshape(-1)
    loss = -float(np.log(max(p[target], 1e-12)))
    grad = p.copy()
    grad[target] -= 1.0
    return loss, grad.reshape(logits_softmaxed.shape)
