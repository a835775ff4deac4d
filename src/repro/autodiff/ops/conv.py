"""Convolution, pooling and upsampling primitives.

The 2-D convolution is implemented with the classic im2col lowering: patches
are gathered into a matrix and the convolution becomes a batched matrix
multiplication, which keeps all heavy lifting inside BLAS.  That projection
and its two gradients are methods of the reference compute backend
(:func:`reference_backend`); compiled inference projects through the same
method, so an eager convolution and its compiled step produce the same bits.
Grouped convolution is supported so that MobileNet-style depthwise
convolutions (``groups == in_channels``) — one of the three backbone families
evaluated in the paper's Table 3 — work out of the box.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..function import Context, Function


def _pair(value) -> Tuple[int, int]:
    """Normalise an int-or-pair argument to a 2-tuple."""
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int],
           padding: Tuple[int, int], out: np.ndarray = None) -> np.ndarray:
    """Lower image patches into a column tensor.

    Parameters
    ----------
    x : array of shape (N, C, H, W)
    out : optional pre-allocated destination of shape (N, C, kh, kw, OH, OW);
        the compiled inference path passes a pooled buffer here so the
        biggest allocation of the convolution is paid only once per shape.
    Returns
    -------
    array of shape (N, C, kh, kw, OH, OW)
    """
    n, c, h, w = x.shape
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    cols_shape = (n, c, kh, kw, oh, ow)
    if out is not None and out.shape == cols_shape and out.dtype == x.dtype:
        cols = out
    else:
        cols = np.empty(cols_shape, dtype=x.dtype)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:sh, j:j_max:sw]
    return cols


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int,
           stride: Tuple[int, int], padding: Tuple[int, int]) -> np.ndarray:
    """Scatter a column tensor back into an image, accumulating overlaps."""
    n, c, h, w = x_shape
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            padded[:, :, i:i_max:sh, j:j_max:sw] += cols[:, :, i, j, :, :]
    if ph or pw:
        return padded[:, :, ph:ph + h, pw:pw + w]
    return padded


_REFERENCE = None
#: ``conv_project`` probe verdicts of eager autodiff, keyed by operand shapes.
_PROBE_CACHE: dict = {}


def reference_backend():
    """The process-wide reference :class:`~repro.backends.Backend`.

    Eager autodiff runs every grouped-conv projection and both of its
    gradients through this one instance, so the training path and the
    compiled inference path share one kernel set.
    """
    global _REFERENCE
    if _REFERENCE is None:
        from ...backends.base import Backend  # lazy: the backends import this module

        _REFERENCE = Backend()
    return _REFERENCE


def grouped_cols(x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int],
                 padding: Tuple[int, int], groups: int) -> np.ndarray:
    """``im2col`` of ``x`` viewed per group: ``(N, G, C/G·kh·kw, OH·OW)``."""
    cols = im2col(x, kh, kw, stride, padding)
    n, c, _, _, oh, ow = cols.shape
    return cols.reshape(n, groups, (c // groups) * kh * kw, oh * ow)


def project(cols: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """``(G, Fg, K)`` weights applied to grouped ``cols``, written into a fresh
    C-contiguous ``(N, G, Fg, OH·OW)`` array by the reference backend."""
    n, groups, _, length = cols.shape
    out = np.empty((n, groups, wmat.shape[1], length), dtype=np.result_type(wmat, cols))
    return reference_backend().conv_project(cols, wmat, out, _PROBE_CACHE)


class Conv2d(Function):
    """Grouped 2-D convolution ``out = conv(x, w) + b``.

    Shapes follow PyTorch: ``x`` is (N, C, H, W), ``w`` is
    (F, C // groups, kh, kw) and ``b`` is (F,) or ``None``.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, w: np.ndarray,
                b: Optional[np.ndarray] = None, stride=1, padding=0,
                groups: int = 1) -> np.ndarray:
        stride = _pair(stride)
        padding = _pair(padding)
        n, c, h, wd = x.shape
        f, c_g, kh, kw = w.shape
        if c != c_g * groups:
            raise ValueError(
                f"Conv2d channel mismatch: input has {c} channels but weight "
                f"expects {c_g * groups} (groups={groups})"
            )
        cols = grouped_cols(x, kh, kw, stride, padding, groups)
        out = project(cols, w.reshape(groups, f // groups, c_g * kh * kw))
        out = out.reshape(n, f, conv_output_size(h, kh, stride[0], padding[0]),
                          conv_output_size(wd, kw, stride[1], padding[1]))
        if b is not None:
            out += b.reshape(1, f, 1, 1)

        ctx.stride, ctx.padding, ctx.groups = stride, padding, groups
        ctx.x_shape = x.shape
        ctx.has_bias = b is not None
        ctx.save_for_backward(x, w)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, w = ctx.saved_tensors
        stride, padding, groups = ctx.stride, ctx.padding, ctx.groups
        be = reference_backend()
        f, c_g, kh, kw = w.shape
        grad = np.ascontiguousarray(grad)
        grad_g = grad.reshape(grad.shape[0], groups, f // groups, -1)

        gx = gw = gb = None
        if ctx.needs_input_grad[0]:
            wmat = w.reshape(groups, f // groups, c_g * kh * kw)
            gx = be.conv_input_grad(wmat, grad_g, ctx.x_shape, kh, kw, stride, padding)
        if ctx.needs_input_grad[1]:
            cols = grouped_cols(x, kh, kw, stride, padding, groups)
            gw = be.conv_weight_grad(grad_g, cols).reshape(w.shape)
        if ctx.has_bias and len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
            gb = grad.sum(axis=(0, 2, 3))

        return gx, gw, gb, None, None, None


class MaxPool2d(Function):
    """Max pooling with square-or-rectangular windows."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel_size=2, stride=None, padding=0) -> np.ndarray:
        kh, kw = _pair(kernel_size)
        stride = _pair(stride if stride is not None else kernel_size)
        padding = _pair(padding)
        n, c, h, w = x.shape
        oh = conv_output_size(h, kh, stride[0], padding[0])
        ow = conv_output_size(w, kw, stride[1], padding[1])

        cols = im2col(x, kh, kw, stride, padding)       # (N, C, kh, kw, OH, OW)
        cols = cols.reshape(n, c, kh * kw, oh, ow)
        argmax = cols.argmax(axis=2)
        out = np.take_along_axis(cols, argmax[:, :, None], axis=2).squeeze(2)

        ctx.kernel = (kh, kw)
        ctx.stride, ctx.padding = stride, padding
        ctx.x_shape = x.shape
        ctx.save_for_backward(argmax.astype(np.int32))
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (argmax,) = ctx.saved_tensors
        kh, kw = ctx.kernel
        n, c, h, w = ctx.x_shape
        oh, ow = grad.shape[2], grad.shape[3]
        cols_grad = np.zeros((n, c, kh * kw, oh, ow), dtype=grad.dtype)
        np.put_along_axis(cols_grad, argmax[:, :, None].astype(np.intp),
                          np.asarray(grad)[:, :, None], axis=2)
        cols_grad = cols_grad.reshape(n, c, kh, kw, oh, ow)
        gx = col2im(cols_grad, ctx.x_shape, kh, kw, ctx.stride, ctx.padding)
        return (gx, None, None, None)


class AvgPool2d(Function):
    """Average pooling."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel_size=2, stride=None, padding=0) -> np.ndarray:
        kh, kw = _pair(kernel_size)
        stride = _pair(stride if stride is not None else kernel_size)
        padding = _pair(padding)
        cols = im2col(x, kh, kw, stride, padding)
        out = cols.mean(axis=(2, 3))
        ctx.kernel = (kh, kw)
        ctx.stride, ctx.padding = stride, padding
        ctx.x_shape = x.shape
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        kh, kw = ctx.kernel
        n, c, h, w = ctx.x_shape
        grad = np.asarray(grad)
        oh, ow = grad.shape[2], grad.shape[3]
        cols_grad = np.broadcast_to(
            grad[:, :, None, None] / (kh * kw), (n, c, kh, kw, oh, ow)
        ).astype(grad.dtype)
        gx = col2im(cols_grad, ctx.x_shape, kh, kw, ctx.stride, ctx.padding)
        return (gx, None, None, None)


class UpsampleNearest2d(Function):
    """Nearest-neighbour upsampling by an integer scale factor (GAN generator)."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, scale_factor: int = 2) -> np.ndarray:
        s = int(scale_factor)
        ctx.scale = s
        return x.repeat(s, axis=2).repeat(s, axis=3)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        s = ctx.scale
        grad = np.asarray(grad)
        n, c, h, w = grad.shape
        gx = grad.reshape(n, c, h // s, s, w // s, s).sum(axis=(3, 5))
        return (gx, None)
