"""Minimal reverse-mode differentiation over dense float64 arrays.

Everything downstream (temporal warping, attention rearrangement, offset
masks, the metric head) is composed from the primitives in this module.
Gradients are computed by recording every primitive application on an
explicit :class:`Tape` and replaying the record backwards; the record is a
plain list, so tests can inspect exactly what ran and in which order.
Backward consumes a tape: each entry drops its backward closure, and with it
the arrays the closure saved, so a tape is freed by reference counting as
soon as the caller drops it, without waiting for the cycle collector.

Conventions:

- all values are float64 ``numpy`` arrays; outputs are marked read-only so
  accidental in-place mutation of a recorded value fails loudly,
- non-differentiable points use subgradients: ``clamp`` passes zero outside
  its range, max pooling routes gradient to the first maximal element,
- broadcasting follows numpy; backward passes sum gradients back over
  broadcast axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "Parameter",
    "Tape",
    "Var",
    "GradCheckReport",
    "as_tensor",
    "finite_diff_gradcheck",
]


def as_tensor(x) -> Array:
    """Coerce to a C-ordered float64 array (0-d allowed for scalars)."""
    return np.asarray(x, dtype=np.float64, order="C")


def _frozen(a: Array) -> Array:
    """Mark an op result read-only. Fresh results are frozen in place; views
    of already-frozen inputs are harmless to freeze again."""
    out = np.asarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


class Parameter:
    """A trainable array with a same-shaped gradient buffer.

    Gradients accumulate additively across :meth:`Tape.backward` calls, one
    per tape since backward consumes its tape, and must be zeroed explicitly
    between optimization steps.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str):
        self.name = name
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@dataclass
class _Entry:
    """One recorded primitive application."""

    op: str
    inputs: tuple[int, ...]
    output: int
    # Maps the output gradient to one gradient per input slot (None for
    # inputs that need no gradient, e.g. constants). None once backward ran.
    backward: Callable[[Array], tuple[Array | None, ...]] | None


class Var:
    """Handle to a value living at a slot of a tape."""

    __slots__ = ("tape", "slot", "value")

    def __init__(self, tape: "Tape", slot: int, value: Array):
        self.tape = tape
        self.slot = slot
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(slot={self.slot}, shape={self.value.shape})"


class Tape:
    """Explicit computation record.

    With ``grad=False`` the same primitives run forward-only and record
    nothing, which keeps evaluation and training on a single code path.

    :meth:`backward` runs once per tape. It consumes the tape: every entry
    keeps its ``op``, ``inputs`` and ``output`` but drops its backward
    closure. The closures hold the saved arrays and the :class:`Var` handles
    that point back at the tape, so dropping them frees the arrays during the
    pass and leaves no reference cycle behind.
    """

    def __init__(self, grad: bool = True):
        self.grad_enabled = grad
        self._consumed = False
        self.entries: list[_Entry] = []
        self._num_slots = 0
        self._params: list[tuple[int, Parameter]] = []

    def _new_slot(self) -> int:
        s = self._num_slots
        self._num_slots += 1
        return s

    def const(self, value) -> Var:
        """A leaf that receives no gradient. The value is copied, so the
        caller's array is neither aliased nor frozen."""
        copied = np.array(value, dtype=np.float64, order="C")
        return Var(self, self._new_slot(), _frozen(copied))

    def param(self, p: Parameter) -> Var:
        """A leaf whose gradient accumulates into ``p.grad``."""
        v = Var(self, self._new_slot(), _frozen(p.value.copy()))
        if self.grad_enabled:
            self._params.append((v.slot, p))
        return v

    def record(self, op: str, value: Array, inputs: Sequence[Var], backward) -> Var:
        for v in inputs:
            if v.tape is not self:
                raise ValueError(f"{op}: input belongs to a different tape")
        out = Var(self, self._new_slot(), _frozen(value))
        if self.grad_enabled:
            self.entries.append(
                _Entry(op, tuple(v.slot for v in inputs), out.slot, backward)
            )
        return out

    def backward(self, loss: Var) -> None:
        """Accumulate d(loss)/d(param) into every watched Parameter, consuming the tape."""
        if not self.grad_enabled:
            raise RuntimeError("backward on a forward-only tape")
        if self._consumed:
            raise RuntimeError("backward on a consumed tape: each tape runs backward once")
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        self._consumed = True
        grads: dict[int, Array] = {loss.slot: np.ones_like(loss.value)}
        for entry in reversed(self.entries):
            g_out = grads.pop(entry.output, None)
            if g_out is None:
                continue
            g_inputs = entry.backward(g_out)
            entry.backward = None
            for slot, g in zip(entry.inputs, g_inputs):
                if g is None:
                    continue
                acc = grads.get(slot)
                if acc is None:
                    grads[slot] = g.copy() if g.base is not None or not g.flags.owndata else g
                else:
                    acc += g
        for entry in self.entries:  # those no gradient reached
            entry.backward = None
        for slot, p in self._params:
            g = grads.get(slot)
            if g is not None:
                p.grad += g.reshape(p.value.shape)


# ---------------------------------------------------------------------------
# broadcasting helpers


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` back down to ``shape`` after a broadcast forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_finite(op: str, value: Array) -> None:
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"{op}: produced non-finite values")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Var, b: Var) -> Var:
    out = a.value + b.value

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return a.tape.record("add", out, (a, b), bwd)


def sub(a: Var, b: Var) -> Var:
    out = a.value - b.value

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return a.tape.record("sub", out, (a, b), bwd)


def mul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    out = av * bv

    def bwd(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return a.tape.record("mul", out, (a, b), bwd)


def div(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = av / bv
    _check_finite("div", out)

    def bwd(g):
        return (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        )

    return a.tape.record("div", out, (a, b), bwd)


def neg(a: Var) -> Var:
    return a.tape.record("neg", -a.value, (a,), lambda g: (-g,))


def affine(a: Var, gain: float, shift: float = 0.0) -> Var:
    """Elementwise ``gain * a + shift`` with ordinary float constants."""
    out = gain * a.value + shift
    return a.tape.record("affine", out, (a,), lambda g: (gain * g,))


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a: Var) -> Var:
    av = a.value
    out = np.maximum(av, 0.0)
    return a.tape.record("relu", out, (a,), lambda g: (g * (av > 0.0),))


def sigmoid(a: Var) -> Var:
    out = 1.0 / (1.0 + np.exp(-a.value))
    return a.tape.record("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return a.tape.record("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a: Var) -> Var:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.exp(a.value)
    _check_finite("exp", out)
    return a.tape.record("exp", out, (a,), lambda g: (g * out,))


def log(a: Var) -> Var:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log(a.value)
    _check_finite("log", out)
    av = a.value
    return a.tape.record("log", out, (a,), lambda g: (g / av,))


def sqrt(a: Var) -> Var:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.sqrt(a.value)
    _check_finite("sqrt", out)
    return a.tape.record("sqrt", out, (a,), lambda g: (g / (2.0 * out),))


def clamp(a: Var, lo: float, hi: float) -> Var:
    """Clip to [lo, hi]; subgradient is zero outside the range."""
    av = a.value
    out = np.clip(av, lo, hi)
    inside = (av > lo) & (av < hi)
    return a.tape.record("clamp", out, (a,), lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.value.shape
    out = a.value.reshape(shape)
    return a.tape.record("reshape", out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Var, axes: tuple[int, ...]) -> Var:
    inv = tuple(np.argsort(axes))
    out = np.transpose(a.value, axes)
    return a.tape.record("transpose", out, (a,), lambda g: (np.transpose(g, inv),))


def concat(parts: Sequence[Var], axis: int = 0) -> Var:
    tape = parts[0].tape
    sizes = [p.value.shape[axis] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return tape.record("concat", out, tuple(parts), bwd)


def take(a: Var, index: int, axis: int = 0) -> Var:
    """Select one slice along ``axis`` (keeps the remaining axes)."""
    out = np.take(a.value, index, axis=axis)
    shape = a.value.shape

    def bwd(g):
        full = np.zeros(shape)
        sl = [slice(None)] * len(shape)
        sl[axis] = index
        full[tuple(sl)] = g
        return (full,)

    return a.tape.record("take", out, (a,), bwd)


def stack_vec(scalars: Sequence[Var]) -> Var:
    """Stack scalar vars into a 1-D vector."""
    tape = scalars[0].tape
    out = np.array([float(s.value) for s in scalars])

    def bwd(g):
        return tuple(np.asarray(g[i]).reshape(s.value.shape) for i, s in enumerate(scalars))

    return tape.record("stack_vec", out, tuple(scalars), bwd)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a: Var, axis=None, keepdims: bool = False) -> Var:
    av = a.value
    out = av.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, av.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    return a.tape.record("sum", out, (a,), bwd)


def reduce_mean(a: Var, axis=None, keepdims: bool = False) -> Var:
    av = a.value
    out = av.mean(axis=axis, keepdims=keepdims)
    count = av.size if axis is None else np.prod(
        [av.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / count, av.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, av.shape).copy(),)

    return a.tape.record("mean", out, (a,), bwd)


# ---------------------------------------------------------------------------
# softmax


def softmax(a: Var, axis: int) -> Var:
    """Softmax along ``axis``, stabilized by max subtraction.

    Every slice along the axis sums to one; values lie in [0, 1].
    """
    av = a.value
    if av.ndim == 0 or not -av.ndim <= axis < av.ndim:
        raise ValueError(f"softmax: invalid axis {axis} for shape {av.shape}")
    if av.shape[axis] == 0:
        raise ValueError("softmax: empty axis")
    shifted = av - av.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return a.tape.record("softmax", out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear maps


def matmul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = av @ bv

    def bwd(g):
        return g @ bv.T, av.T @ g

    return a.tape.record("matmul", out, (a, b), bwd)


def linear_project(x: Var, weight: Var, bias: Var | None = None) -> Var:
    """Affine map over the trailing axis: ``out[..., j] = sum_i x[..., i] W[i, j] (+ b[j])``.

    Applied independently at every leading index, so on a feature map this is
    the same thing as a 1x1 convolution.
    """
    xv, wv = x.value, weight.value
    if xv.shape[-1] != wv.shape[0]:
        raise ValueError(
            f"linear_project: trailing dim {xv.shape[-1]} != weight rows {wv.shape[0]}"
        )
    out = xv @ wv
    if bias is not None:
        if bias.value.shape != (wv.shape[1],):
            raise ValueError("linear_project: bias shape mismatch")
        out = out + bias.value

    lead = xv.shape[:-1]

    def bwd(g):
        g2 = g.reshape(-1, wv.shape[1])
        x2 = xv.reshape(-1, wv.shape[0])
        gx = (g2 @ wv.T).reshape(xv.shape)
        gw = x2.T @ g2
        if bias is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    ins = (x, weight) if bias is None else (x, weight, bias)
    return x.tape.record("linear_project", out, ins, bwd)


def channel_linear(x: Var, weight: Var, bias: Var | None = None) -> Var:
    """Affine map over the leading (channel) axis of ``x``.

    ``out[j, ...] = sum_i W[i, j] * x[i, ...] (+ b[j])`` — the channel-first
    twin of :func:`linear_project`.
    """
    xv, wv = x.value, weight.value
    if xv.shape[0] != wv.shape[0]:
        raise ValueError(
            f"channel_linear: leading dim {xv.shape[0]} != weight rows {wv.shape[0]}"
        )
    out = np.tensordot(wv, xv, axes=([0], [0]))  # (C_out, ...)
    if bias is not None:
        if bias.value.shape != (wv.shape[1],):
            raise ValueError("channel_linear: bias shape mismatch")
        out = out + bias.value.reshape((-1,) + (1,) * (xv.ndim - 1))

    def bwd(g):
        gx = np.tensordot(wv, g, axes=([1], [0]))
        gw = np.tensordot(xv.reshape(xv.shape[0], -1), g.reshape(g.shape[0], -1).T, axes=1)
        if bias is None:
            return gx, gw
        gb = g.reshape(g.shape[0], -1).sum(axis=1)
        return gx, gw, gb

    ins = (x, weight) if bias is None else (x, weight, bias)
    return x.tape.record("channel_linear", out, ins, bwd)


# ---------------------------------------------------------------------------
# spatio-temporal primitives


def global_avg_pool_spatial(f: Var) -> Var:
    """Mean over the trailing two (spatial) axes of a C,T,H,W map -> C,T."""
    fv = f.value
    if fv.ndim != 4:
        raise ValueError(f"global_avg_pool_spatial expects rank 4, got {fv.ndim}")
    h, w = fv.shape[2], fv.shape[3]
    out = fv.mean(axis=(2, 3))

    def bwd(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), fv.shape).copy(),)

    return f.tape.record("gap_spatial", out, (f,), bwd)


def concat_channels(a: Var, b: Var) -> Var:
    """Stack two C,T,H,W maps along channels; trailing dims must agree."""
    if a.value.shape[1:] != b.value.shape[1:]:
        raise ValueError(
            f"concat_channels: trailing dims differ {a.value.shape} vs {b.value.shape}"
        )
    return concat((a, b), axis=0)


def mix_time(m: Var, f: Var) -> Var:
    """Rearrange a map along time: ``out[:, t] = sum_s m[t, s] * f[:, s]``.

    ``m`` is T x T, ``f`` is C,T,H,W; each output timestep is a mixture of
    input timesteps with weights from the matching row of ``m``.
    """
    mv, fv = m.value, f.value
    if mv.ndim != 2 or mv.shape[0] != mv.shape[1] or fv.ndim != 4 or fv.shape[1] != mv.shape[0]:
        raise ValueError(f"mix_time: incompatible shapes {mv.shape} and {fv.shape}")
    out = np.einsum("ts,cshw->cthw", mv, fv, optimize=True)

    def bwd(g):
        gm = np.einsum("cthw,cshw->ts", g, fv, optimize=True)
        gf = np.einsum("ts,cthw->cshw", mv, g, optimize=True)
        return gm, gf

    return m.tape.record("mix_time", out, (m, f), bwd)


def conv1d_temporal(x: Var, weight: Var, bias: Var | None = None) -> Var:
    """Temporal convolution of a C,T sequence, kernel 3, zero padding 1."""
    xv, wv = x.value, weight.value
    c_out, c_in, k = wv.shape
    if k != 3 or xv.ndim != 2 or xv.shape[0] != c_in:
        raise ValueError(f"conv1d_temporal: bad shapes {xv.shape} vs {wv.shape}")
    t = xv.shape[1]
    xp = np.pad(xv, ((0, 0), (1, 1)))
    out = np.zeros((c_out, t))
    for j in range(3):
        out += wv[:, :, j] @ xp[:, j : j + t]
    if bias is not None:
        out = out + bias.value[:, None]

    def bwd(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(wv)
        for j in range(3):
            gxp[:, j : j + t] += wv[:, :, j].T @ g
            gw[:, :, j] = g @ xp[:, j : j + t].T
        gx = gxp[:, 1 : 1 + t]
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=1)

    ins = (x, weight) if bias is None else (x, weight, bias)
    return x.tape.record("conv1d_temporal", out, ins, bwd)


_CONV3D_TAPS = [(kt, kh, kw) for kt in range(3) for kh in range(3) for kw in range(3)]


def _conv3d_patches(xv: Array) -> Array:
    """All 3x3x3 windows of a (B,C,T,H,W) block as a (B*T*H*W, 27*C) matrix.

    Channels-last staging keeps each tap's copy contiguous in C, and the
    resulting matrix feeds a single GEMM; the same matrix is reused by the
    weight-gradient GEMM in the backward pass.
    """
    b, c, t, h, w = xv.shape
    xt = np.ascontiguousarray(xv.transpose(0, 2, 3, 4, 1))  # (B,T,H,W,C)
    xp = np.pad(xt, ((0, 0), (1, 1), (1, 1), (1, 1), (0, 0)))
    patches = np.empty((b, t, h, w, 27, c))
    for k, (kt, kh, kw) in enumerate(_CONV3D_TAPS):
        patches[..., k, :] = xp[:, kt : kt + t, kh : kh + h, kw : kw + w, :]
    return patches.reshape(b * t * h * w, 27 * c)


def conv3d(x: Var, weight: Var, bias: Var | None = None) -> Var:
    """3-D convolution over (T,H,W), kernel 3, zero padding 1, stride 1.

    ``x`` is (B, C_in, T, H, W) and ``weight`` is (C_out, C_in, 3, 3, 3).
    Both directions run as plain matrix products against a shared
    windowed-patch matrix; the input gradient scatters tap columns back with
    27 vectorized slice additions.
    """
    xv, wv = x.value, weight.value
    if xv.ndim != 5 or wv.ndim != 5 or wv.shape[1] != xv.shape[1] or wv.shape[2:] != (3, 3, 3):
        raise ValueError(f"conv3d: bad shapes {xv.shape} vs {wv.shape}")
    b, c_in, t, h, w = xv.shape
    c_out = wv.shape[0]
    patches = _conv3d_patches(xv)  # (B*THW, 27*C_in)
    wmat = np.ascontiguousarray(wv.transpose(2, 3, 4, 1, 0).reshape(27 * c_in, c_out))
    out2 = patches @ wmat  # (B*THW, C_out)
    if bias is not None:
        out2 = out2 + bias.value
    out = np.ascontiguousarray(out2.reshape(b, t, h, w, c_out).transpose(0, 4, 1, 2, 3))

    def bwd(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 4, 1)).reshape(b * t * h * w, c_out)
        gw_mat = patches.T @ g2  # (27*C_in, C_out)
        gw = gw_mat.reshape(3, 3, 3, c_in, c_out).transpose(4, 3, 0, 1, 2)
        gcol = (g2 @ wmat.T).reshape(b, t, h, w, 27, c_in)
        gxp = np.zeros((b, t + 2, h + 2, w + 2, c_in))
        for k, (kt, kh, kw) in enumerate(_CONV3D_TAPS):
            gxp[:, kt : kt + t, kh : kh + h, kw : kw + w, :] += gcol[..., k, :]
        gx = np.ascontiguousarray(gxp[:, 1 : 1 + t, 1 : 1 + h, 1 : 1 + w, :].transpose(0, 4, 1, 2, 3))
        if bias is None:
            return gx, np.ascontiguousarray(gw)
        return gx, np.ascontiguousarray(gw), g2.sum(axis=0)

    ins = (x, weight) if bias is None else (x, weight, bias)
    return x.tape.record("conv3d", out, ins, bwd)


def max_pool_spatial2(x: Var) -> Var:
    """2x2 spatial max pool, stride 2, trailing odd row/column dropped.

    Gradient is routed to the first maximal element of each window in
    row-major window order.
    """
    xv = x.value
    if xv.ndim != 5:
        raise ValueError("max_pool_spatial2 expects (B,C,T,H,W)")
    b, c, t, h, w = xv.shape
    ho, wo = h // 2, w // 2
    if ho < 1 or wo < 1:
        raise ValueError(f"max_pool_spatial2: spatial dims too small {h}x{w}")
    trimmed = xv[:, :, :, : 2 * ho, : 2 * wo]
    # candidate order (0,0),(0,1),(1,0),(1,1); argmax keeps the first max
    cands = np.stack(
        [
            trimmed[:, :, :, 0::2, 0::2],
            trimmed[:, :, :, 0::2, 1::2],
            trimmed[:, :, :, 1::2, 0::2],
            trimmed[:, :, :, 1::2, 1::2],
        ],
        axis=-1,
    )
    idx = cands.argmax(axis=-1)
    out = np.take_along_axis(cands, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        gx = np.zeros_like(xv)
        views = (
            gx[:, :, :, 0 : 2 * ho : 2, 0 : 2 * wo : 2],
            gx[:, :, :, 0 : 2 * ho : 2, 1 : 2 * wo : 2],
            gx[:, :, :, 1 : 2 * ho : 2, 0 : 2 * wo : 2],
            gx[:, :, :, 1 : 2 * ho : 2, 1 : 2 * wo : 2],
        )
        for k, view in enumerate(views):
            view += g * (idx == k)
        return (gx,)

    return x.tape.record("max_pool_spatial2", out, (x,), bwd)


def global_max_pool_spatial(x: Var) -> Var:
    """Max over the spatial axes of (B,C,T,H,W) -> (B,C,T); first-max routing."""
    xv = x.value
    if xv.ndim != 5:
        raise ValueError("global_max_pool_spatial expects (B,C,T,H,W)")
    b, c, t, h, w = xv.shape
    flat = xv.reshape(b, c, t, h * w)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        return (gflat.reshape(xv.shape),)

    return x.tape.record("global_max_pool_spatial", out, (x,), bwd)


def batchnorm_channels(
    x: Var,
    gamma: Var,
    beta: Var,
    running_mean: Array,
    running_var: Array,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Var:
    """Per-channel normalization of a (B,C,T,H,W) block.

    In training mode the statistics come from the current block (and the
    running buffers are updated in place); in eval mode the frozen running
    statistics are used and the op is a plain per-channel affine map.
    """
    xv = x.value
    if xv.ndim != 5:
        raise ValueError("batchnorm_channels expects (B,C,T,H,W)")
    axes = (0, 2, 3, 4)
    gv, bv = gamma.value, beta.value
    gshape = (1, -1, 1, 1, 1)
    if training:
        mean = xv.mean(axis=axes)
        var = xv.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (xv - mean.reshape(gshape)) * inv.reshape(gshape)
        out = gv.reshape(gshape) * xhat + bv.reshape(gshape)
        n = xv.size // xv.shape[1]

        def bwd(g):
            gg = (g * xhat).sum(axis=axes)
            gb = g.sum(axis=axes)
            gx_hat = g * gv.reshape(gshape)
            gx = (
                gx_hat
                - gx_hat.mean(axis=axes, keepdims=True)
                - xhat * (gx_hat * xhat).mean(axis=axes, keepdims=True)
            ) * inv.reshape(gshape)
            return gx, gg, gb

        return x.tape.record("batchnorm_train", out, (x, gamma, beta), bwd)

    inv = 1.0 / np.sqrt(running_var + eps)
    scale = gv * inv
    out = xv * scale.reshape(gshape) + (bv - running_mean * scale).reshape(gshape)

    def bwd_eval(g):
        gx = g * scale.reshape(gshape)
        xhat = (xv - running_mean.reshape(gshape)) * inv.reshape(gshape)
        gg = (g * xhat).sum(axes)
        gb = g.sum(axes)
        return gx, gg, gb

    return x.tape.record("batchnorm_eval", out, (x, gamma, beta), bwd_eval)


def time_linear_sample(f: Var, scale: Var, shift: Var) -> Var:
    """Resample a C,T,H,W sequence through the temporal affine map.

    Output frame ``i`` reads the input at normalized time
    ``shift + scale * i/(T-1)``, linearly interpolating between the two
    neighbouring frames. Differentiable in the frames and in both warp
    parameters (the integer frame index is treated as locally constant).
    """
    fv = f.value
    if fv.ndim != 4:
        raise ValueError("time_linear_sample expects C,T,H,W")
    t = fv.shape[1]
    if t < 2:
        raise ValueError("time_linear_sample needs T >= 2")
    a = float(scale.value)
    b = float(shift.value)
    if not (0.0 < a <= 1.0 + 1e-12 and -1e-12 <= b and b + a <= 1.0 + 1e-9):
        raise ValueError(f"warp parameters out of range: scale={a}, shift={b}")
    i = np.arange(t)
    s = (b + a * i / (t - 1)) * (t - 1)  # source frame positions
    lo = np.clip(np.floor(s).astype(int), 0, t - 1)
    hi = np.clip(lo + 1, 0, t - 1)
    frac = s - lo
    out = fv[:, lo] * (1.0 - frac)[None, :, None, None] + fv[:, hi] * frac[None, :, None, None]

    def bwd(g):
        gf = np.zeros_like(fv)
        np.add.at(gf, (slice(None), lo), g * (1.0 - frac)[None, :, None, None])
        np.add.at(gf, (slice(None), hi), g * frac[None, :, None, None])
        diff = fv[:, hi] - fv[:, lo]  # d out / d frac
        gfrac = (g * diff).sum(axis=(0, 2, 3))
        # d s_i / d scale = i, d s_i / d shift = T-1; d frac/d s = 1 a.e.
        ga = np.array((gfrac * i).sum()).reshape(scale.value.shape)
        gb = np.array((gfrac * (t - 1)).sum()).reshape(shift.value.shape)
        return gf, ga, gb

    return f.tape.record("time_linear_sample", out, (f, scale, shift), bwd)


def offset_masks(offsets: Var, height: int, width: int, gamma: float = 3.0) -> Var:
    """Soft rectangular windows from per-frame grid offsets.

    ``offsets`` is (T, 2) as (x, y) in cells relative to the grid centre.
    Each frame's mask is the outer product of two 1-D profiles that are 1
    within distance 1 of the centre, fall linearly with slope ``gamma``, and
    are 0 beyond distance ``1 + 1/gamma``.
    """
    ov = offsets.value
    if ov.ndim != 2 or ov.shape[1] != 2:
        raise ValueError("offset_masks expects (T, 2) offsets")
    t = ov.shape[0]
    cx = (width - 1) / 2.0 + ov[:, 0]  # (T,)
    cy = (height - 1) / 2.0 + ov[:, 1]
    xs = np.arange(width)
    ys = np.arange(height)

    def profile(coords, centers):
        d = np.abs(coords[None, :] - centers[:, None])  # (T, n)
        m = np.where(d < 1.0, 1.0, np.maximum(0.0, 1.0 - gamma * (d - 1.0)))
        on_ramp = (d >= 1.0) & (d < 1.0 + 1.0 / gamma)
        # d m / d center = gamma * sign(coord - center) on the ramp
        dm_dc = np.where(on_ramp, gamma * np.sign(coords[None, :] - centers[:, None]), 0.0)
        return m, dm_dc

    mx, dmx = profile(xs, cx)  # (T, W)
    my, dmy = profile(ys, cy)  # (T, H)
    out = my[:, :, None] * mx[:, None, :]  # (T, H, W)

    def bwd(g):
        gx = (g * my[:, :, None] * dmx[:, None, :]).sum(axis=(1, 2))
        gy = (g * dmy[:, :, None] * mx[:, None, :]).sum(axis=(1, 2))
        return (np.stack([gx, gy], axis=1),)

    return offsets.tape.record("offset_masks", out, (offsets,), bwd)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckReport:
    """Outcome of comparing backward gradients with central differences."""

    max_rel_err: float = 0.0
    checked: int = 0
    failures: list[tuple[str, int, float]] = field(default_factory=list)
    tolerance: float = 1e-4

    @property
    def passed(self) -> bool:
        return not self.failures and self.checked > 0

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: {self.checked} coordinates, max rel err "
            f"{self.max_rel_err:.3e} (tol {self.tolerance:.1e})"
        )


def _rel_err(numeric: float, analytic: float, abs_floor: float) -> float:
    denom = max(abs(numeric), abs(analytic))
    if denom < abs_floor:
        return abs(numeric - analytic)
    return abs(numeric - analytic) / denom


def finite_diff_gradcheck(
    fn: Callable[[Tape], Var],
    params: Sequence[Parameter],
    *,
    step: float = 1e-3,
    tolerance: float = 1e-4,
    rng: np.random.Generator | None = None,
    max_coords_per_param: int = 8,
    abs_floor: float = 1e-8,
    retry_steps: Sequence[float] = (2.5e-4, 5e-5),
) -> GradCheckReport:
    """Check backward gradients of a scalar function against central differences.

    ``fn`` must be deterministic: called with a recording tape once to obtain
    analytic gradients, then forward-only at perturbed parameter values. For
    each sampled coordinate the relative error between the two estimates is
    recorded; coordinates that fail at the base step are re-probed at smaller
    steps, which filters out evaluations that straddled a subgradient kink
    while leaving genuine gradient bugs failing.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = rng or np.random.default_rng(0)

    for p in params:
        p.zero_grad()
    tape = Tape(grad=True)
    loss = fn(tape)
    base = float(loss.value)
    if not math.isfinite(base):
        raise FloatingPointError("gradcheck: objective is not finite")
    tape.backward(loss)

    def value_at() -> float:
        v = float(fn(Tape(grad=False)).value)
        if not math.isfinite(v):
            raise FloatingPointError("gradcheck: objective is not finite")
        return v

    report = GradCheckReport(tolerance=tolerance)
    for p in params:
        n = p.value.size
        k = min(max_coords_per_param, n)
        coords = rng.choice(n, size=k, replace=False) if n > k else np.arange(n)
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for c in coords:
            analytic = float(gflat[c])
            orig = float(flat[c])
            err = math.inf
            for h in (step, *retry_steps):
                flat[c] = orig + h
                up = value_at()
                flat[c] = orig - h
                down = value_at()
                flat[c] = orig
                numeric = (up - down) / (2.0 * h)
                err = _rel_err(numeric, analytic, abs_floor)
                if err <= tolerance:
                    break
            report.checked += 1
            report.max_rel_err = max(report.max_rel_err, err)
            if err > tolerance:
                report.failures.append((p.name, int(c), err))
    return report
