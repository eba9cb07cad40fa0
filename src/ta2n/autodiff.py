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
- non-differentiable points use subgradients: ReLU passes zero at 0, max
  pooling routes gradient to the first maximal element,
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
                if g is not None:  # out of place: g may alias another slot's gradient, or be 0-d
                    acc = grads.get(slot)
                    grads[slot] = np.asarray(g if acc is None else acc + g)
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


def stack(parts: Sequence[Var]) -> Var:
    """Stack same-shaped vars along a new leading axis."""
    out = np.stack([p.value for p in parts])
    return parts[0].tape.record("stack", out, tuple(parts), lambda g: tuple(g))


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a: Var, axis=None) -> Var:
    av = a.value
    out = av.sum(axis=axis)

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    return a.tape.record("sum", out, (a,), bwd)


def reduce_mean(a: Var, axis=None) -> Var:
    av = a.value
    out = av.mean(axis=axis)
    count = av.size if axis is None else np.prod(
        [av.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, av.shape).copy(),)

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


def channel_linear(x: Var, weight: Var, bias: Var | None = None) -> Var:
    """Affine map over the leading (channel) axis of ``x``.

    ``out[j, ...] = sum_i W[i, j] * x[i, ...] (+ b[j])``, applied
    independently at every trailing index, so on a feature map this is a 1x1
    convolution and on a 1-D vector a plain ``W.T @ x (+ b)``.
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


def mix_time(m: Var, f: Var) -> Var:
    """Rearrange maps along time: ``out[..., :, t] = sum_s m[..., t, s] * f[..., :, s]``.

    ``m`` is (..., T, T) and ``f`` is (..., C, T, H, W); their leading axes
    broadcast, so one call mixes many maps by many matrices. Each output
    timestep mixes input timesteps with the weights of a row of ``m``.
    """
    mv, fv = m.value, f.value
    if mv.ndim < 2 or fv.ndim < 4 or not mv.shape[-2] == mv.shape[-1] == fv.shape[-3]:
        raise ValueError(f"mix_time: incompatible shapes {mv.shape} and {fv.shape}")
    m4 = mv[..., None, :, :]  # (..., 1, T, T), broadcast over channels
    f3 = fv.reshape(*fv.shape[:-2], -1)  # (..., C, T, H*W)
    out = m4 @ f3
    out = out.reshape(*out.shape[:-1], *fv.shape[-2:])

    def bwd(g):
        g3 = g.reshape(*g.shape[:-2], -1)
        gm = (g3 @ np.swapaxes(f3, -1, -2)).sum(axis=-3)
        gf = np.swapaxes(m4, -1, -2) @ g3
        return _unbroadcast(gm, mv.shape), _unbroadcast(gf, f3.shape).reshape(fv.shape)

    return m.tape.record("mix_time", out, (m, f), bwd)


def conv1d_temporal(x: Var, weight: Var, bias: Var) -> Var:
    """Temporal convolution of each sequence of a (C, ..., T) block, kernel 3, zero padding 1."""
    xv, wv = x.value, weight.value
    c_out, c_in, k = wv.shape
    if k != 3 or xv.ndim < 2 or xv.shape[0] != c_in:
        raise ValueError(f"conv1d_temporal: bad shapes {xv.shape} vs {wv.shape}")
    t = xv.shape[-1]
    xp = np.pad(xv.reshape(c_in, -1, t), ((0, 0), (0, 0), (1, 1)))  # (C_in, B, T+2)
    out = np.zeros((c_out, xp.shape[1], t))
    for j in range(3):
        out += np.tensordot(wv[:, :, j], xp[:, :, j : j + t], axes=1)
    out += bias.value[:, None, None]
    out = out.reshape((c_out,) + xv.shape[1:])

    def bwd(g):
        g3 = g.reshape(c_out, -1, t)
        gxp = np.zeros_like(xp)
        gw = np.empty_like(wv)
        for j in range(3):
            gxp[:, :, j : j + t] += np.tensordot(wv[:, :, j].T, g3, axes=1)
            gw[:, :, j] = np.tensordot(g3, xp[:, :, j : j + t], axes=([1, 2], [1, 2]))
        return gxp[:, :, 1 : 1 + t].reshape(xv.shape), gw, g3.sum(axis=(1, 2))

    return x.tape.record("conv1d_temporal", out, (x, weight, bias), bwd)


_SPATIAL_TAPS = [(kh, kw) for kh in range(3) for kw in range(3)]


def _tap_window(d: int, n: int) -> tuple[slice, slice]:
    """(output, input) slices along one spatial axis of a tap displaced by ``d`` in {-1, 0, 1}.

    Output position ``i`` reads input position ``i + d``; positions whose
    input falls outside [0, n) are not covered and stay zero.
    """
    return slice(max(0, -d), n - max(0, d)), slice(max(0, d), n + min(0, d))


def _spatial_patches(xv: Array) -> Array:
    """All 3x3 spatial windows of a (B,C,T,H,W) block as a (9*C, B*T*H*W) matrix.

    Row ``k*C + c`` is channel ``c`` seen through spatial tap ``k``,
    zero-padded at the border. Time is not windowed: the three temporal taps
    are combined after the GEMM, so a channel takes 9 rows, not 27.
    """
    b, c, t, h, w = xv.shape
    xt = xv.transpose(1, 0, 2, 3, 4)
    patches = np.zeros((9, c, b, t, h, w))
    for k, (kh, kw) in enumerate(_SPATIAL_TAPS):
        (oh, ih), (ow, iw) = _tap_window(kh - 1, h), _tap_window(kw - 1, w)
        patches[k, :, :, :, oh, ow] = xt[:, :, :, ih, iw]
    return patches.reshape(9 * c, b * t * h * w)


def _tap_responses(xv: Array, wv: Array) -> tuple[Array, Array, Array]:
    """Every frame's response to every temporal slice of a 3x3x3 kernel.

    Returns (patches, tap matrix, responses). ``responses[o, k, b, s]`` is
    frame ``s`` of video ``b`` through the 3x3 spatial taps of ``wv[o, :, k]``,
    over the H*W positions: one (3*C_out, 9*C_in) GEMM against the patches.
    """
    b, c_in, t, h, w = xv.shape
    c_out = wv.shape[0]
    patches = _spatial_patches(xv)
    taps = np.ascontiguousarray(wv.transpose(0, 2, 3, 4, 1).reshape(3 * c_out, 9 * c_in))
    return patches, taps, (taps @ patches).reshape(c_out, 3, b, t, h * w)


def _tap_responses_grad(g: Array, patches: Array, taps: Array, shape) -> tuple[Array, Array]:
    """(input gradient, weight gradient) from the gradient of the tap responses."""
    b, c_in, t, h, w = shape
    c_out = taps.shape[0] // 3
    g = g.reshape(3 * c_out, b * t * h * w)
    gw = (g @ patches.T).reshape(c_out, 3, 3, 3, c_in).transpose(0, 4, 1, 2, 3)
    gcol = (taps.T @ g).reshape(9, c_in, b, t, h, w)
    gx = np.empty((b, c_in, t, h, w))
    gxt = gx.transpose(1, 0, 2, 3, 4)
    gxt[...] = gcol[4]  # the centre tap covers every position
    for k, (kh, kw) in enumerate(_SPATIAL_TAPS):
        if k != 4:
            (oh, ih), (ow, iw) = _tap_window(kh - 1, h), _tap_window(kw - 1, w)
            gxt[:, :, :, ih, iw] += gcol[k, :, :, :, oh, ow]
    return gx, np.ascontiguousarray(gw)


def _sum_taps(resp: Array) -> Array:
    """Plain temporal combine of (C_out, 3, B, T, P) responses -> (B, C_out, T, P).

    ``out[:, :, t] = sum_k resp[:, k, :, t+k-1]``, zero outside [0, T).
    """
    out = resp[:, 1].copy()
    out[:, :, 1:] += resp[:, 0, :, :-1]
    out[:, :, :-1] += resp[:, 2, :, 1:]
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def _sum_taps_grad(g: Array) -> Array:
    """Adjoint of :func:`_sum_taps`: (B, C_out, T, P) -> (C_out, 3, B, T, P)."""
    g = g.transpose(1, 0, 2, 3)
    gr = np.zeros((g.shape[0], 3) + g.shape[1:])
    gr[:, 0, :, :-1] = g[:, :, 1:]
    gr[:, 1] = g
    gr[:, 2, :, 1:] = g[:, :, :-1]
    return gr


def _shift_taps(m: Array) -> Array:
    """(..., T, T) mixes -> (..., T, 3*T): block ``k`` of row ``t`` is row ``t+k-1``, zero outside."""
    t = m.shape[-1]
    out = np.zeros(m.shape[:-1] + (3, t))
    out[..., 1:, 0, :] = m[..., :-1, :]
    out[..., 1, :] = m
    out[..., :-1, 2, :] = m[..., 1:, :]
    return out.reshape(m.shape[:-1] + (3 * t,))


def _shift_taps_grad(g: Array) -> Array:
    """Adjoint of :func:`_shift_taps`: (..., T, 3*T) -> (..., T, T)."""
    t = g.shape[-1] // 3
    g = g.reshape(g.shape[:-1] + (3, t))
    gm = g[..., 1, :].copy()
    gm[..., :-1, :] += g[..., 1:, 0, :]
    gm[..., 1:, :] += g[..., :-1, 2, :]
    return gm


def conv3d(x: Var, weight: Var, bias: Var) -> Var:
    """3-D convolution over (T,H,W), kernel 3, zero padding 1, stride 1.

    ``x`` is (B, C_in, T, H, W) and ``weight`` is (C_out, C_in, 3, 3, 3).
    One GEMM of the kernel's (3*C_out, 9*C_in) tap matrix against a 9-tap
    spatial patch matrix gives each frame's response to each temporal slice
    of the kernel; output frame ``t`` sums slice ``k`` of frame ``t+k-1``.
    Backward is two GEMMs against the same patches plus a 9-tap scatter.
    """
    xv, wv = x.value, weight.value
    if xv.ndim != 5 or wv.ndim != 5 or wv.shape[1] != xv.shape[1] or wv.shape[2:] != (3, 3, 3):
        raise ValueError(f"conv3d: bad shapes {xv.shape} vs {wv.shape}")
    b, _, t, h, w = xv.shape
    c_out = wv.shape[0]
    patches, taps, resp = _tap_responses(xv, wv)
    out = _sum_taps(resp)
    out += bias.value[:, None, None]
    out = out.reshape(b, c_out, t, h, w)

    def bwd(g):
        g4 = g.reshape(b, c_out, t, h * w)
        gx, gw = _tap_responses_grad(_sum_taps_grad(g4), patches, taps, xv.shape)
        return gx, gw, g4.sum(axis=(0, 2, 3))

    return x.tape.record("conv3d", out, (x, weight, bias), bwd)


def pair_conv3d(support: Var, query: Var, mix: Var, weight: Var, bias: Var) -> Var:
    """``conv3d`` of every (query, class) pair stack, without building the stacks.

    ``support`` is (N, C_s, T, H, W), ``query`` is (Q, C_q, T, H, W), ``mix``
    is (Q, N, T, T) and ``weight`` is (C_out, C_s + C_q, 3, 3, 3). Row
    ``q*N + n`` of the (Q*N, C_out, T, H, W) result is ``conv3d(x, weight,
    bias)`` of the channel concatenation ``x`` of ``support[n]`` and
    ``mix_time(mix[q, n], query[q])``.

    The convolution is linear, so with ``weight = [W_s | W_q]`` that row is
    ``conv3d(support[n], W_s) + sum_k shift_k(mix[q, n]) @ Z_k(query[q])``,
    where ``Z_k`` is each query frame through the spatial taps of temporal
    slice ``k`` of ``W_q`` and ``shift_k`` moves the mix's rows by ``k - 1``.
    The tap responses run once per support and once per query video; only
    the T x 3T mix is per pair. Recorded as a ``conv3d`` entry.
    """
    sv, qv, mv, wv = support.value, query.value, mix.value, weight.value
    shapes_ok = (
        sv.ndim == qv.ndim == wv.ndim == 5
        and qv.shape[2:] == sv.shape[2:]
        and wv.shape[1:] == (sv.shape[1] + qv.shape[1], 3, 3, 3)
        and mv.shape == (qv.shape[0], sv.shape[0], sv.shape[2], sv.shape[2])
    )
    if not shapes_ok:
        raise ValueError(
            f"pair_conv3d: bad shapes {sv.shape}, {qv.shape}, {mv.shape} vs {wv.shape}"
        )
    n, c_s, t, h, w = sv.shape
    nq = qv.shape[0]
    c_out = wv.shape[0]
    s_patches, s_taps, s_resp = _tap_responses(sv, wv[:, :c_s])
    q_patches, q_taps, q_resp = _tap_responses(qv, wv[:, c_s:])
    # (Q, 3T, C_out*H*W): a query's tap responses, rows ordered like the shifted mix's columns
    z = np.ascontiguousarray(q_resp.transpose(2, 1, 3, 0, 4)).reshape(nq, 3 * t, c_out * h * w)
    shifted = _shift_taps(mv).reshape(nq, n * t, 3 * t)
    mixed = (shifted @ z).reshape(nq, n, t, c_out, h * w).transpose(0, 1, 3, 2, 4)
    per_class = _sum_taps(s_resp)  # (N, C_out, T, H*W): the support half, once per class
    per_class += bias.value[:, None, None]
    out = np.empty((nq, n, c_out, t, h * w))
    np.add(mixed, per_class, out=out)
    out = out.reshape(nq * n, c_out, t, h, w)

    def bwd(g):
        g5 = g.reshape(nq, n, c_out, t, h * w)
        gs, gws = _tap_responses_grad(_sum_taps_grad(g5.sum(axis=0)), s_patches, s_taps, sv.shape)
        gt = np.ascontiguousarray(g5.transpose(0, 1, 3, 2, 4)).reshape(nq, n * t, c_out * h * w)
        gm = _shift_taps_grad((gt @ z.transpose(0, 2, 1)).reshape(nq, n, t, 3 * t))
        g_resp = (shifted.transpose(0, 2, 1) @ gt).reshape(nq, 3, t, c_out, h * w)
        gq, gwq = _tap_responses_grad(g_resp.transpose(3, 1, 0, 2, 4), q_patches, q_taps, qv.shape)
        gw = np.concatenate([gws, gwq], axis=1)
        return gs, gw, gq, gm, g5.sum(axis=(0, 1, 3, 4))

    return support.tape.record("conv3d", out, (support, weight, query, mix, bias), bwd)


def max_pool_spatial2(x: Var) -> Var:
    """2x2 spatial max pool, stride 2, trailing odd row/column dropped.

    The output is the element-wise maximum of the four strided views of the
    windows' corners. Gradient is routed to the first maximal element of
    each window in row-major window order: backward scans the views in order
    (0,0), (0,1), (1,0), (1,1) and gives each position's gradient to the
    first view whose value equals the output.
    """
    xv = x.value
    if xv.ndim != 5:
        raise ValueError("max_pool_spatial2 expects (B,C,T,H,W)")
    b, c, t, h, w = xv.shape
    ho, wo = h // 2, w // 2
    if ho < 1 or wo < 1:
        raise ValueError(f"max_pool_spatial2: spatial dims too small {h}x{w}")
    windows = [(slice(i, 2 * ho, 2), slice(j, 2 * wo, 2)) for i in (0, 1) for j in (0, 1)]
    views = [xv[:, :, :, rows, cols] for rows, cols in windows]
    out = np.maximum(views[0], views[1])
    np.maximum(out, np.maximum(views[2], views[3]), out=out)

    def bwd(g):
        gx = np.zeros_like(xv)
        rest = g.copy()  # the gradient of the windows not yet routed
        for view, (rows, cols) in zip(views[:-1], windows[:-1]):
            routed = rest * (view == out)
            gx[:, :, :, rows, cols] = routed
            rest -= routed
        rows, cols = windows[-1]
        gx[:, :, :, rows, cols] = rest
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


BN_MOMENTUM = 0.1  # weight of the current block's statistics in the running buffers
BN_EPS = 1e-5


def batchnorm_channels(
    x: Var,
    gamma: Var,
    beta: Var,
    running_mean: Array,
    running_var: Array,
    training: bool,
) -> Var:
    """Per-channel normalization of a (B,C,T,H,W) block.

    In training mode the statistics come from the current block (and the
    running buffers are updated in place); in eval mode the frozen running
    statistics are used and the op is a plain per-channel affine map.

    Training mode works on the (B, C, T*H*W) view: the input is centred once,
    the centred block gives the (biased) variance as its own inner product,
    and scaling it in place gives ``xhat``. Backward is the closed form
    ``gx = gamma * inv * (g - sum(g)/n - xhat * sum(g * xhat)/n)`` with the
    sums per channel (Ioffe & Szegedy 2015), which reuses the two sums that
    are also the gradients of ``beta`` and ``gamma``.
    """
    xv = x.value
    if xv.ndim != 5:
        raise ValueError("batchnorm_channels expects (B,C,T,H,W)")
    axes = (0, 2, 3, 4)
    gv, bv = gamma.value, beta.value
    gshape = (1, -1, 1, 1, 1)
    if training:
        b, c = xv.shape[:2]
        x3 = xv.reshape(b, c, -1)
        n = x3.shape[0] * x3.shape[2]
        mean = x3.mean(axis=(0, 2))
        xhat = x3 - mean[:, None]
        var = np.einsum("bcp,bcp->c", xhat, xhat) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv[:, None]
        out = xhat * gv[:, None]
        out += bv[:, None]

        def bwd(g):
            g3 = g.reshape(b, c, -1)
            gb = g3.sum(axis=(0, 2))
            gg = np.einsum("bcp,bcp->c", g3, xhat)
            scale = gv * inv
            gx = xhat * (-scale * gg / n)[:, None]
            gx += g3 * scale[:, None]
            gx -= (scale * gb / n)[:, None]
            return gx.reshape(xv.shape), gg, gb

        return x.tape.record("batchnorm_train", out.reshape(xv.shape), (x, gamma, beta), bwd)

    inv = 1.0 / np.sqrt(running_var + BN_EPS)
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
    """Resample each video of a (C, ..., T, H, W) block through its temporal affine map.

    ``scale`` and ``shift`` are shaped like the middle batch axes (``()`` for
    one video). Output frame ``i`` of a video reads its input at normalized
    time ``shift + scale * i/(T-1)``, linearly interpolating between the two
    neighbouring frames. Differentiable in the frames and in both warp
    parameters (the integer frame index is treated as locally constant).
    Raises if a window leaves the clip: scale in (0, 1], shift >= 0 and
    shift + scale <= 1.
    """
    fv = f.value
    batch = fv.shape[1:-3]
    if fv.ndim < 4 or scale.shape != batch or shift.shape != batch:
        raise ValueError(f"time_linear_sample expects (C, ..., T, H, W) and batch-shaped warps, "
                         f"got {fv.shape}, {scale.shape}, {shift.shape}")
    c, t = fv.shape[0], fv.shape[-3]
    if t < 2:
        raise ValueError("time_linear_sample needs T >= 2")
    a, b = scale.value.reshape(-1, 1), shift.value.reshape(-1, 1)
    if not np.all((0.0 < a) & (a <= 1.0 + 1e-12) & (-1e-12 <= b) & (b + a <= 1.0 + 1e-9)):
        raise ValueError(f"warp parameters out of range: scale={scale.value}, shift={shift.value}")
    i = np.arange(t)
    s = (b + a * i / (t - 1)) * (t - 1)  # (B, T) source frame positions
    lo = np.clip(np.floor(s).astype(int), 0, t - 1)
    hi = np.clip(lo + 1, 0, t - 1)
    frac = s - lo
    # out[:, v, i] = (1 - frac_vi) f[:, v, lo_vi] + frac_vi f[:, v, hi_vi], one T x T map per video
    v = np.arange(len(s))[:, None]
    sampler = np.zeros((len(s), t, t))
    sampler[v, i, lo] = 1.0 - frac
    sampler[v, i, hi] += frac
    f4 = fv.reshape(c, -1, t, fv.shape[-2] * fv.shape[-1])
    out = (sampler @ f4).reshape(fv.shape)

    def bwd(g):
        g4 = g.reshape(f4.shape)
        gf = (sampler.transpose(0, 2, 1) @ g4).reshape(fv.shape)
        diff = f4[:, v, hi] - f4[:, v, lo]  # d out / d frac
        gfrac = np.einsum("cvtp,cvtp->vt", g4, diff)
        # d s_i / d scale = i, d s_i / d shift = T-1; d frac/d s = 1 a.e.
        ga = (gfrac @ i).reshape(batch)
        gb = (gfrac.sum(axis=1) * (t - 1)).reshape(batch)
        return gf, ga, gb

    return f.tape.record("time_linear_sample", out, (f, scale, shift), bwd)


def offset_masks(offsets: Var, height: int, width: int, gamma: float) -> Var:
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
    # per checked coordinate: (parameter, flat index, error at the first
    # step, ladder rung it stopped at; rung 0 is the first step)
    ladder: list[tuple[str, int, float, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.checked > 0

    @property
    def first_rung_max_err(self) -> float:
        """Largest error at the first step: the margin ``max_rel_err`` hides."""
        return max((err for _, _, err, _ in self.ladder), default=0.0)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lower = sum(1 for *_, rung in self.ladder if rung > 0)
        deepest = max((rung for *_, rung in self.ladder), default=0)
        return (
            f"{status}: {self.checked} coordinates, max rel err "
            f"{self.max_rel_err:.3e} (tol {self.tolerance:.1e}); first step max "
            f"{self.first_rung_max_err:.3e}, {lower} stopped lower (deepest rung {deepest})"
        )


GRADCHECK_STEP_FLOOR = 1e-8


def _rel_err(numeric: float, analytic: float) -> float:
    denom = max(abs(numeric), abs(analytic))
    if denom < 1e-8:
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
) -> GradCheckReport:
    """Check backward gradients of a scalar function against central differences.

    ``fn`` must be deterministic: called with a recording tape once to obtain
    analytic gradients, then forward-only at perturbed parameter values. Each
    sampled coordinate is probed down a ladder of steps that starts at
    ``step`` and divides by 4 while the step stays at or above
    ``GRADCHECK_STEP_FLOOR``; the first step whose central difference agrees
    with backward within ``tolerance`` (relative error, or absolute error
    when both estimates are below 1e-8) passes the coordinate, and the
    smallest step's error is recorded otherwise. The report also keeps each
    coordinate's error at the first step and the rung it stopped at, so a
    pass that needed a smaller step, or passed near the tolerance, shows. A subgradient kink close to
    the evaluation point is thus stepped under rather than straddled, while a
    backward that is wrong stays wrong at every rung.

    A point sitting exactly on a kink (a ReLU at 0, a max pool's tie) has
    no central difference that matches a subgradient at any step. Moving the
    evaluation point off such a kink is the caller's job; the TTM, SC and
    full-model checks under ``tests/`` do it by nudging the zero-initialised
    heads.
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
            h = step
            rung = 0
            while True:
                flat[c] = orig + h
                up = value_at()
                flat[c] = orig - h
                down = value_at()
                flat[c] = orig
                err = _rel_err((up - down) / (2.0 * h), analytic)
                if rung == 0:
                    first_err = err
                if err <= tolerance or h / 4.0 < GRADCHECK_STEP_FLOOR:
                    break
                h /= 4.0
                rung += 1
            report.checked += 1
            report.ladder.append((p.name, int(c), first_err, rung))
            report.max_rel_err = max(report.max_rel_err, err)
            if err > tolerance:
                report.failures.append((p.name, int(c), err))
    return report
