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
- non-differentiable points use subgradients: ReLU passes zero at 0, a
  global max pool routes gradient to the first maximal element, the 2x2 max
  pool after batch norm to the first input of its window equal to the one
  it selected (the maximum, or the minimum where batch norm's scale is
  negative), and a vector norm passes zero at the origin,
- blocks have batch-first shapes with channels on axis 1, ``(B, C, ...)``,
  whatever their memory layout: every op accepts any strides. The offset
  predictor's ops (:func:`conv3d`, :func:`pair_conv3d`,
  :func:`batchnorm_maxpool_relu`) store their outputs channels-last, as the
  ``(B, C, ...)`` view of a C-contiguous ``(B, ..., C)`` array, so each one
  reads the last one's output and gradient without a transposed copy. Ops
  documented with ``...`` batch axes broadcast them,
- broadcasting follows numpy; backward passes sum gradients back over
  broadcast axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "Parameter",
    "Tape",
    "Var",
]


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
        self.value = np.asarray(value, dtype=np.float64, order="C")
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


def take(a: Var, index: int | Array, axis: int = 0) -> Var:
    """Select along ``axis``. An int drops the axis; an index array replaces it with
    its own shape, and its indices must be distinct, as backward assigns, not adds."""
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
# metric head


def _recip_norms(fv: Array, pv: Array) -> tuple[Array, Array]:
    """``1 / |column|`` of two (..., d, T) maps, and 0 at an all-zero column:
    a norm's subgradient at the origin.

    Both maps' column norms share one buffer, so one masked division in
    place serves both and the zero norms stay 0.
    """
    sf, sp = (fv * fv).sum(axis=-2), (pv * pv).sum(axis=-2)
    buf = np.concatenate((sf.ravel(), sp.ravel()))
    np.sqrt(buf, out=buf)
    np.divide(1.0, buf, out=buf, where=buf > 0.0)
    return buf[: sf.size].reshape(sf.shape), buf[sf.size :].reshape(sp.shape)


def cosine_distance(f: Var, p: Var) -> Var:
    """Sum over frames of (1 - cosine similarity) between (..., d, T) maps.

    ``out[...] = sum_t (1 - <f_t, p_t> r(|f_t|) r(|p_t|))`` over the d-vectors
    ``f_t``, ``p_t`` of each frame t, where ``r(n) = 1/n`` and ``r(0) = 0``
    (:func:`_recip_norms`).
    Leading axes broadcast, and the output has their broadcast shape. An
    all-zero column has cosine 0, so its frame adds distance 1, and the norm
    passes zero at the origin, so the column's gradient is exactly 0.
    """
    fv, pv = f.value, p.value
    if fv.ndim < 2 or pv.ndim < 2 or fv.shape[-2:] != pv.shape[-2:]:
        raise ValueError(f"cosine_distance: expected (..., d, T) maps, got {fv.shape} vs {pv.shape}")
    dots = (fv * pv).sum(axis=-2)
    r_f, r_p = _recip_norms(fv, pv)
    cos = dots * r_f * r_p
    out = (1.0 - cos).sum(axis=-1)
    _check_finite("cosine_distance", out)

    def bwd(g):
        # d cos / d f = r_f r_p p - cos r_f^2 f, and symmetrically for p
        g = np.asarray(g)[..., None]  # one gradient per pair, the same for each of its frames
        g_cross = (-g * r_f * r_p)[..., None, :]
        g_f = (g * cos * r_f * r_f)[..., None, :]
        g_p = (g * cos * r_p * r_p)[..., None, :]
        return (
            _unbroadcast(g_cross * pv + g_f * fv, fv.shape),
            _unbroadcast(g_cross * fv + g_p * pv, pv.shape),
        )

    return f.tape.record("cosine_distance", out, (f, p), bwd)


def nll(probs: Var, labels: Sequence[int]) -> Var:
    """Summed negative log-probability of each row's label, ``sum_q -log probs[q, labels[q]]``.

    ``probs`` is a (Q, N) block with one row per query. The terms are added
    one at a time in row order, so the sum equals a running per-query total
    bit for bit.
    """
    pv = probs.value
    cols = np.asarray(labels)
    if pv.ndim != 2 or pv.shape[0] == 0 or cols.shape != pv.shape[:1]:
        raise ValueError(f"nll: expected one label per row of a (Q, N) block, got {pv.shape}")
    bad = (cols < 0) | (cols >= pv.shape[1])
    if bad.any():
        raise ValueError(f"label {cols[bad.argmax()]} out of range")
    rows = np.arange(pv.shape[0])
    picked = pv[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -np.log(picked)
    _check_finite("nll", terms)
    out = np.cumsum(terms)[-1]

    def bwd(g):
        full = np.zeros(pv.shape)
        full[rows, cols] = -g / picked
        return (full,)

    return probs.tape.record("nll", out, (probs,), bwd)


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
    """Affine map over the channel axis of a (B, C, ...) block.

    ``out[b, j, ...] = sum_i W[i, j] * x[b, i, ...] (+ b[j])``, applied
    independently at every trailing index, so on a feature map this is a 1x1
    convolution and on a (B, C) block a plain ``x @ W (+ b)``. One batched
    ``W.T @ x.reshape(B, C, -1)``.
    """
    xv, wv = x.value, weight.value
    if xv.ndim < 2 or xv.shape[1] != wv.shape[0]:
        raise ValueError(
            f"channel_linear: (B, C, ...) block {xv.shape} vs weight rows {wv.shape[0]}"
        )
    x3 = xv.reshape(xv.shape[0], xv.shape[1], -1)
    out = wv.T @ x3  # (B, C_out, P)
    if bias is not None:
        if bias.value.shape != (wv.shape[1],):
            raise ValueError("channel_linear: bias shape mismatch")
        out += bias.value[:, None]
    out = out.reshape(xv.shape[:1] + wv.shape[1:] + xv.shape[2:])

    def bwd(g):
        g3 = g.reshape(x3.shape[0], -1, x3.shape[2])
        gx = (wv @ g3).reshape(xv.shape)
        # one GEMM over every (b, p) position, on channel-major copies with contiguous rows
        xc, gc = (a.transpose(1, 0, 2).reshape(a.shape[1], -1) for a in (x3, g3))
        gw = xc @ gc.T
        if bias is None:
            return gx, gw
        return gx, gw, g3.sum(axis=(0, 2))

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


def warp_matrix(scale: Var, shift: Var, frames: int) -> Var:
    """(..., T, T) linear-interpolation matrices of temporal affine warps.

    ``scale`` and ``shift`` share one batch shape ``...`` (``()`` for one
    video). Row ``i`` of a matrix reads normalized time ``shift + scale *
    i/(T-1)``, as weights ``1 - frac`` and ``frac`` on the two neighbouring
    frames, so every row sums to 1 and ``mix_time(warp_matrix(scale, shift,
    T), f)`` resamples each video of ``f`` through its warp, as a spatial
    transformer's sampler does (Jaderberg et al. 2015). Differentiable in
    both parameters, with the integer frame index locally constant. Raises
    if a window leaves the clip: scale in (0, 1], shift >= 0 and
    shift + scale <= 1.
    """
    t = frames
    if scale.shape != shift.shape or t < 2:
        raise ValueError(f"warp_matrix expects batch-shaped scale and shift of one shape and "
                         f"T >= 2, got {scale.shape}, {shift.shape} and T={t}")
    a, b = scale.value.reshape(-1, 1), shift.value.reshape(-1, 1)
    if not np.all((0.0 < a) & (a <= 1.0 + 1e-12) & (-1e-12 <= b) & (b + a <= 1.0 + 1e-9)):
        raise ValueError(f"warp parameters out of range: scale={scale.value}, shift={shift.value}")
    i = np.arange(t)
    s = (b + a * i / (t - 1)) * (t - 1)  # (videos, T) source frame positions
    lo = np.clip(np.floor(s).astype(int), 0, t - 1)
    hi = np.clip(lo + 1, 0, t - 1)
    frac = s - lo
    v = np.arange(len(s))[:, None]
    out = np.zeros((len(s), t, t))
    out[v, i, lo] = 1.0 - frac
    out[v, i, hi] += frac

    def bwd(g):
        g3 = g.reshape(out.shape)
        gfrac = g3[v, i, hi] - g3[v, i, lo]  # d out / d frac
        # d s_i / d scale = i, d s_i / d shift = T-1; d frac/d s = 1 a.e.
        ga = (gfrac @ i).reshape(scale.shape)
        gb = (gfrac.sum(axis=1) * (t - 1)).reshape(shift.shape)
        return ga, gb

    return scale.tape.record("warp_matrix", out.reshape(scale.shape + (t, t)), (scale, shift), bwd)


def conv1d_temporal(x: Var, weight: Var, bias: Var) -> Var:
    """Temporal convolution of a (B, C, T) block of sequences, kernel 3, zero padding 1."""
    xv, wv = x.value, weight.value
    c_out, c_in, k = wv.shape
    if k != 3 or xv.ndim != 3 or xv.shape[1] != c_in:
        raise ValueError(f"conv1d_temporal: bad shapes {xv.shape} vs {wv.shape}")
    t = xv.shape[-1]
    xp = np.pad(xv, ((0, 0), (0, 0), (1, 1)))  # (B, C_in, T+2)
    out = np.zeros((xv.shape[0], c_out, t))
    for j in range(3):
        out += wv[:, :, j] @ xp[:, :, j : j + t]
    out += bias.value[:, None]

    def bwd(g):
        gxp = np.zeros_like(xp)
        gw = np.empty_like(wv)
        for j in range(3):
            gxp[:, :, j : j + t] += wv[:, :, j].T @ g
            gw[:, :, j] = np.tensordot(g, xp[:, :, j : j + t], axes=([0, 2], [0, 2]))
        return gxp[:, :, 1 : 1 + t], gw, g.sum(axis=(0, 2))

    return x.tape.record("conv1d_temporal", out, (x, weight, bias), bwd)


_SPATIAL_TAPS = [(kh, kw) for kh in range(3) for kw in range(3)]
_TO_LAST, _TO_FIRST = (0, 2, 3, 4, 1), (0, 4, 1, 2, 3)  # (B, C, T, H, W) <-> (B, T, H, W, C)


def _channels_last(a: Array) -> Array:
    """A (B, C, T, H, W) block as a C-contiguous (B, T, H, W, C) array, without
    a copy when it is stored so, as the offset predictor's ops store theirs."""
    return np.ascontiguousarray(a.transpose(_TO_LAST))


def _tap_window(d: int, n: int, m: int) -> tuple[slice, slice]:
    """(output, input) slices along one spatial axis of a tap displaced by ``d`` in {-1, 0, 1}.

    Output position ``i`` in [0, m) reads input position ``i + d`` of an
    axis of ``n >= m`` positions; outputs whose input falls outside [0, n)
    are not covered and stay zero.
    """
    return slice(max(0, -d), min(m, n - d)), slice(max(0, d), min(m + d, n))


def _kernel_matrix(wv: Array) -> Array:
    """A (C_out, C_in, 3, 3, 3) kernel as a (3*C_out, 9*C_in) matrix.

    Row ``j*C_out + o`` is output channel ``o`` at temporal slice ``j``;
    column ``k*C_in + c`` is input channel ``c`` at spatial tap ``k``.
    """
    c_out, c_in = wv.shape[:2]
    return np.ascontiguousarray(wv.transpose(2, 0, 3, 4, 1)).reshape(3 * c_out, 9 * c_in)


def _patches(xl: Array, extent: tuple[int, int]) -> Array:
    """The 3x3 spatial windows of a (B, T, H, W, C) block as a (B*T*rows*cols, 9*C) matrix.

    One row per output position of the top-left ``extent = (rows, cols)``
    grid; column ``k*C + c`` is channel ``c`` seen through spatial tap
    ``k``, zero-padded at the border. Time is not windowed: the three
    temporal taps are combined after the GEMM, so a row has 9*C columns,
    not 27*C.
    """
    b, t, h, w, c = xl.shape
    rows, cols = extent
    patches = np.zeros((b, t, rows, cols, 9, c))
    for k, (kh, kw) in enumerate(_SPATIAL_TAPS):
        (oh, ih), (ow, iw) = _tap_window(kh - 1, h, rows), _tap_window(kw - 1, w, cols)
        patches[:, :, oh, ow, k] = xl[:, :, ih, iw]
    return patches.reshape(-1, 9 * c)


def _sum_taps(resp: Array) -> Array:
    """Temporal combine of (B, T, P, 3, C_out) responses -> (B, T, P, C_out).

    ``out[:, t] = sum_k resp[:, t+k-1, :, k]``, zero outside [0, T).
    """
    out = resp[:, :, :, 1].copy()
    out[:, 1:] += resp[:, :-1, :, 0]
    out[:, :-1] += resp[:, 1:, :, 2]
    return out


def _sum_taps_grad(g: Array) -> Array:
    """Adjoint of :func:`_sum_taps`: (B, T, P, C_out) -> (B, T, P, 3, C_out)."""
    gr = np.zeros(g.shape[:3] + (3,) + g.shape[3:])
    gr[:, :-1, :, 0] = g[:, 1:]
    gr[:, :, :, 1] = g
    gr[:, 1:, :, 2] = g[:, :-1]
    return gr


def _conv_grad(
    gr: Array, xl: Array, kmat: Array, extent: tuple[int, int]
) -> tuple[Array, Array]:
    """(input gradient, weight gradient) from the gradient ``gr`` of the responses
    ``_patches(xl, extent) @ kmat.T``.

    The input gradient is a (B, C_in, T, H, W) view of a channels-last
    array. One GEMM against the patches, rebuilt from ``xl``, gives the
    weight gradient; one GEMM against the kernel matrix gives the patch
    gradient, written over the patches, so the two never coexist, and each
    spatial tap's columns are added into the input window they read.
    """
    b, t, h, w, c_in = xl.shape
    rows, cols = extent
    gr = gr.reshape(-1, kmat.shape[0])
    patches = _patches(xl, extent)
    gw = (gr.T @ patches).reshape(3, -1, 3, 3, c_in)
    gpatch = np.matmul(gr, kmat, out=patches).reshape(b, t, rows, cols, 9, c_in)
    # the centre tap covers every input of a full grid; a smaller extent leaves some unread
    gx = np.empty(xl.shape) if extent == (h, w) else np.zeros(xl.shape)
    gx[:, :, :rows, :cols] = gpatch[:, :, :, :, 4]
    for k, (kh, kw) in enumerate(_SPATIAL_TAPS):
        if k != 4:
            (oh, ih), (ow, iw) = _tap_window(kh - 1, h, rows), _tap_window(kw - 1, w, cols)
            gx[:, :, ih, iw] += gpatch[:, :, oh, ow, k]
    return gx.transpose(_TO_FIRST), np.ascontiguousarray(gw.transpose(1, 4, 0, 2, 3))


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


def _output_extent(op: str, extent, h: int, w: int) -> tuple[int, int]:
    """``extent`` as (rows, cols), the full (h, w) grid when it is None.

    ``ValueError`` unless ``1 <= rows <= h`` and ``1 <= cols <= w``.
    """
    if extent is None:
        return h, w
    rows, cols = extent
    if not (1 <= rows <= h and 1 <= cols <= w):
        raise ValueError(f"{op}: extent {extent} outside the {h}x{w} grid")
    return rows, cols


def conv3d(x: Var, weight: Var, bias: Var, extent: tuple[int, int] | None = None) -> Var:
    """3-D convolution over (T,H,W), kernel 3, zero padding 1, stride 1.

    ``x`` is (B, C_in, T, H, W) and ``weight`` is (C_out, C_in, 3, 3, 3).
    The op works channels-last: the output is the (B, C_out, T, rows, cols)
    view of a C-contiguous (B, T, rows, cols, C_out) array, and ``x`` and
    the gradient are read in that layout, which copies nothing when they
    come from this op, :func:`pair_conv3d` or :func:`batchnorm_maxpool_relu`.
    One GEMM of the 9-tap spatial patch matrix, one row per output
    position, against the kernel's (3*C_out, 9*C_in) tap matrix gives each
    frame's response to each temporal slice of the kernel; output frame
    ``t`` sums slice ``k`` of frame ``t+k-1``. Backward keeps ``x``, not the
    patch matrix, which is up to 9 times its size: one GEMM against the
    rebuilt patches gives the weight gradient, one against the kernel
    matrix the patch gradient, which 9 window adds scatter onto the input.

    ``extent = (rows, cols)`` computes only the top-left rows x cols of the
    H x W output grid, (B, C_out, T, rows, cols), equal to that crop of the
    full output; the default is the full grid. The patch matrix and the GEMM
    shrink to those positions. The offset predictor uses it to skip the
    trailing odd row and column that the 2x2 pool after its batch norm never
    reads, in training and eval alike.
    """
    xv, wv = x.value, weight.value
    if xv.ndim != 5 or wv.ndim != 5 or wv.shape[1] != xv.shape[1] or wv.shape[2:] != (3, 3, 3):
        raise ValueError(f"conv3d: bad shapes {xv.shape} vs {wv.shape}")
    b, _, t, h, w = xv.shape
    extent = _output_extent("conv3d", extent, h, w)
    p = extent[0] * extent[1]
    c_out = wv.shape[0]
    xl, kmat = _channels_last(xv), _kernel_matrix(wv)
    out = _sum_taps((_patches(xl, extent) @ kmat.T).reshape(b, t, p, 3, c_out))
    out += bias.value
    out = out.reshape(b, t, *extent, c_out)

    def bwd(g):
        gl = _channels_last(g).reshape(b, t, p, c_out)
        gx, gw = _conv_grad(_sum_taps_grad(gl), xl, kmat, extent)
        return gx, gw, gl.reshape(-1, c_out).sum(axis=0)

    return x.tape.record("conv3d", out.transpose(_TO_FIRST), (x, weight, bias), bwd)


def pair_conv3d(
    support: Var, query: Var, mix: Var, weight: Var, bias: Var,
    extent: tuple[int, int] | None = None,
) -> Var:
    """``conv3d`` of every (query, class) pair stack, without building the stacks.

    ``support`` is (N, C_s, T, H, W), ``query`` is (Q, C_q, T, H, W), ``mix``
    is (Q, N, T, T) and ``weight`` is (C_out, C_s + C_q, 3, 3, 3). Row
    ``q*N + n`` of the (Q*N, C_out, T, rows, cols) result is ``conv3d(x,
    weight, bias, extent)`` of the channel concatenation ``x`` of
    ``support[n]`` and ``mix_time(mix[q, n], query[q])``; ``extent`` is as
    in :func:`conv3d` and defaults to the full H x W grid. Like
    :func:`conv3d`, it stores its result channels-last and reads the two
    blocks and the gradient in that layout.

    The convolution is linear, so with ``weight = [W_s | W_q]`` that row is
    ``conv3d(support[n], W_s) + sum_k shift_k(mix[q, n]) @ Z_k(query[q])``,
    where ``Z_k`` is each query frame through the spatial taps of temporal
    slice ``k`` of ``W_q`` and ``shift_k`` moves the mix's rows by ``k - 1``.
    The tap responses run once per support and once per query video; only
    the T x 3T mix is per pair, over the rows*cols positions of the extent.
    Its product is already the channels-last pair block, and one broadcast
    add of the support half completes it. Backward keeps the two input
    blocks and rebuilds their patches, as :func:`conv3d` does. Recorded as a
    ``conv3d`` entry.
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
    extent = _output_extent("pair_conv3d", extent, h, w)
    p = extent[0] * extent[1]
    nq = qv.shape[0]
    c_out = wv.shape[0]
    sl, ql = _channels_last(sv), _channels_last(qv)
    s_kmat, q_kmat = _kernel_matrix(wv[:, :c_s]), _kernel_matrix(wv[:, c_s:])
    # (N, T, P, C_out): the support half, once per class
    per_class = _sum_taps((_patches(sl, extent) @ s_kmat.T).reshape(n, t, p, 3, c_out))
    per_class += bias.value
    q_resp = (_patches(ql, extent) @ q_kmat.T).reshape(nq, t, p, 3, c_out)
    # (Q, 3T, P*C_out): a query's tap responses, rows ordered like the shifted mix's columns
    z = np.ascontiguousarray(q_resp.transpose(0, 3, 1, 2, 4)).reshape(nq, 3 * t, p * c_out)
    shifted = _shift_taps(mv).reshape(nq, n * t, 3 * t)
    out = (shifted @ z).reshape(nq, n, t, p, c_out)
    out += per_class
    out = out.reshape(nq * n, t, *extent, c_out)

    def bwd(g):
        g5 = _channels_last(g).reshape(nq, n, t, p, c_out)
        gs, gws = _conv_grad(_sum_taps_grad(g5.sum(axis=0)), sl, s_kmat, extent)
        gt = g5.reshape(nq, n * t, p * c_out)
        gm = _shift_taps_grad((gt @ z.transpose(0, 2, 1)).reshape(nq, n, t, 3 * t))
        g_resp = (shifted.transpose(0, 2, 1) @ gt).reshape(nq, 3, t, p, c_out)
        gq, gwq = _conv_grad(g_resp.transpose(0, 2, 3, 1, 4), ql, q_kmat, extent)
        gw = np.concatenate([gws, gwq], axis=1)
        return gs, gw, gq, gm, g5.reshape(-1, c_out).sum(axis=0)

    return support.tape.record(
        "conv3d", out.transpose(_TO_FIRST), (support, weight, query, mix, bias), bwd
    )


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


def batchnorm_maxpool_relu(
    x: Var,
    gamma: Var,
    beta: Var,
    running_mean: Array,
    running_var: Array,
    training: bool,
) -> Var:
    """Batch norm, 2x2 spatial max pool and ReLU of a (B,C,T,H,W) block, as one op.

    Batch norm is per channel. In training mode its statistics come from
    every position of the current block, and the running buffers are
    updated in place; in eval mode the frozen running statistics are used.
    The 2x2 spatial max pool has stride 2 and drops a trailing odd row or
    column, so the output is (B, C, T, H//2, W//2).

    Like :func:`conv3d`, the op works channels-last: the statistics are per
    column of the (n, C) view of ``x``, and each pool window's corner is a
    view whose rows are C contiguous values.

    Per channel, each rounded step of batch norm's map ``((v - mean) * inv)
    * gamma + beta`` is monotone in ``v``: non-decreasing for gamma >= 0 and
    non-increasing for gamma < 0. So the maximum of a window's normalized
    values is the normalized maximum of its inputs, or of their minimum
    where gamma < 0, bit for bit. The op selects that input per window and
    normalizes, scales, shifts and rectifies only the selected quarter of
    the block, in batch norm's order of operations.

    Backward keeps ``x`` and the selected inputs, no full-size normalized
    block. With ``s = gamma * inv`` and ``gp`` the output gradient where the
    ReLU passed, ``gbeta = sum(gp)`` and ``ggamma = sum(gp * xhat)`` over
    the selected inputs' ``xhat``. Each window's ``s * gp`` goes to the
    first of its inputs (0,0), (0,1), (1,0), (1,1) that equals the selected
    one. In training mode the statistics add ``x * a + c`` at every
    position, with ``a = -s * inv * ggamma / n`` and ``c = -s * gbeta / n -
    a * mean`` per channel over the ``n`` positions of a channel (Ioffe &
    Szegedy 2015). Recorded as a ``batchnorm_train`` or ``batchnorm_eval``
    entry.
    """
    xv = x.value
    if xv.ndim != 5:
        raise ValueError("batchnorm_maxpool_relu expects (B,C,T,H,W)")
    _, c, _, h, w = xv.shape
    ho, wo = h // 2, w // 2
    if ho < 1 or wo < 1:
        raise ValueError(f"batchnorm_maxpool_relu: spatial dims too small {h}x{w}")
    gv, bv = gamma.value, beta.value
    xl = _channels_last(xv)
    windows = [(slice(i, 2 * ho, 2), slice(j, 2 * wo, 2)) for i in (0, 1) for j in (0, 1)]
    views = [xl[:, :, rows, cols] for rows, cols in windows]
    sel = np.maximum(views[0], views[1])
    np.maximum(sel, np.maximum(views[2], views[3]), out=sel)
    flipped = gv < 0.0
    if flipped.any():
        low = [view[..., flipped] for view in views]
        sel[..., flipped] = np.minimum(np.minimum(low[0], low[1]), np.minimum(low[2], low[3]))
    if training:
        x2 = xl.reshape(-1, c)
        n = x2.shape[0]
        mean = x2.mean(axis=0)
        centred = x2 - mean
        var = np.einsum("nc,nc->c", centred, centred) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        pre = sel - mean
        pre *= inv
        pre *= gv
        pre += bv
    else:
        mean = running_mean.copy()  # the buffers may change before backward runs
        inv = 1.0 / np.sqrt(running_var + BN_EPS)
        scale = gv * inv
        pre = sel * scale + (bv - mean * scale)
    live = pre > 0.0
    out = np.maximum(pre, 0.0, out=pre)

    def bwd(g):
        gp = _channels_last(g) * live
        xhat = sel - mean
        xhat *= inv
        gp2 = gp.reshape(-1, c)
        gb = gp2.sum(axis=0)
        gg = np.einsum("nc,nc->c", gp2, xhat.reshape(-1, c))
        s = gv * inv
        if training:
            a = -s * inv * gg / n
            gx = xl * a
            gx += -s * gb / n - a * mean
        else:
            gx = np.zeros(xl.shape)
        rest = gp * s  # the gradient of the windows not yet routed
        for view, (rows, cols) in zip(views[:-1], windows[:-1]):
            routed = rest * (view == sel)
            gx[:, :, rows, cols] += routed
            rest -= routed
        rows, cols = windows[-1]
        gx[:, :, rows, cols] += rest
        return gx.transpose(_TO_FIRST), gg, gb

    op = "batchnorm_train" if training else "batchnorm_eval"
    return x.tape.record(op, out.transpose(_TO_FIRST), (x, gamma, beta), bwd)


def offset_masks(offsets: Var, height: int, width: int, gamma: float) -> Var:
    """Soft rectangular windows from per-frame grid offsets.

    ``offsets`` is (..., 2) as (x, y) in cells relative to the grid centre;
    the masks are (..., H, W). Each mask is the outer product of two 1-D
    profiles that are 1 within distance 1 of the centre, fall linearly with
    slope ``gamma``, and are 0 beyond distance ``1 + 1/gamma``.
    """
    ov = offsets.value
    cx = (width - 1) / 2.0 + ov[..., 0]  # (...,)
    cy = (height - 1) / 2.0 + ov[..., 1]

    def profile(coords, centers):
        d = np.abs(coords - centers[..., None])  # (..., n)
        m = np.where(d < 1.0, 1.0, np.maximum(0.0, 1.0 - gamma * (d - 1.0)))
        on_ramp = (d >= 1.0) & (d < 1.0 + 1.0 / gamma)
        # d m / d center = gamma * sign(coord - center) on the ramp
        dm_dc = np.where(on_ramp, gamma * np.sign(coords - centers[..., None]), 0.0)
        return m, dm_dc

    mx, dmx = profile(np.arange(width), cx)  # (..., W)
    my, dmy = profile(np.arange(height), cy)  # (..., H)
    out = my[..., :, None] * mx[..., None, :]  # (..., H, W)

    def bwd(g):
        gx = (g * my[..., :, None] * dmx[..., None, :]).sum(axis=(-2, -1))
        gy = (g * dmy[..., :, None] * mx[..., None, :]).sum(axis=(-2, -1))
        return (np.stack([gx, gy], axis=-1),)

    return offsets.tape.record("offset_masks", out, (offsets,), bwd)
