"""Plain reference implementations the tests compare the pipeline against.

None of these runs on the pipeline path: ``concat`` builds the pair stacks
that ``ad.pair_conv3d`` never materializes, ``max_pool_spatial2`` and
``batchnorm_channels`` are the separate ops that ``ad.batchnorm_maxpool_relu``
fuses, ``full_grid_offsets`` runs the offset predictor's convolutions over
every grid position through that reference chain and, in training mode,
``crop_to_pooled`` cuts their outputs down to the positions the pools read,
``generate_offset_mask`` is one mask as a plain array, and
``noise_free_signals`` renders a video's actor without its noise from the
ground truth it carries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ta2n import acm, synth
from ta2n import autodiff as ad
from ta2n.autodiff import Array, Tape, Var


def concat(parts: Sequence[Var], axis: int = 0) -> Var:
    """Join vars along an existing axis, recorded as one ``concat`` tape entry."""
    tape = parts[0].tape
    sizes = [p.value.shape[axis] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return tape.record("concat", out, tuple(parts), bwd)


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

    Training mode takes its statistics over the columns of an (n, C)
    channels-last copy of the input, in the order ``ad.batchnorm_maxpool_relu``
    sums them, so the two agree bit for bit: the mean, then the (biased)
    variance as the inner product of the centred copy with itself. The
    normalization works on the (B, C, T*H*W) view. Backward is the closed form
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
        x2 = np.ascontiguousarray(np.moveaxis(xv, 1, -1)).reshape(-1, c)
        n = x2.shape[0]
        mean = x2.mean(axis=0)
        centred = x2 - mean
        var = np.einsum("nc,nc->c", centred, centred) / n
        running_mean *= 1.0 - ad.BN_MOMENTUM
        running_mean += ad.BN_MOMENTUM * mean
        running_var *= 1.0 - ad.BN_MOMENTUM
        running_var += ad.BN_MOMENTUM * var
        inv = 1.0 / np.sqrt(var + ad.BN_EPS)
        x3 = xv.reshape(b, c, -1)
        xhat = x3 - mean[:, None]
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

    inv = 1.0 / np.sqrt(running_var + ad.BN_EPS)
    scale = gv * inv
    out = xv * scale.reshape(gshape) + (bv - running_mean * scale).reshape(gshape)

    def bwd_eval(g):
        gx = g * scale.reshape(gshape)
        xhat = (xv - running_mean.reshape(gshape)) * inv.reshape(gshape)
        gg = (g * xhat).sum(axes)
        gb = g.sum(axes)
        return gx, gg, gb

    return x.tape.record("batchnorm_eval", out, (x, gamma, beta), bwd_eval)


def crop_to_pooled(x: Var) -> Var:
    """The top-left ``2*(h//2) x 2*(w//2)`` positions of a (..., H, W) block,
    the ones a 2x2 pool reads, recorded as one ``crop`` tape entry."""
    h, w = x.shape[-2:]
    rows, cols = 2 * (h // 2), 2 * (w // 2)

    def bwd(g):
        gx = np.zeros(x.shape)
        gx[..., :rows, :cols] = g
        return (gx,)

    return x.tape.record("crop", x.value[..., :rows, :cols].copy(), (x,), bwd)


def full_grid_offsets(
    pred: acm.OffsetPredictor, tape: Tape, support: Var, query: Var, mix: Var,
    training: bool = False,
) -> Var:
    """``pred.forward`` with both convolutions over the full grid.

    The same layer sequence, with batch norm, 2x2 max pool and ReLU as
    three separate ops. In eval mode only the 2x2 pools drop a
    trailing odd row or column, which the pipeline never convolves. In
    training mode each conv output is cropped to the positions the pool
    reads before batch norm, so its statistics and running buffers cover
    exactly those positions.
    """
    def normalized(x, gamma, beta, mean, var):
        x = crop_to_pooled(x) if training else x
        return batchnorm_channels(x, tape.param(gamma), tape.param(beta), mean, var, training)

    x = ad.pair_conv3d(support, query, mix, tape.param(pred.conv1_w), tape.param(pred.conv1_b))
    x = normalized(x, pred.bn1_gamma, pred.bn1_beta, pred.bn1_mean, pred.bn1_var)
    x = ad.relu(max_pool_spatial2(x))
    x = ad.conv3d(x, tape.param(pred.conv2_w), tape.param(pred.conv2_b))
    x = normalized(x, pred.bn2_gamma, pred.bn2_beta, pred.bn2_mean, pred.bn2_var)
    x = ad.relu(max_pool_spatial2(x))
    g = ad.global_max_pool_spatial(x)  # (B, C, T)
    h = ad.relu(ad.channel_linear(g, tape.param(pred.fc1_w), tape.param(pred.fc1_b)))
    raw = ad.tanh(ad.channel_linear(h, tape.param(pred.fc2_w), tape.param(pred.fc2_b)))
    scale = np.array([[(pred.width - 1) / 2.0], [(pred.height - 1) / 2.0]])
    return ad.transpose(ad.mul(raw, tape.const(scale)), (0, 2, 1))  # (B, T, 2)


def generate_offset_mask(offset, height: int, width: int) -> Array:
    """Soft window around grid centre + (x, y) offset, as a plain array.

    The profile is 1 within distance 1 of the centre along each axis, falls
    off linearly with ``acm.MASK_SLOPE`` and is exactly 0 beyond distance
    1 + 1/MASK_SLOPE; the 2-D mask is the product of the two axis profiles.
    """
    ox, oy = float(offset[0]), float(offset[1])
    cx = (width - 1) / 2.0 + ox
    cy = (height - 1) / 2.0 + oy

    def profile(n, c):
        d = np.abs(np.arange(n) - c)
        return np.where(d < 1.0, 1.0, np.maximum(0.0, 1.0 - acm.MASK_SLOPE * (d - 1.0)))

    return profile(height, cy)[:, None] * profile(width, cx)[None, :]


def noise_free_signals(dataset: synth.Dataset, videos: list[synth.VideoFeature]) -> list[Array]:
    """Each video's actor signal without its noise, rendered from its stored ground truth.

    The class signatures are built once per call, not once per video.
    """
    sigs = synth.make_class_signatures(dataset.num_classes, dataset.channels, dataset.seed)
    return [
        synth._render_actor(sigs[v.label], dataset.dims(), v.start, v.end, v.warp_knots, v.centers)
        for v in videos
    ]
