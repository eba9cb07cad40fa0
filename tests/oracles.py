"""Plain reference implementations the tests compare the pipeline against.

None of these runs on the pipeline path: ``concat`` builds the pair stacks
that ``ad.pair_conv3d`` never materializes, ``full_grid_offsets`` runs the
offset predictor's convolutions over every grid position and, in training
mode, ``crop_to_pooled`` cuts their outputs down to the positions the pools
read, ``generate_offset_mask`` is one mask as a plain array, and
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

    The same layer sequence. In eval mode only the 2x2 pools drop a
    trailing odd row or column, which the pipeline never convolves. In
    training mode each conv output is cropped to the positions the pool
    reads before batch norm, so its statistics and running buffers cover
    exactly those positions.
    """
    def normalized(x, gamma, beta, mean, var):
        x = crop_to_pooled(x) if training else x
        return ad.batchnorm_channels(x, tape.param(gamma), tape.param(beta), mean, var, training)

    x = ad.pair_conv3d(support, query, mix, tape.param(pred.conv1_w), tape.param(pred.conv1_b))
    x = normalized(x, pred.bn1_gamma, pred.bn1_beta, pred.bn1_mean, pred.bn1_var)
    x = ad.relu(ad.max_pool_spatial2(x))
    x = ad.conv3d(x, tape.param(pred.conv2_w), tape.param(pred.conv2_b))
    x = normalized(x, pred.bn2_gamma, pred.bn2_beta, pred.bn2_mean, pred.bn2_var)
    x = ad.relu(ad.max_pool_spatial2(x))
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
