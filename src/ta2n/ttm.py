"""Temporal transform stage: locate the action in time and zoom onto it.

A small localization network predicts, per video, a duration scale and a
start offset in normalized time; the feature sequence is then resampled
through that affine map with linear interpolation, so the whole stage is
trainable end to end together with everything downstream. Each video is
independent: a (B, C, T, H, W) block gives one (scale, shift) pair per video,
as a spatial transformer samples a batch with per-sample transforms (Jaderberg
et al. 2015), and is resampled by ``ad.mix_time`` with each ``ad.warp_matrix``.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Var

MIN_DURATION_SCALE = 0.25
# raw scale output at init: sigmoid gives 13/15, so the untrained warp is (0.9, 0.05)
INIT_SCALE_LOGIT = math.log(6.5)


class LocalizationNet:
    """Lightweight trainable head that regresses the warp parameters.

    Pipeline: spatial average pool -> temporal conv (kernel 3, pad 1) ->
    ReLU -> temporal mean pool -> linear to two raw outputs. The final
    layer's weights start at zero and its scale bias at ``INIT_SCALE_LOGIT``,
    so the untrained stage predicts the warp (0.9, 0.05) for every input:
    close to the identity, as in STN's localisation nets (Jaderberg et al.
    2015), but inside the open range of the scale map, where every raw
    output has a non-zero gradient.
    """

    def __init__(self, channels: int, hidden: int, rng: np.random.Generator):
        k = np.sqrt(2.0 / (channels * 3))
        self.conv_w = Parameter(rng.normal(0.0, k, size=(hidden, channels, 3)), "ttm.conv_w")
        self.conv_b = Parameter(np.zeros(hidden), "ttm.conv_b")
        self.head_w = Parameter(np.zeros((hidden, 2)), "ttm.head_w")
        self.head_b = Parameter(np.array([INIT_SCALE_LOGIT, 0.0]), "ttm.head_b")

    def parameters(self) -> list[Parameter]:
        return [self.conv_w, self.conv_b, self.head_w, self.head_b]

    def raw_outputs(self, tape: Tape, feature: Var) -> Var:
        """Unconstrained (scale residual, shift logit) pairs: (B, 2) for a (B, C, T, H, W) block."""
        if len(feature.shape) != 5:
            raise ValueError(f"localize expects (B, C, T, H, W), got {feature.shape}")
        pooled = ad.reduce_mean(feature, axis=(-2, -1))  # (B, C, T)
        h = ad.relu(ad.conv1d_temporal(pooled, tape.param(self.conv_w), tape.param(self.conv_b)))
        h = ad.reduce_mean(h, axis=-1)  # (B, hidden)
        return ad.channel_linear(h, tape.param(self.head_w), tape.param(self.head_b))


def warp_from_raw(raw: Var) -> tuple[Var, Var]:
    """Map raw head outputs, (..., 2), to valid (scale, shift) vars shaped ``...``.

    scale = MIN_DURATION_SCALE + (1 - MIN_DURATION_SCALE) * sigmoid(raw[..., 0])
    keeps the window from collapsing; shift = sigmoid(raw[..., 1]) * (1 - scale)
    keeps it inside the clip. Both maps are smooth with non-zero slope, so
    no raw value cuts the gradient off.
    """
    scale = ad.affine(ad.sigmoid(ad.take(raw, 0, -1)), 1.0 - MIN_DURATION_SCALE, MIN_DURATION_SCALE)
    room = ad.affine(scale, -1.0, 1.0)  # 1 - scale
    shift = ad.mul(ad.sigmoid(ad.take(raw, 1, -1)), room)
    return scale, shift


def localize(net: LocalizationNet, tape: Tape, feature: Var) -> tuple[Var, Var]:
    """Predict (B,) scale and shift warp parameter vars for a (B, C, T, H, W) block of videos."""
    return warp_from_raw(net.raw_outputs(tape, feature))


def temporal_affine_warp(feature: Var, scale: Var, shift: Var) -> Var:
    """Resample each video of a (..., C, T, H, W) feature, warps shaped ``...``, onto its window.

    ``scale`` is the predicted action duration (fraction of the clip) and
    ``shift`` the action start, so (1, 0) is the identity warp: output frame
    i reads normalized time shift + scale * i/(T-1), linearly interpolated
    between the two neighbouring input frames, so the output is always a
    convex combination of input frames. Raises ``ValueError`` unless both
    warps are shaped ``...`` (one warp is never broadcast over videos), if a
    scale falls below MIN_DURATION_SCALE or (in ``ad.warp_matrix``) a window
    leaves the clip, and ``FloatingPointError`` for a non-finite warp, as
    after a diverged step; the localization head rules all of these out for
    finite weights, and nothing is silently clamped here.
    """
    if not scale.shape == shift.shape == feature.shape[:-4]:
        raise ValueError(f"warps {scale.shape}, {shift.shape} are not batch-shaped for {feature.shape}")
    if not (np.isfinite(scale.value).all() and np.isfinite(shift.value).all()):
        raise FloatingPointError(f"temporal warp: non-finite scale {scale.value} or shift {shift.value}")
    if not np.all(scale.value >= MIN_DURATION_SCALE - 1e-9):
        raise ValueError(f"duration scale {scale.value} below {MIN_DURATION_SCALE}")
    return ad.mix_time(ad.warp_matrix(scale, shift, feature.shape[-3]), feature)
