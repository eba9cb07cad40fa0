"""Temporal transform stage: locate the action in time and zoom onto it.

A small localization network predicts, per video, a duration scale and a
start offset in normalized time; the feature sequence is then resampled
through that affine map with linear interpolation, so the whole stage is
trainable end to end together with everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Var

MIN_DURATION_SCALE = 0.25


@dataclass(frozen=True)
class WarpParams:
    """Temporal affine map: output time tau reads input time shift + scale*tau.

    ``scale`` is the predicted action duration (fraction of the clip) and
    ``shift`` the action start; (1, 0) is the identity warp. Valid values
    satisfy scale in [MIN_DURATION_SCALE, 1] and shift in [0, 1 - scale], so
    the sampled window stays inside the clip.
    """

    scale: float
    shift: float

    def validate(self) -> None:
        if not MIN_DURATION_SCALE - 1e-9 <= self.scale <= 1.0 + 1e-9:
            raise ValueError(f"duration scale {self.scale} outside [{MIN_DURATION_SCALE}, 1]")
        if not -1e-9 <= self.shift <= 1.0 - self.scale + 1e-9:
            raise ValueError(f"start shift {self.shift} outside [0, {1.0 - self.scale}]")


class LocalizationNet:
    """Lightweight trainable head that regresses the warp parameters.

    Pipeline: spatial average pool -> temporal conv (kernel 3, pad 1) ->
    ReLU -> temporal mean pool -> linear to two raw outputs. The final layer
    is zero-initialized, which makes the untrained stage predict the exact
    identity warp for every input.
    """

    def __init__(self, channels: int, hidden: int = 32, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.hidden = hidden
        k = np.sqrt(2.0 / (channels * 3))
        self.conv_w = Parameter(rng.normal(0.0, k, size=(hidden, channels, 3)), "ttm.conv_w")
        self.conv_b = Parameter(np.zeros(hidden), "ttm.conv_b")
        self.head_w = Parameter(np.zeros((hidden, 2)), "ttm.head_w")
        self.head_b = Parameter(np.zeros(2), "ttm.head_b")

    def parameters(self) -> list[Parameter]:
        return [self.conv_w, self.conv_b, self.head_w, self.head_b]

    def raw_outputs(self, tape: Tape, feature: Var) -> Var:
        """Unconstrained (scale residual, shift logit) pair."""
        if len(feature.shape) != 4:
            raise ValueError(f"localize expects C,T,H,W, got {feature.shape}")
        pooled = ad.global_avg_pool_spatial(feature)  # (C, T)
        h = ad.relu(ad.conv1d_temporal(pooled, tape.param(self.conv_w), tape.param(self.conv_b)))
        h = ad.reduce_mean(h, axis=1)  # (hidden,)
        return ad.channel_linear(h, tape.param(self.head_w), tape.param(self.head_b))


def warp_from_raw(raw: Var) -> tuple[Var, Var]:
    """Map raw head outputs to a valid (scale, shift) pair.

    scale = clamp(1 + raw[0], MIN_DURATION_SCALE, 1) keeps the window from
    collapsing; shift = sigmoid(raw[1]) * (1 - scale) keeps it inside the
    clip. Zero raw outputs give the identity warp.
    """
    scale = ad.clamp(ad.affine(ad.take(raw, 0), 1.0, 1.0), MIN_DURATION_SCALE, 1.0)
    room = ad.affine(scale, -1.0, 1.0)  # 1 - scale
    shift = ad.mul(ad.sigmoid(ad.take(raw, 1)), room)
    return scale, shift


def localize(net: LocalizationNet, tape: Tape, feature: Var) -> tuple[Var, Var]:
    """Predict (scale, shift) warp parameter vars for one C,T,H,W feature."""
    return warp_from_raw(net.raw_outputs(tape, feature))


def temporal_affine_warp(feature: Var, scale: Var, shift: Var) -> Var:
    """Resample the sequence onto the predicted action window.

    Output frame i reads normalized time shift + scale * i/(T-1); values are
    linearly interpolated between the two neighbouring input frames, so the
    output is always a convex combination of input frames. Raises if the
    parameters fall outside the valid window (the localization head already
    guarantees the range; nothing is silently clamped here).
    """
    WarpParams(float(scale.value), float(shift.value)).validate()
    return ad.time_linear_sample(feature, scale, shift)

