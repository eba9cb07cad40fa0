"""Second alignment stage: coordinate action evolution across video pairs.

Temporal coordination builds a row-stochastic correlation matrix between
support and query timesteps from spatially pooled projections, and
``ad.mix_time`` applies it to rearrange the query's frames onto the
support's evolution. The projections and value maps depend on one video
only, so they are computed once per block of videos; the correlation is
computed once per pair, one :meth:`TemporalCoordination.forward` call each,
which is what the benchmark counts. Spatial coordination predicts a
per-frame (x, y) offset for every pair and compares soft-masked regions
around the offset (support) and its negation (query) instead of whole
frames. The offset predictor takes every pair of an episode in one call,
and the masks and masked means take any leading axes, which broadcast, so
the pairs of an episode are pooled in one call as well.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Parameter, Tape, Var

MASK_FLOOR = 1e-6  # keeps every mask's normalizer strictly positive
MASK_SLOPE = 3.0
NO_DISPLACEMENT = np.zeros((1, 2))  # the one variant of unperturbed masks
NO_DISPLACEMENT.flags.writeable = False
# training perturbs the masks by this amplitude, halved every PERTURB_INTERVAL_EPOCHS
PERTURB_AMPLITUDE = 1.0
PERTURB_DECAY = 0.5
PERTURB_INTERVAL_EPOCHS = 40


# ---------------------------------------------------------------------------
# temporal coordination


class TemporalCoordination:
    """Attention over timesteps that rearranges a query onto a support.

    :meth:`support_side` and :meth:`query_side` project a block of videos at
    once; :meth:`forward` is one pair's T x T correlation.
    """

    def __init__(self, channels: int, proj_dim: int, rng: np.random.Generator):
        self.channels = channels
        self.proj_dim = proj_dim
        s = 1.0 / np.sqrt(channels)
        self.key_w = Parameter(rng.normal(0.0, s, size=(channels, proj_dim)), "tc.key_w")
        self.key_b = Parameter(np.zeros(proj_dim), "tc.key_b")
        self.query_w = Parameter(rng.normal(0.0, s, size=(channels, proj_dim)), "tc.query_w")
        if proj_dim == channels:
            value_w = np.eye(channels)
        else:
            value_w = rng.normal(0.0, s, size=(channels, proj_dim))
        self.value_w = Parameter(value_w, "tc.value_w")
        self.value_b = Parameter(np.zeros(proj_dim), "tc.value_b")

    def parameters(self) -> list[Parameter]:
        return [self.key_w, self.key_b, self.query_w, self.value_w, self.value_b]

    def _values(self, tape: Tape, block: Var) -> Var:
        return ad.channel_linear(block, tape.param(self.value_w), tape.param(self.value_b))

    def support_side(self, tape: Tape, block: Var) -> tuple[Var, Var]:
        """Scaled keys (N, T, P) of the spatially pooled (C, N, T, H, W)
        support block, and its (P, N, T, H, W) values."""
        keys = ad.channel_linear(
            ad.reduce_mean(block, axis=(-2, -1)), tape.param(self.key_w), tape.param(self.key_b)
        )
        keys = ad.affine(ad.transpose(keys, (1, 2, 0)), 1.0 / np.sqrt(self.proj_dim))
        return keys, self._values(tape, block)

    def query_side(self, tape: Tape, block: Var) -> tuple[Var, Var]:
        """Queries (Q, P, T) of the spatially pooled (C, Q, T, H, W) query
        block, and its (P, Q, T, H, W) values.

        The queries have no bias: it would add ``k_i . b`` to every logit of
        support row ``i``, which the softmax over query columns cancels.
        """
        queries = ad.channel_linear(
            ad.reduce_mean(block, axis=(-2, -1)), tape.param(self.query_w)
        )
        return ad.transpose(queries, (1, 0, 2)), self._values(tape, block)

    def forward(self, keys: Var, queries: Var) -> Var:
        """One pair's correlation, from a support's (T, P) keys and a query's (P, T) queries.

        A row-stochastic T x T matrix (row = support timestep, column = query
        timestep) computed from pooled features; ``ad.mix_time`` applies it to
        the full-resolution value maps, which spatial coordination consumes.
        """
        if keys.shape[::-1] != queries.shape:
            raise ValueError(f"keys {keys.shape} do not match queries {queries.shape}")
        return ad.softmax(ad.matmul(keys, queries), axis=1)


# ---------------------------------------------------------------------------
# offset masks


def generate_offset_mask(offset, height: int, width: int) -> Array:
    """Soft window around grid centre + (x, y) offset, as a plain array.

    The profile is 1 within distance 1 of the centre along each axis, falls
    off linearly with ``MASK_SLOPE`` and is exactly 0 beyond distance
    1 + 1/MASK_SLOPE; the 2-D mask is the product of the two axis profiles.
    """
    ox, oy = float(offset[0]), float(offset[1])
    cx = (width - 1) / 2.0 + ox
    cy = (height - 1) / 2.0 + oy

    def profile(n, c):
        d = np.abs(np.arange(n) - c)
        return np.where(d < 1.0, 1.0, np.maximum(0.0, 1.0 - MASK_SLOPE * (d - 1.0)))

    return profile(height, cy)[:, None] * profile(width, cx)[None, :]


def perturb_displacements(epoch: int) -> Array:
    """The zero displacement plus eight compass directions at the epoch's amplitude."""
    amp = PERTURB_AMPLITUDE * PERTURB_DECAY ** (epoch // PERTURB_INTERVAL_EPOCHS)
    angles = np.arange(8) * (np.pi / 4.0)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.concatenate([np.zeros((1, 2)), amp * dirs], axis=0)


# ---------------------------------------------------------------------------
# offset predictor


class OffsetPredictor:
    """Regression head from every (query, class) pair to per-frame offsets.

    A pair's input is the channel stack of the class's support map ``s_n``
    and the query map rearranged along time onto it, ``mix_time(M_qn,
    v_q)``. Two {conv3d k=3 pad=1, batch norm, 2x2 spatial max pool, ReLU}
    blocks, a spatial global max pool, then two pointwise temporal layers
    ending in tanh. The tanh output is scaled to half the grid extent per
    axis, so a predicted centre can never leave the grid.
    The final layer starts at zero: an untrained head predicts zero offsets
    everywhere.

    The pair stacks are never built. The first convolution is linear in its
    input, so ``ad.pair_conv3d`` splits it into a support half computed once
    per class and the query's tap responses computed once per query, mixed
    per pair by the T x T matrix ``M_qn`` (see its docstring for the identity).
    """

    def __init__(
        self,
        in_channels: int,
        height: int,
        width: int,
        conv_channels: tuple[int, int],
        hidden: int,
        rng: np.random.Generator,
    ):
        if height < 4 or width < 4:
            raise ValueError(
                f"grid {height}x{width} too small for two 2x2 spatial pools (needs >= 4)"
            )
        self.height = height
        self.width = width
        c1, c2 = conv_channels

        def he(shape, fan_in):
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

        self.conv1_w = Parameter(he((c1, in_channels, 3, 3, 3), in_channels * 27), "sc.conv1_w")
        self.conv1_b = Parameter(np.zeros(c1), "sc.conv1_b")
        self.bn1_gamma = Parameter(np.ones(c1), "sc.bn1_gamma")
        self.bn1_beta = Parameter(np.zeros(c1), "sc.bn1_beta")
        self.bn1_mean = np.zeros(c1)
        self.bn1_var = np.ones(c1)
        self.conv2_w = Parameter(he((c2, c1, 3, 3, 3), c1 * 27), "sc.conv2_w")
        self.conv2_b = Parameter(np.zeros(c2), "sc.conv2_b")
        self.bn2_gamma = Parameter(np.ones(c2), "sc.bn2_gamma")
        self.bn2_beta = Parameter(np.zeros(c2), "sc.bn2_beta")
        self.bn2_mean = np.zeros(c2)
        self.bn2_var = np.ones(c2)
        self.fc1_w = Parameter(he((c2, hidden), c2), "sc.fc1_w")
        self.fc1_b = Parameter(np.zeros(hidden), "sc.fc1_b")
        self.fc2_w = Parameter(np.zeros((hidden, 2)), "sc.fc2_w")
        self.fc2_b = Parameter(np.zeros(2), "sc.fc2_b")

    def parameters(self) -> list[Parameter]:
        return [
            self.conv1_w, self.conv1_b, self.bn1_gamma, self.bn1_beta,
            self.conv2_w, self.conv2_b, self.bn2_gamma, self.bn2_beta,
            self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b,
        ]

    def bn_state(self) -> dict[str, Array]:
        return {
            "bn1_mean": self.bn1_mean, "bn1_var": self.bn1_var,
            "bn2_mean": self.bn2_mean, "bn2_var": self.bn2_var,
        }

    def forward(self, tape: Tape, support: Var, query: Var, mix: Var, training: bool) -> Var:
        """Offsets in grid cells, (Q*N, T, 2), of every (query, class) pair.

        ``support`` is (N, C, T, H, W), ``query`` is (Q, C', T, H, W) and
        ``mix`` is (Q, N, T, T); row ``q*N + n`` is the pair of query ``q``,
        rearranged by ``mix[q, n]``, with class ``n``. Without temporal
        coordination every mix is the identity. Batch norm uses the
        statistics of the current block of pairs while training and the
        frozen running statistics in eval mode.
        """
        x = ad.pair_conv3d(support, query, mix, tape.param(self.conv1_w), tape.param(self.conv1_b))
        x = ad.batchnorm_channels(
            x, tape.param(self.bn1_gamma), tape.param(self.bn1_beta),
            self.bn1_mean, self.bn1_var, training,
        )
        x = ad.relu(ad.max_pool_spatial2(x))
        x = ad.conv3d(x, tape.param(self.conv2_w), tape.param(self.conv2_b))
        x = ad.batchnorm_channels(
            x, tape.param(self.bn2_gamma), tape.param(self.bn2_beta),
            self.bn2_mean, self.bn2_var, training,
        )
        x = ad.relu(ad.max_pool_spatial2(x))
        g = ad.global_max_pool_spatial(x)  # (B, C, T)
        g = ad.transpose(g, (1, 0, 2))  # (C, B, T)
        h = ad.relu(ad.channel_linear(g, tape.param(self.fc1_w), tape.param(self.fc1_b)))
        raw = ad.tanh(ad.channel_linear(h, tape.param(self.fc2_w), tape.param(self.fc2_b)))
        sx = (self.width - 1) / 2.0
        sy = (self.height - 1) / 2.0
        scaled = ad.mul(raw, raw.tape.const(np.array([sx, sy]).reshape(2, 1, 1)))
        return ad.transpose(scaled, (1, 2, 0))  # (B, T, 2)


# ---------------------------------------------------------------------------
# masked spatial averaging


def averaged_masks(
    tape: Tape, offsets: Var, height: int, width: int, displacements: Array
) -> Var:
    """Soft (..., T, H, W) masks at (..., T, 2) offsets, averaged over variants.

    Variant ``k`` places the masks at ``offsets + displacements[k]``; the
    (K, 2) displacements are averaged before any normalization downstream.
    Unperturbed masks are the single variant ``NO_DISPLACEMENT``.
    """
    lead = offsets.shape[:-1]
    k = len(displacements)
    shifts = tape.const(displacements.reshape((k,) + (1,) * len(lead) + (2,)))
    variants = ad.reshape(ad.add(offsets, shifts), (-1, 2))
    masks = ad.offset_masks(variants, height, width, MASK_SLOPE)
    return ad.reduce_mean(ad.reshape(masks, (k, *lead, height, width)), axis=0)


def masked_spatial_average(f: Var, masks: Var) -> Var:
    """Weighted spatial mean of (..., d, T, H, W) maps under (..., T, H, W) masks.

    Returns (..., d, T); the leading axes of maps and masks broadcast. A
    small uniform floor keeps the normalizer positive even if a mask's
    support were to vanish entirely.
    """
    if f.shape[-3:] != masks.shape[-3:]:
        raise ValueError(f"mask shape {masks.shape} does not match map {f.shape}")
    floored = ad.affine(masks, 1.0, MASK_FLOOR)
    floored = ad.reshape(floored, (*masks.shape[:-3], 1, *masks.shape[-3:]))  # (..., 1, T, H, W)
    num = ad.reduce_sum(ad.mul(f, floored), axis=(-2, -1))  # (..., d, T)
    den = ad.reduce_sum(floored, axis=(-2, -1))  # (..., 1, T)
    if np.any(den.value <= 0.0):
        raise ValueError("mask normalizer vanished")
    return ad.div(num, den)


def spatial_coordinate(
    tape: Tape,
    support: Var,
    query: Var,
    offsets: Var,
    *,
    displacements: Array = NO_DISPLACEMENT,
) -> tuple[Var, Var]:
    """Masked spatial means of aligned pairs under predicted offsets.

    ``support`` and ``query`` are (..., d, T, H, W) maps and ``offsets`` is
    (..., T, 2); their leading axes broadcast, so one call pools every pair
    of an episode. Returns the (..., d, T) support and query means. Support
    is pooled around +offset, query around -offset; with perturbation
    displacements the masks are averaged first and normalized once.
    """
    h, w = support.shape[-2:]
    m_s = averaged_masks(tape, offsets, h, w, displacements)
    m_q = averaged_masks(tape, ad.neg(offsets), h, w, -displacements)
    return masked_spatial_average(support, m_s), masked_spatial_average(query, m_q)


# ---------------------------------------------------------------------------
# exhaustive integer-offset oracle


def _window_metric(a: Array, b: Array) -> float:
    """Cosine distance between two windows, compared cell by cell."""
    a = a.ravel()
    b = b.ravel()
    return 1.0 - float(a @ b) / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-12)


def sc_enumerate_oracle(support: Array, query: Array) -> tuple[Array, Array]:
    """Brute-force best integer offset per frame.

    For every candidate (x, y) the grids are hard-indexed so that support
    cell s lines up with query cell s - o, and the cosine distance between
    the two intersection windows (compared cell by cell) is minimized. Ties
    resolve to the smallest offset norm, then lexicographically. Returns
    ((T, 2) offsets as (x, y), (T,) distances).
    """
    support = np.asarray(support, dtype=float)
    query = np.asarray(query, dtype=float)
    if support.shape != query.shape or support.ndim != 4:
        raise ValueError(f"oracle expects matching d,T,H,W maps, got {support.shape}")
    _, t_len, h, w = support.shape
    best = np.zeros((t_len, 2), dtype=int)
    best_dist = np.full(t_len, np.inf)
    for t in range(t_len):
        chosen = None
        for oy in range(-(h - 1), h):
            for ox in range(-(w - 1), w):
                s_win = support[:, t, max(0, oy) : h + min(0, oy), max(0, ox) : w + min(0, ox)]
                q_win = query[:, t, max(0, -oy) : h + min(0, -oy), max(0, -ox) : w + min(0, -ox)]
                dist = _window_metric(s_win, q_win)
                key = (ox * ox + oy * oy, ox, oy)
                if (
                    chosen is None
                    or dist < chosen[0] - 1e-12
                    or (abs(dist - chosen[0]) <= 1e-12 and key < chosen[1])
                ):
                    chosen = (dist, key, (ox, oy))
        best_dist[t] = chosen[0]
        best[t] = chosen[2]
    return best, best_dist
