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
and the masks and masked means follow numpy's broadcasting rules, with no
reshape from the offsets to the means, so the pairs are pooled in one call
as well. The predictor's convolutions compute only the conv outputs its
2x2 pools read, since each pool drops its grid's trailing odd row and
column; training batch norm takes its statistics over those outputs, so
training and eval convolve the same positions. Each layer's batch norm,
2x2 max pool and ReLU run as one ``ad.batchnorm_maxpool_relu`` op that
normalizes only the inputs its pool selects, so backward keeps each conv
output once and no normalized copy of it.
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
        """Scaled keys (N, T, P) of the spatially pooled (N, C, T, H, W)
        support block, and its (N, P, T, H, W) values."""
        keys = ad.channel_linear(
            ad.reduce_mean(block, axis=(-2, -1)), tape.param(self.key_w), tape.param(self.key_b)
        )
        keys = ad.affine(ad.transpose(keys, (0, 2, 1)), 1.0 / np.sqrt(self.proj_dim))
        return keys, self._values(tape, block)

    def query_side(self, tape: Tape, block: Var) -> tuple[Var, Var]:
        """Queries (Q, P, T) of the spatially pooled (Q, C, T, H, W) query
        block, and its (Q, P, T, H, W) values.

        The queries have no bias: it would add ``k_i . b`` to every logit of
        support row ``i``, which the softmax over query columns cancels.
        """
        queries = ad.channel_linear(
            ad.reduce_mean(block, axis=(-2, -1)), tape.param(self.query_w)
        )
        return queries, self._values(tape, block)

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
# mask perturbation


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

    Both convolutions compute only the outputs the 2x2 pools read, the even
    top-left part of each grid (6x6 of 7x7, then 2x2 of 3x3 at
    ``ModelConfig()``), since a pool drops its grid's trailing odd row and
    column. Batch norm sees only those outputs, in training and eval alike.

    Each {batch norm, pool, ReLU} triple is one ``ad.batchnorm_maxpool_relu``
    entry. Batch norm is monotone per channel, so the op pools the conv
    outputs first, taking each window's minimum where the scale is
    negative, and normalizes only the quarter it keeps; its output equals
    the three separate ops bit for bit. Its gradient goes to the first
    input of a window equal to the one it selected.

    The conv and batch-norm ops store their (B, C, T, H, W) blocks
    channels-last (see ``ad.conv3d``); this class sees only the shapes.
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
        coordination every mix is the identity. Each conv computes only its
        top-left ``2*(h//2) x 2*(w//2)`` outputs (see the class docstring).
        ``training`` selects only the batch-norm mode: statistics of those
        outputs over the current block of pairs, which also update the
        running statistics, or the frozen running statistics in eval mode,
        where the offsets equal those of the full-grid convolutions.
        """
        def extent(x: Var) -> tuple[int, int]:
            h, w = x.shape[-2:]
            return 2 * (h // 2), 2 * (w // 2)

        x = ad.pair_conv3d(
            support, query, mix, tape.param(self.conv1_w), tape.param(self.conv1_b), extent(support)
        )
        x = ad.batchnorm_maxpool_relu(
            x, tape.param(self.bn1_gamma), tape.param(self.bn1_beta),
            self.bn1_mean, self.bn1_var, training,
        )
        x = ad.conv3d(x, tape.param(self.conv2_w), tape.param(self.conv2_b), extent(x))
        x = ad.batchnorm_maxpool_relu(
            x, tape.param(self.bn2_gamma), tape.param(self.bn2_beta),
            self.bn2_mean, self.bn2_var, training,
        )
        g = ad.global_max_pool_spatial(x)  # (B, C, T)
        h = ad.relu(ad.channel_linear(g, tape.param(self.fc1_w), tape.param(self.fc1_b)))
        raw = ad.tanh(ad.channel_linear(h, tape.param(self.fc2_w), tape.param(self.fc2_b)))
        sx = (self.width - 1) / 2.0
        sy = (self.height - 1) / 2.0
        scaled = ad.mul(raw, raw.tape.const(np.array([[sx], [sy]])))  # (B, 2, T)
        return ad.transpose(scaled, (0, 2, 1))  # (B, T, 2)


# ---------------------------------------------------------------------------
# masked spatial averaging


def averaged_masks(tape: Tape, offsets: Var, height: int, width: int, displacements: Array) -> Var:
    """Soft (..., H, W) masks at (..., 2) offsets, averaged over variants.

    Variant ``k`` places the masks at ``offsets + displacements[k]``, on a
    new leading axis averaged away before any normalization downstream.
    Unperturbed masks are the single variant ``NO_DISPLACEMENT``.
    """
    shifts = tape.const(displacements.reshape((-1,) + (1,) * (len(offsets.shape) - 1) + (2,)))
    masks = ad.offset_masks(ad.add(offsets, shifts), height, width, MASK_SLOPE)
    return ad.reduce_mean(masks, axis=0)


def masked_spatial_average(f: Var, masks: Var) -> Var:
    """Weighted spatial mean of (..., d, T, H, W) maps under (..., T, H, W) masks.

    Returns (..., d, T); maps and masks broadcast under numpy's rules. Masks
    are >= 0, so the uniform floor keeps every normalizer >= H*W*MASK_FLOOR.
    """
    if f.shape[-3:] != masks.shape[-3:]:
        raise ValueError(f"mask shape {masks.shape} does not match map {f.shape}")
    floored = ad.affine(masks, 1.0, MASK_FLOOR)
    num = ad.reduce_sum(ad.mul(f, floored), axis=(-2, -1))  # (..., d, T)
    den = ad.reduce_sum(floored, axis=(-2, -1))  # (..., T)
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
    (..., T, 2), whose leading axes broadcast with the maps' (..., d) under
    numpy's rules: (Q, N, 1, T, 2) offsets pool every pair of (Q, N, d, T,
    H, W) maps in one call. Returns the (..., d, T) support and query means.
    Support is pooled around +offset, query around -offset; with perturbation
    displacements the masks are averaged first and normalized once.
    """
    h, w = support.shape[-2:]
    m_s = averaged_masks(tape, offsets, h, w, displacements)
    m_q = averaged_masks(tape, ad.affine(offsets, -1.0), h, w, -displacements)
    return masked_spatial_average(support, m_s), masked_spatial_average(query, m_q)
