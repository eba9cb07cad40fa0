"""Full alignment network: embedder, temporal transform, coordination, metric.

The episode forward pass aligns every query against every class
independently (fresh coordination per pair) and classifies with frame-wise
cosine distances between the pooled pair representations. Stage one, the
embedder and the temporal transform, runs once per block: all support
videos of an episode go through one embed -> TTM -> warp chain, all its
queries through another, and a class's prototype is the mean of its warped
shots. Work of stage two that depends on one video only runs once per video:
the coordination's pooled projections and value maps, and the offset
predictor's first convolution of each support and each query. Per pair
remain the T x T correlation, the rearranged query map and the metric. The
masks and masked means of all pairs are one broadcast
``acm.spatial_coordinate`` call over (query, class) leading axes.

All pairs of an episode go through one offset-predictor call, so batch-norm
statistics are per-episode during training. Its first layer is the conv3d
of every pair stack, the channel concatenation of ``s_n`` and
``mix_time(M_qn, v_q)``, computed without building the stacks: by
linearity it equals ``conv3d(s_n, W_s) + sum_k shift_k(M_qn) @ Z_k(v_q)``,
where ``[W_s | W_q]`` splits the kernel by input half and ``Z_k`` is the
query through the 3x3 spatial taps of temporal slice ``k`` of ``W_q``
(``autodiff.pair_conv3d``). Without temporal coordination every ``M_qn``
is the identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, asdict

import numpy as np

from . import __version__
from . import acm
from . import autodiff as ad
from . import container
from . import metric
from . import ttm as ttm_mod
from .acm import OffsetPredictor, TemporalCoordination
from .autodiff import Array, Parameter, Tape, Var
from .synth import Episode, VideoFeature

@dataclass
class ModelConfig:
    channels: int = 16
    frames: int = 8
    height: int = 7
    width: int = 7
    proj_dim: int = 16
    ttm_hidden: int = 32
    offset_channels: tuple[int, int] = (128, 128)
    offset_hidden: int = 64
    use_ttm: bool = True
    use_tc: bool = True
    use_sc: bool = True
    init_seed: int = 0


@dataclass
class EpisodeOutput:
    probs: list  # per query: Var of N probabilities
    labels: list[int]

    def predictions(self) -> list[int]:
        return [int(p.value.argmax()) for p in self.probs]

    def accuracy(self) -> float:
        hits = sum(int(p == l) for p, l in zip(self.predictions(), self.labels))
        return hits / len(self.labels)


class AlignmentModel:
    """Assembled network; module toggles select any ablation variant."""

    def __init__(self, config: ModelConfig):
        self.config = config
        c = config.channels
        # one stream per module (TTM, TC, SC), so toggling one leaves the others' init alone
        rngs = [np.random.default_rng((config.init_seed, index)) for index in range(3)]
        self.embed_w = Parameter(np.eye(c), "embed.w")
        self.embed_b = Parameter(np.zeros(c), "embed.b")
        self.ttm = (
            ttm_mod.LocalizationNet(c, config.ttm_hidden, rngs[0]) if config.use_ttm else None
        )
        self.tc = (
            TemporalCoordination(c, config.proj_dim, rngs[1]) if config.use_tc else None
        )
        if config.use_sc:
            pair_channels = 2 * (config.proj_dim if config.use_tc else c)
            self.sc = OffsetPredictor(
                pair_channels,
                config.height,
                config.width,
                conv_channels=config.offset_channels,
                hidden=config.offset_hidden,
                rng=rngs[2],
            )
        else:
            self.sc = None

    def parameters(self) -> list[Parameter]:
        params = [self.embed_w, self.embed_b]
        for module in (self.ttm, self.tc, self.sc):
            if module is not None:
                params.extend(module.parameters())
        return params

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward ----------------------------------------------------------

    def _stage_one(self, tape: Tape, videos: list[VideoFeature]) -> Var:
        """Embed V videos as one (C, V, T, H, W) block; with the TTM, warp each onto its action span."""
        cfg = self.config
        want = (cfg.channels, cfg.frames, cfg.height, cfg.width)
        for v in videos:
            if v.feature.shape != want:
                raise ValueError(
                    f"video features of shape {v.feature.shape} do not match the model's "
                    f"(C, T, H, W) {want}"
                )
        block = tape.const(np.stack([v.feature for v in videos], axis=1))
        f = ad.channel_linear(block, tape.param(self.embed_w), tape.param(self.embed_b))
        if self.ttm is not None:
            scale, shift = ttm_mod.localize(self.ttm, tape, f)
            f = ttm_mod.temporal_affine_warp(f, scale, shift)
        return f

    def episode_forward(
        self,
        tape: Tape,
        episode: Episode,
        *,
        training: bool,
        epoch: int = 0,
        rng: np.random.Generator | None = None,
    ) -> EpisodeOutput:
        """Class probabilities of every query of ``episode``.

        Every class needs the same number of shots, at least one, and a
        class's prototype is the mean of its shots. Nothing in the forward
        pass is random, so ``rng`` is ignored; the keyword is kept only for
        ``bench/workloads.py``, which still passes it.
        """
        shots = [len(s) for s in episode.support]
        if not shots or min(shots) < 1 or min(shots) != max(shots):
            raise ValueError(
                f"every class needs the same number of shots, at least one; got {shots}"
            )
        # stage one: one embed (+ temporal transform) chain per block, supports then queries
        n_way, k_shot = len(shots), shots[0]
        support = self._stage_one(tape, [v for s in episode.support for v in s])
        by_class = ad.reshape(support, (support.shape[0], n_way, k_shot, *support.shape[2:]))
        prototypes = ad.reduce_mean(by_class, axis=2)
        query = self._stage_one(tape, episode.query)
        class_reprs = [ad.take(prototypes, n, axis=1) for n in range(n_way)]
        query_feats = [ad.take(query, q, axis=1) for q in range(len(episode.query))]

        # stage two: per-video coordination inputs, then every (query, class) pair
        if self.tc is not None:
            support_sides = [self.tc.support_side(tape, f) for f in class_reprs]
            query_sides = [self.tc.query_side(tape, f) for f in query_feats]
            supports = [side.values for side in support_sides]
            queries = [side.values for side in query_sides]
            pairs = [self.tc.forward(s, q) for q in query_sides for s in support_sides]
        else:
            supports, queries = class_reprs, query_feats
            pairs = [(q, None) for q in query_feats for _ in class_reprs]

        pooled = self._pool_pairs(tape, supports, queries, pairs, training, epoch)
        probs = [
            metric.classify(pooled[qi * n_way : (qi + 1) * n_way])
            for qi in range(len(query_feats))
        ]
        return EpisodeOutput(probs, list(episode.query_labels))

    def _pool_pairs(
        self,
        tape: Tape,
        supports: list[Var],
        queries: list[Var],
        pairs: list[tuple[Var, Var | None]],
        training: bool,
        epoch: int,
    ) -> list[tuple[Var, Var]]:
        """Spatially coordinate (or plainly pool) every pair -> (d,T) pairs.

        ``supports`` and ``queries`` hold one map per class and per query;
        ``pairs[q*N + n]`` is query ``q`` rearranged onto class ``n`` and the
        correlation that did it (None without TC). With SC, every pair goes
        through one broadcast ``acm.spatial_coordinate`` call, whose output is
        split per pair for the metric.
        """
        n_way = len(supports)
        if self.sc is None:
            pooled_supports = [ad.reduce_mean(s, axis=(-2, -1)) for s in supports]
            pooled = [
                (pooled_supports[k % n_way], ad.reduce_mean(q, axis=(-2, -1)))
                for k, (q, _) in enumerate(pairs)
            ]
            return pooled
        n_query, t = len(queries), supports[0].shape[1]
        support_stack, query_stack = ad.stack(supports), ad.stack(queries)
        if pairs[0][1] is None:
            mix = tape.const(np.broadcast_to(np.eye(t), (n_query, n_way, t, t)))
            rearranged = ad.reshape(query_stack, (n_query, 1, *query_stack.shape[1:]))
        else:
            mix = ad.reshape(ad.stack([corr for _, corr in pairs]), (n_query, n_way, t, t))
            rearranged = ad.reshape(
                ad.stack([q for q, _ in pairs]), (n_query, n_way, *query_stack.shape[1:])
            )
        offsets = self.sc.forward(tape, support_stack, query_stack, mix, training)  # (Q*N, T, 2)
        if training:
            displacements = acm.perturb_displacements(epoch)
        else:
            displacements = acm.NO_DISPLACEMENT
        f_s, f_q = acm.spatial_coordinate(
            tape, support_stack, rearranged, ad.reshape(offsets, (n_query, n_way, t, 2)),
            displacements=displacements,
        )  # (Q, N, d, T) each
        f_s = ad.reshape(f_s, (len(pairs), *f_s.shape[2:]))
        f_q = ad.reshape(f_q, (len(pairs), *f_q.shape[2:]))
        return [(ad.take(f_s, k), ad.take(f_q, k)) for k in range(len(pairs))]


# ---------------------------------------------------------------------------
# checkpoints


def _named_arrays(model: AlignmentModel) -> dict[str, Array]:
    arrays = {p.name: p.value for p in model.parameters()}
    if model.sc is not None:
        for name, arr in model.sc.bn_state().items():
            arrays[f"sc.{name}"] = arr
    return arrays


def save_checkpoint(model: AlignmentModel, path: str | os.PathLike, extra: dict | None = None) -> None:
    """Checkpoint container of the model config plus every parameter and buffer."""
    meta = {
        "package_version": __version__,
        "config": asdict(model.config),
        "extra": extra or {},
    }
    container.save(path, container.CHECKPOINT, meta, dict(sorted(_named_arrays(model).items())))


def load_checkpoint(path: str | os.PathLike) -> tuple[AlignmentModel, dict]:
    """The saved model and the checkpoint's meta (config, package version, extra)."""
    meta, arrays = container.load(path, container.CHECKPOINT)
    names = {f.name for f in fields(ModelConfig)}
    try:
        cfg = dict(meta["config"])
        unknown, missing = sorted(set(cfg) - names), sorted(names - set(cfg))
        if unknown or missing:
            raise container.ContainerError(
                f"malformed checkpoint config: unknown keys {unknown}, missing keys {missing}"
            )
        cfg["offset_channels"] = tuple(cfg["offset_channels"])
        model = AlignmentModel(ModelConfig(**cfg))
    except (KeyError, TypeError, ValueError) as e:
        raise container.ContainerError(f"malformed checkpoint config: {e}") from e
    targets = _named_arrays(model)
    container.expect_shapes(arrays, {name: a.shape for name, a in targets.items()})
    for name, a in arrays.items():
        targets[name][...] = a
    return model, meta
