"""Full alignment network: embedder, temporal transform, coordination, metric.

The episode forward pass aligns every query against every class
independently and classifies with frame-wise cosine distances between the
pooled pair representations. Both stages run on blocks of videos.

Stage one, the embedder and the temporal transform, runs once per block:
all support videos of an episode go through one embed -> TTM -> warp chain,
all its queries through another, and the (C, N, T, H, W) prototype block
holds the mean of each class's warped shots.

Stage two takes the prototype block and the (C, Q, T, H, W) query block
whole. Once per block run TC's pooled projections and value maps, and,
without SC, the spatial mean. Once per episode run the rearrangement of
every query onto every class (one ``ad.mix_time`` over (Q, N) leading
axes), the offset predictor and the masks and masked means of all pairs
(one broadcast ``acm.spatial_coordinate`` call). Without SC, TC mixes the
spatially averaged queries, since the mean over H, W commutes with the time
mix, so no (Q, N, d, T, H, W) block is built. Once per pair run only TC's
T x T correlation and the metric, on rows taken from the pooled blocks:
the benchmark counts one ``TemporalCoordination.forward`` and one
``metric.frame_cosine_distance`` call per pair, and reads
``EpisodeOutput.probs`` as one entry per query.

The offset predictor takes all pairs of an episode in one call, so
batch-norm statistics are per-episode during training, and its first layer
never builds the pair stacks (``autodiff.pair_conv3d``).
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
        pairs = self._stage_two(tape, prototypes, query, training, epoch)
        probs = [
            metric.classify(pairs[qi * n_way : (qi + 1) * n_way])
            for qi in range(len(episode.query))
        ]
        return EpisodeOutput(probs, list(episode.query_labels))

    def _stage_two(
        self, tape: Tape, prototypes: Var, query: Var, training: bool, epoch: int
    ) -> list[tuple[Var, Var]]:
        """Pooled (d, T) maps of every (query, class) pair, ``pairs[q*N + n]``, from the
        (C, N, T, H, W) prototype block and the (C, Q, T, H, W) query block."""
        n_way, n_query, t = prototypes.shape[1], query.shape[1], prototypes.shape[2]
        if self.tc is not None:
            keys, support_values = self.tc.support_side(tape, prototypes)
            queries, query_values = self.tc.query_side(tape, query)
            key_rows = _rows(keys)
            corrs = [self.tc.forward(k, q) for q in _rows(queries) for k in key_rows]
            mix = ad.reshape(ad.stack(corrs), (n_query, n_way, t, t))
        else:
            support_values, query_values, mix = prototypes, query, None
        supports = ad.transpose(support_values, (1, 0, 2, 3, 4))  # (N, d, T, H, W)
        queries = ad.transpose(query_values, (1, 0, 2, 3, 4))  # (Q, d, T, H, W)
        d = supports.shape[1]
        if self.sc is None:
            f_s = ad.reduce_mean(supports, axis=(-2, -1))  # (N, d, T)
            f_q = ad.reduce_mean(queries, axis=(-2, -1))  # (Q, d, T)
            if mix is None:
                query_rows = [f for f in _rows(f_q) for _ in range(n_way)]
            else:
                f_q = ad.mix_time(mix, ad.reshape(f_q, (n_query, 1, d, t, 1, 1)))
                query_rows = _rows(ad.reshape(f_q, (n_query * n_way, d, t)))
            return list(zip(_rows(f_s) * n_query, query_rows))
        by_query = ad.reshape(queries, (n_query, 1, d, *queries.shape[2:]))
        if mix is None:
            mix = tape.const(np.broadcast_to(np.eye(t), (n_query, n_way, t, t)))
            rearranged = by_query
        else:
            rearranged = ad.mix_time(mix, by_query)  # (Q, N, d, T, H, W)
        offsets = self.sc.forward(tape, supports, queries, mix, training)  # (Q*N, T, 2)
        if training:
            displacements = acm.perturb_displacements(epoch)
        else:
            displacements = acm.NO_DISPLACEMENT
        pooled = acm.spatial_coordinate(
            tape, supports, rearranged, ad.reshape(offsets, (n_query, n_way, t, 2)),
            displacements=displacements,
        )  # (Q, N, d, T) support and query means
        f_s, f_q = (ad.reshape(f, (n_query * n_way, d, t)) for f in pooled)
        return list(zip(_rows(f_s), _rows(f_q)))


def _rows(block: Var) -> list[Var]:
    """The slices of ``block`` along its leading axis."""
    return [ad.take(block, i) for i in range(block.shape[0])]


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
