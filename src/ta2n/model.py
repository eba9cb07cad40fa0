"""Full alignment network: embedder, temporal transform, coordination, metric.

The episode forward pass aligns every query against every class
independently and classifies with frame-wise cosine distances between the
pooled pair representations. Both stages run on blocks of videos.

Only spatial coordination (SC) reads space. The TTM and TC see pooled
features, and every other stage applies one affine map to each cell alike,
which commutes with the mean over cells. So without SC, stage one averages
each video over H, W before the tape, and every stage runs on 1 x 1 maps.

Stage one, the embedder and the temporal transform, runs once per episode:
its N*K shots and Q queries go through one embed -> TTM -> warp chain, each
video alone, and the (N, C, T, H, W) prototype block holds the mean of each
class's warped shots. Every block is batch-first, (videos, channels, ...).

Stage two takes the prototype block and the (Q, C, T, H, W) query block
whole. Once per episode run TC (one ``TemporalCoordination.coordinate``
call, whose softmax makes the (Q, N, T, T) mix), one ``ad.mix_time`` over
(Q, N) leading axes that rearranges every query onto every class (by the
identity without TC), and, with SC, the offset predictor and one broadcast
``acm.spatial_coordinate`` call for the masks and masked means of all pairs;
without SC the rearranged 1 x 1 maps are the pooled pair maps. Once per pair
run only TC's T x T logits and the metric, on rows of the pooled blocks: the
benchmark counts one ``TemporalCoordination.forward`` and one
``metric.frame_cosine_distance`` call per pair, and reads
``EpisodeOutput.probs`` as one entry per query. Each pair's distance is one
``ad.cosine_distance`` tape entry, and the episode loss one ``ad.nll`` entry
over the stacked probabilities.

The offset predictor takes all pairs of an episode in one call, so
batch-norm statistics are per-episode during training, and its first layer
never builds the pair stacks (``autodiff.pair_conv3d``). Training and eval
forwards convolve only the positions the predictor's 2x2 pools read, since
each pool drops the trailing odd row and column; the training batch-norm
statistics cover exactly those positions.
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
from .synth import Episode, VideoFeature, check_count

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

    def validate(self) -> None:
        """``ValueError`` unless every size is a positive int, ``init_seed`` a
        non-negative int, every toggle a bool, and the TTM, when on, has at
        least two frames to resample."""
        if not (isinstance(self.offset_channels, tuple) and len(self.offset_channels) == 2):
            raise ValueError(f"offset_channels must be a pair of sizes, got {self.offset_channels!r}")
        names = ("channels", "frames", "height", "width", "proj_dim", "ttm_hidden", "offset_hidden")
        sizes = [(name, getattr(self, name)) for name in names]
        sizes += [(f"offset_channels[{i}]", c) for i, c in enumerate(self.offset_channels)]
        for name, value in sizes:
            check_count(name, value, 1)
        check_count("init_seed", self.init_seed, 0)
        for name in ("use_ttm", "use_tc", "use_sc"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.use_ttm and self.frames < 2:
            raise ValueError(f"the TTM resamples in time and needs frames >= 2, got {self.frames}")


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
        config.validate()
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
        """Embed V videos as one (V, C, T, H, W) block, H = W = 1 without SC; with
        the TTM, warp each onto its action span."""
        cfg = self.config
        want = (cfg.channels, cfg.frames, cfg.height, cfg.width)
        for v in videos:
            if v.feature.shape != want:
                raise ValueError(
                    f"video features of shape {v.feature.shape} do not match the model's "
                    f"(C, T, H, W) {want}"
                )
        block = np.stack([v.feature for v in videos])
        if self.sc is None:
            block = block.mean(axis=(-2, -1), keepdims=True)
        block = tape.const(block)
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
        class's prototype is the mean of its shots; the episode needs at least
        one query. Nothing in the forward pass is random, so ``rng`` is
        ignored; the keyword is kept only for ``bench/workloads.py``, which
        still passes it.
        """
        shots = [len(s) for s in episode.support]
        if not shots or min(shots) < 1 or min(shots) != max(shots):
            raise ValueError(
                f"every class needs the same number of shots, at least one; got {shots}"
            )
        if not episode.query:
            raise ValueError("the episode needs at least one query, got an empty query list")
        # stage one: one embed (+ temporal transform) chain, the N*K shots then the Q queries
        n_way, k_shot = len(shots), shots[0]
        block = self._stage_one(tape, [v for s in episode.support for v in s] + episode.query)
        by_class = np.arange(n_way * k_shot).reshape(n_way, k_shot)
        prototypes = ad.reduce_mean(ad.take(block, by_class), axis=1)
        query = ad.take(block, np.arange(n_way * k_shot, block.shape[0]))
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
        (N, C, T, H, W) prototype block and the (Q, C, T, H, W) query block; SC,
        if any, pools the one rearrangement of every query onto every class."""
        n_way, n_query, t = prototypes.shape[0], query.shape[0], prototypes.shape[2]
        if self.tc is not None:
            supports, queries, mix = self.tc.coordinate(tape, prototypes, query)
        else:
            supports, queries = prototypes, query
            mix = tape.const(np.broadcast_to(np.eye(t), (n_query, n_way, t, t)))
        d = supports.shape[1]
        by_query = ad.reshape(queries, (n_query, 1, d, *queries.shape[2:]))
        rearranged = ad.mix_time(mix, by_query)  # (Q, N, d, T, H, W)
        if self.sc is None:  # H = W = 1: the maps are their own means
            f_s = ad.reshape(supports, (n_way, d, t))
            f_q = ad.reshape(rearranged, (n_query * n_way, d, t))
            return list(zip(_rows(f_s) * n_query, _rows(f_q)))
        offsets = self.sc.forward(tape, supports, queries, mix, training)  # (Q*N, T, 2)
        if training:
            displacements = acm.perturb_displacements(epoch)
        else:
            displacements = acm.NO_DISPLACEMENT
        pooled = acm.spatial_coordinate(
            tape, supports, rearranged, ad.reshape(offsets, (n_query, n_way, 1, t, 2)),
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


def save_checkpoint(model: AlignmentModel, path: str | os.PathLike) -> None:
    """Checkpoint container of the model config plus every parameter and buffer."""
    meta = {"package_version": __version__, "config": asdict(model.config)}
    container.save(path, container.CHECKPOINT, meta, dict(sorted(_named_arrays(model).items())))


def load_checkpoint(path: str | os.PathLike) -> tuple[AlignmentModel, dict]:
    """The saved model and the checkpoint's meta (config and package version).
    Past the container's own rules, a config the model rejects, arrays other than
    the model's, or a negative batch-norm variance raise ``ContainerError``."""
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
    negative = [n for n, a in arrays.items() if n.endswith("_var") and a.min(initial=0.0) < 0]
    if negative:
        raise container.ContainerError(f"checkpoint variances must be non-negative: {negative}")
    for name, a in arrays.items():
        targets[name][...] = a
    return model, meta
