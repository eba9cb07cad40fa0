"""Full alignment network: embedder, temporal transform, coordination, metric.

The episode forward pass aligns every query against every class
independently (fresh coordination per pair) and classifies with frame-wise
cosine distances between the pooled pair representations. Work that depends
on one video only runs once per video: the temporal transform, the
coordination's pooled projections and value maps, and the offset
predictor's first convolution of each support and each query. Per pair
remain the T x T correlation, the rearranged query map and the metric. The
masks and masked means of all pairs are one broadcast
``acm.spatial_coordinate`` call over (query, class) leading axes.

All pairs of an episode go through one offset-predictor call, so batch-norm
statistics are per-episode during training. Its first layer is the conv3d
of every pair stack ``concat_channels(s_n, mix_time(M_qn, v_q))``, computed
without building the stacks: by linearity it equals
``conv3d(s_n, W_s) + sum_k shift_k(M_qn) @ Z_k(v_q)``, where ``[W_s | W_q]``
splits the kernel by input half and ``Z_k`` is the query through the 3x3
spatial taps of temporal slice ``k`` of ``W_q`` (``autodiff.pair_conv3d``).
Without temporal coordination every ``M_qn`` is the identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from . import acm
from . import autodiff as ad
from . import container
from . import metric
from . import ttm as ttm_mod
from .acm import OffsetPredictor, PerturbSchedule, TemporalCoordination
from .autodiff import Array, Parameter, Tape, Var
from .synth import Episode

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
class PairRecord:
    """Per support-query pair artifacts kept for inspection/export."""

    query_index: int
    class_label: int
    correlation: Array | None = None
    offsets: Array | None = None
    pooled_query: Array | None = None
    pooled_support: Array | None = None


@dataclass
class EpisodeOutput:
    probs: list  # per query: Var of N probabilities
    logits: list
    labels: list[int]
    warps: dict[int, tuple[float, float]] = field(default_factory=dict)
    pairs: list[PairRecord] = field(default_factory=list)

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
        rng = np.random.default_rng(config.init_seed)
        self.embed_w = Parameter(np.eye(c), "embed.w")
        self.embed_b = Parameter(np.zeros(c), "embed.b")
        self.ttm = (
            ttm_mod.LocalizationNet(c, config.ttm_hidden, rng) if config.use_ttm else None
        )
        self.tc = (
            TemporalCoordination(c, config.proj_dim, rng) if config.use_tc else None
        )
        if config.use_sc:
            pair_channels = 2 * (config.proj_dim if config.use_tc else c)
            self.sc = OffsetPredictor(
                pair_channels,
                config.height,
                config.width,
                conv_channels=config.offset_channels,
                hidden=config.offset_hidden,
                rng=rng,
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

    def embed(self, tape: Tape, feature: Array) -> Var:
        f = ad.channel_linear(
            tape.const(feature), tape.param(self.embed_w), tape.param(self.embed_b)
        )
        return f

    def prepare_video(self, tape: Tape, feature: Array, warps_out: dict | None = None, key=None) -> Var:
        """Embed one video and, when enabled, warp it onto its action span."""
        f = self.embed(tape, feature)
        if self.ttm is not None:
            scale, shift = ttm_mod.localize(self.ttm, tape, f)
            f = ttm_mod.temporal_affine_warp(f, scale, shift)
            if warps_out is not None:
                warps_out[key] = (float(scale.value), float(shift.value))
        return f

    def episode_forward(
        self,
        tape: Tape,
        episode: Episode,
        *,
        training: bool,
        epoch: int = 0,
        rng: np.random.Generator | None = None,
        collect: bool = False,
    ) -> EpisodeOutput:
        cfg = self.config
        if episode.k_shot > 1 and cfg.use_tc and cfg.proj_dim != cfg.channels:
            raise ValueError(
                "multi-shot prototypes re-enter the coordination stage, which "
                f"requires proj_dim == channels (got {cfg.proj_dim} != {cfg.channels})"
            )
        rng = rng or np.random.default_rng(0)
        out = EpisodeOutput(probs=[], logits=[], labels=list(episode.query_labels))

        # stage one: every video through the embedder (+ temporal transform)
        query_feats = [
            self.prepare_video(tape, v.feature, out.warps, ("q", i))
            for i, v in enumerate(episode.query)
        ]
        class_reprs = []
        for label, shots in enumerate(episode.support):
            feats = [
                self.prepare_video(tape, v.feature, out.warps, ("s", label, j))
                for j, v in enumerate(shots)
            ]
            class_reprs.append(self._class_prototype(tape, feats, rng))

        # stage two: per-video coordination inputs, then every (query, class) pair
        n_way = len(class_reprs)
        if self.tc is not None:
            support_sides = [self.tc.support_side(tape, f) for f in class_reprs]
            query_sides = [self.tc.query_side(tape, f) for f in query_feats]
            supports = [side.values for side in support_sides]
            queries = [side.values for side in query_sides]
            pairs = [self.tc.forward(s, q) for q in query_sides for s in support_sides]
        else:
            supports, queries = class_reprs, query_feats
            pairs = [(q, None) for q in query_feats for _ in class_reprs]

        pooled, offsets = self._pool_pairs(tape, supports, queries, pairs, training, epoch)

        for qi in range(len(query_feats)):
            probs, logits = metric.classify(pooled[qi * n_way : (qi + 1) * n_way])
            out.probs.append(probs)
            out.logits.append(logits)
            if collect:
                for ci in range(n_way):
                    k = qi * n_way + ci
                    rec = PairRecord(qi, ci)
                    corr = pairs[k][1]
                    if corr is not None:
                        rec.correlation = np.array(corr.value)
                    if offsets is not None:
                        rec.offsets = np.array(offsets.value[k])
                    f_s, f_q = pooled[k]
                    rec.pooled_support = np.array(f_s.value)
                    rec.pooled_query = np.array(f_q.value)
                    out.pairs.append(rec)
        return out

    def _class_prototype(self, tape: Tape, feats: list[Var], rng: np.random.Generator) -> Var:
        """Fuse K support features; single shots pass through untouched."""
        if not feats:
            raise ValueError("a class prototype needs at least one shot")
        if len(feats) == 1:
            return feats[0]
        ref = int(rng.integers(len(feats)))
        if self.tc is not None:
            ref_side = self.tc.support_side(tape, feats[ref])
            aligned = [self.tc.forward(ref_side, self.tc.query_side(tape, f))[0] for f in feats]
        else:
            aligned = feats
        total = aligned[0]
        for f in aligned[1:]:
            total = ad.add(total, f)
        return ad.affine(total, 1.0 / len(aligned))

    def _pool_pairs(
        self,
        tape: Tape,
        supports: list[Var],
        queries: list[Var],
        pairs: list[tuple[Var, Var | None]],
        training: bool,
        epoch: int,
    ) -> tuple[list[tuple[Var, Var]], Var | None]:
        """Spatially coordinate (or plainly pool) every pair -> (d,T) pairs.

        ``supports`` and ``queries`` hold one map per class and per query;
        ``pairs[q*N + n]`` is query ``q`` rearranged onto class ``n`` and the
        correlation that did it (None without TC). With SC, every pair goes
        through one broadcast ``acm.spatial_coordinate`` call, whose output is
        split per pair for the metric. Also returns the (Q*N, T, 2) predicted
        offsets, or None without SC.
        """
        n_way = len(supports)
        if self.sc is None:
            pooled_supports = [ad.global_avg_pool_spatial(s) for s in supports]
            pooled = [
                (pooled_supports[k % n_way], ad.global_avg_pool_spatial(q))
                for k, (q, _) in enumerate(pairs)
            ]
            return pooled, None
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
            displacements = PerturbSchedule().displacements(epoch)
        else:
            displacements = acm.NO_DISPLACEMENT
        f_s, f_q = acm.spatial_coordinate(
            tape, support_stack, rearranged, ad.reshape(offsets, (n_query, n_way, t, 2)),
            displacements=displacements,
        )  # (Q, N, d, T) each
        f_s = ad.reshape(f_s, (len(pairs), *f_s.shape[2:]))
        f_q = ad.reshape(f_q, (len(pairs), *f_q.shape[2:]))
        return [(ad.take(f_s, k), ad.take(f_q, k)) for k in range(len(pairs))], offsets


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
    try:
        cfg = dict(meta["config"])
        cfg["offset_channels"] = tuple(cfg["offset_channels"])
        model = AlignmentModel(ModelConfig(**cfg))
    except (KeyError, TypeError, ValueError) as e:
        raise container.ContainerError(f"malformed checkpoint config: {e}") from e
    targets = _named_arrays(model)
    container.expect_shapes(arrays, {name: a.shape for name, a in targets.items()})
    for name, a in arrays.items():
        targets[name][...] = a
    return model, meta
