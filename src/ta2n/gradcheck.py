"""Seeded gradient-check cases for every stage.

Central differences are only meaningful at smooth points, but several stages
are piecewise linear: the duration clamp, the warp's integer source
positions, the mask ring edges, and the ReLUs and max pools of the offset
predictor are all subgradient kinks. A kink that merely lies near the
evaluation point is handled by ``finite_diff_gradcheck``, whose step ladder
shrinks the step (down to ``GRADCHECK_STEP_FLOOR``) until the central
difference no longer straddles it. A point sitting exactly on a kink has no
such step, and the zero-initialized heads start on some: the identity warp
puts the duration scale on the clamp's upper bound and every warp source
position on an integer frame, and zero offsets put grid cells on the mask
rings. So the ttm, sc and full builders each draw one nudge that moves those
heads off their init.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import metric
from . import ttm as ttm_mod
from .acm import OffsetPredictor, TemporalCoordination, spatial_coordinate
from .autodiff import GradCheckReport, Parameter, Tape, finite_diff_gradcheck
from .model import AlignmentModel, ModelConfig
from .synth import MisalignmentConfig, generate_dataset, sample_episode


@dataclass
class GradCase:
    name: str
    build: Callable[[Tape], ad.Var]
    params: list[Parameter]
    step: float = 1e-3
    tolerance: float = 1e-4


def _scalarize(tape: Tape, v, seed: int):
    w = tape.const(np.random.default_rng(seed).standard_normal(v.value.shape))
    return ad.reduce_sum(ad.mul(v, w))


# ---------------------------------------------------------------------------
# per-stage cases


def core_cases(seed: int) -> list[GradCase]:
    rng = np.random.default_rng(seed)
    cases = []

    p = Parameter(rng.uniform(0.3, 1.2, (4, 5)), "p")
    q = Parameter(rng.uniform(0.3, 1.2, (4, 5)), "q")

    def elementwise(tape):
        a, b = tape.param(p), tape.param(q)
        z = ad.mul(ad.sigmoid(a), ad.tanh(b))
        z = ad.add(z, ad.div(a, ad.add(b, tape.const(np.ones(1)))))
        attn = ad.softmax(ad.matmul(a, ad.transpose(b, (1, 0))), axis=1)  # (4, 4)
        z = ad.add(z, ad.matmul(attn, b))
        return _scalarize(tape, z, seed + 1)

    cases.append(GradCase("core.elementwise", elementwise, [p, q], step=1e-5, tolerance=1e-6))

    x = Parameter(rng.standard_normal((3, 8)), "x")
    w = Parameter(rng.standard_normal((6, 3, 3)), "w")
    b = Parameter(rng.standard_normal(6), "b")

    def conv1(tape):
        return _scalarize(
            tape, ad.conv1d_temporal(tape.param(x), tape.param(w), tape.param(b)), seed + 2
        )

    cases.append(GradCase("core.conv1d", conv1, [x, w, b], step=1e-5, tolerance=1e-6))

    x3 = Parameter(rng.standard_normal((2, 3, 4, 6, 6)), "x3")
    w3 = Parameter(rng.standard_normal((4, 3, 3, 3, 3)) * 0.3, "w3")
    b3 = Parameter(rng.standard_normal(4), "b3")

    def conv3(tape):
        y = ad.conv3d(tape.param(x3), tape.param(w3), tape.param(b3))
        y = ad.relu(ad.max_pool_spatial2(y))
        return _scalarize(tape, ad.global_max_pool_spatial(y), seed + 3)

    cases.append(GradCase("core.conv3d_pool", conv3, [x3, w3, b3]))

    sp = Parameter(rng.standard_normal((2, 3, 4, 5, 5)), "support")
    qp = Parameter(rng.standard_normal((3, 2, 4, 5, 5)), "query")
    mp = Parameter(rng.standard_normal((3, 2, 4, 4)), "mix")
    wp = Parameter(rng.standard_normal((4, 5, 3, 3, 3)) * 0.3, "wp")
    bp = Parameter(rng.standard_normal(4), "bp")

    def pair_conv(tape):
        y = ad.pair_conv3d(
            tape.param(sp), tape.param(qp), tape.param(mp), tape.param(wp), tape.param(bp)
        )
        return _scalarize(tape, y, seed + 8)

    cases.append(
        GradCase("core.pair_conv3d", pair_conv, [sp, qp, mp, wp, bp], step=1e-5, tolerance=1e-6)
    )
    return cases


def ttm_case(seed: int) -> GradCase:
    rng = np.random.default_rng(seed)
    frames = 8
    feat = Parameter(rng.standard_normal((4, frames, 5, 5)), "feat")
    net = ttm_mod.LocalizationNet(4, hidden=8, rng=rng)
    # off the identity warp: scale below the clamp, source positions off the frames
    nudge = np.random.default_rng((seed, 0))
    net.head_w.value[:] = nudge.normal(0, 0.05, net.head_w.shape)
    net.head_b.value[:] = [nudge.uniform(-0.5, -0.2), nudge.uniform(-0.3, 0.3)]

    def build(tape):
        f = tape.param(feat)
        s, b = ttm_mod.localize(net, tape, f)
        out = ttm_mod.temporal_affine_warp(f, s, b)
        return _scalarize(tape, out, seed + 4)

    return GradCase("ttm.localize_warp", build, [feat, *net.parameters()])


def tc_case(seed: int) -> GradCase:
    rng = np.random.default_rng(seed)
    tc = TemporalCoordination(5, proj_dim=4, rng=rng)
    support = Parameter(rng.standard_normal((5, 6, 5, 5)), "support")
    query = Parameter(rng.standard_normal((5, 6, 5, 5)), "query")

    def build(tape):
        s_side = tc.support_side(tape, tape.param(support))
        v_q, corr = tc.forward(s_side, tc.query_side(tape, tape.param(query)))
        z = ad.add(_scalarize(tape, s_side.values, seed + 5), _scalarize(tape, v_q, seed + 6))
        return ad.add(z, _scalarize(tape, corr, seed + 7))

    return GradCase("tc.coordinate", build, [support, query, *tc.parameters()])


def sc_case(seed: int) -> GradCase:
    """Two queries x two classes through one predictor and one SC call."""
    rng = np.random.default_rng(seed)
    height = width = 7
    support = Parameter(rng.standard_normal((2, 4, 3, height, width)), "support")
    query = Parameter(rng.standard_normal((2, 4, 3, height, width)), "query")
    pred = OffsetPredictor(8, height, width, conv_channels=(8, 8), hidden=8, rng=rng)
    # off zero offsets, which put grid cells on the mask rings
    nudge = np.random.default_rng((seed, 1))
    pred.fc2_w.value[:] = nudge.normal(0, 0.1, pred.fc2_w.shape)
    pred.fc2_b.value[:] = nudge.uniform(-0.4, 0.4, 2)
    # each query is rearranged along time onto each class before both the
    # predictor and the masks
    mix_logits = Parameter(nudge.standard_normal((2, 2, 3, 3)), "mix_logits")

    def build(tape):
        s, q = tape.param(support), tape.param(query)
        corr = ad.softmax(tape.param(mix_logits), axis=3)  # (Q, N, T, T)
        offs = pred.forward(tape, s, q, corr, training=True)  # (Q*N, T, 2)
        rearranged = ad.stack([
            ad.mix_time(ad.take(ad.take(corr, i), j), ad.take(q, i))
            for i in range(2) for j in range(2)
        ])
        f_s, f_q = spatial_coordinate(
            tape, s, ad.reshape(rearranged, (2, 2, *q.shape[1:])),
            ad.reshape(offs, (2, 2, 3, 2)),
        )
        return ad.add(_scalarize(tape, f_s, seed + 9), _scalarize(tape, f_q, seed + 10))

    return GradCase(
        "sc.offset_mask_average", build, [support, query, mix_logits, *pred.parameters()]
    )


def metric_case(seed: int) -> GradCase:
    rng = np.random.default_rng(seed)
    query = Parameter(rng.standard_normal((4, 6)), "query")
    protos = [Parameter(rng.standard_normal((4, 6)), f"proto{i}") for i in range(3)]

    def build(tape):
        q = tape.param(query)
        probs, _ = metric.classify([(tape.param(p), q) for p in protos])
        return metric.cross_entropy_loss([probs], [1])

    return GradCase("metric.classify_loss", build, [query, *protos])


def full_case(
    seed: int,
    model_config: ModelConfig | None = None,
    n_way: int = 2,
    k_shot: int = 1,
    n_query: int = 1,
) -> GradCase:
    """Episode loss through embed, temporal transform, coordination and metric.

    Every parameter of a freshly initialized model is nudged once; the TTM
    and SC heads are also moved off the identity warp and zero offsets, where
    they sit exactly on the clamp, integer warp positions and mask rings.
    """
    cfg = model_config or ModelConfig(
        channels=6, frames=8, height=7, width=7, proj_dim=6,
        ttm_hidden=8, offset_channels=(8, 8), offset_hidden=8,
    )
    dims = (cfg.channels, cfg.frames, cfg.height, cfg.width)
    dataset = generate_dataset(
        6, k_shot + n_query, dims, MisalignmentConfig(0.4, 0.8, 1.0, 0.2), seed=seed
    )
    episode = sample_episode(dataset, "train", n_way, k_shot, n_query, seed=seed + 1)
    proto_rng_seed = seed + 2

    model = AlignmentModel(cfg)
    nudge = np.random.default_rng((seed, 2))
    for p in model.parameters():
        p.value += nudge.normal(0.0, 0.02, p.value.shape)
    if model.ttm is not None:
        model.ttm.head_b.value[0] = nudge.uniform(-0.5, -0.25)
    if model.sc is not None:
        model.sc.fc2_b.value[:] = nudge.uniform(-0.4, 0.4, 2)

    def build(tape):
        out = model.episode_forward(
            tape, episode, training=True, epoch=0,
            rng=np.random.default_rng(proto_rng_seed),
        )
        return metric.cross_entropy_loss(out.probs, out.labels)

    return GradCase("full.episode_loss", build, model.parameters())


def cases_for(module: str, seed: int) -> list[GradCase]:
    if module == "core":
        return core_cases(seed)
    if module == "ttm":
        return [ttm_case(seed)]
    if module == "tc":
        return [tc_case(seed)]
    if module == "sc":
        return [sc_case(seed)]
    if module == "metric":
        return [metric_case(seed)]
    if module == "all":
        return (
            core_cases(seed)
            + [ttm_case(seed), tc_case(seed), sc_case(seed), metric_case(seed)]
            + [full_case(seed)]
        )
    raise ValueError(f"unknown gradcheck module {module!r}")


def run_cases(
    cases: list[GradCase], seed: int, max_coords_per_param: int = 4
) -> list[tuple[str, GradCheckReport]]:
    results = []
    for i, case in enumerate(cases):
        report = finite_diff_gradcheck(
            case.build,
            case.params,
            step=case.step,
            tolerance=case.tolerance,
            rng=np.random.default_rng((seed, i)),
            max_coords_per_param=max_coords_per_param,
        )
        results.append((case.name, report))
    return results
