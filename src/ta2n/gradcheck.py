"""Seeded gradient-check cases for every stage.

Central differences are only meaningful at smooth points, but several stages
are piecewise linear: the duration clamp, the warp's integer source
positions, the mask ring edges, and the ReLUs and max pools of the offset
predictor are all subgradient kinks, and the zero-initialized heads start
exactly on some of them. The ttm, sc and full builders nudge the heads off
their init and resample the nudge until a probe forward pass clears explicit
margins around the clamp, the warp positions and the mask rings.

The ReLU and max-pool kinks are not probed. A coordinate whose central
difference straddles one of them is left to ``finite_diff_gradcheck``'s
retries at smaller steps, so a configuration that clears every probed margin
can still fail the check while backward is correct. For example, the smallest
ReLU input of ``full_case(3)`` is 3.7e-6 from zero; with two coordinates per
parameter its check fails at a relative error of 3.0e-3, yet at a step of
1e-6 central differences agree with backward to better than 1e-8. Probing
these kinks needs primitives that report their own distance to a kink.
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
from .synth import Episode, MisalignmentConfig, generate_dataset, sample_episode

KINK_MARGIN = 5e-3
FULL_CASE_ATTEMPTS = 200

MODULE_NAMES = ("core", "ttm", "tc", "sc", "metric", "all")


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
# kink margins


def warp_positions_smooth(scale: float, shift: float, frames: int, margin: float) -> bool:
    """True when no warp source position sits near an integer frame index."""
    i = np.arange(frames)
    s = (shift + scale * i / (frames - 1)) * (frames - 1)
    return bool(np.all(np.abs(s - np.round(s)) > margin))


def duration_scale_smooth(scale: float, margin: float) -> bool:
    return ttm_mod.MIN_DURATION_SCALE + margin < scale < 1.0 - margin


def mask_offsets_smooth(
    offsets: np.ndarray, height: int, width: int, slope: float, margin: float
) -> bool:
    """True when no grid coordinate sits near a mask profile kink.

    Kinks sit at axis distance 1 and 1 + 1/slope from the (possibly negated)
    mask centre; both signs are checked because the query side uses -o.
    """
    radii = np.array([1.0, 1.0 + 1.0 / slope])
    for sign in (1.0, -1.0):
        for t in range(offsets.shape[0]):
            cx = (width - 1) / 2.0 + sign * offsets[t, 0]
            cy = (height - 1) / 2.0 + sign * offsets[t, 1]
            dx = np.abs(np.arange(width) - cx)
            dy = np.abs(np.arange(height) - cy)
            for d in (dx, dy):
                if np.any(np.abs(d[:, None] - radii[None, :]) < margin):
                    return False
    return True


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
    return cases


def ttm_case(seed: int) -> GradCase:
    rng = np.random.default_rng(seed)
    frames = 8
    feat = Parameter(rng.standard_normal((4, frames, 5, 5)), "feat")
    net = ttm_mod.LocalizationNet(4, hidden=8, rng=rng)
    for attempt in range(100):
        nudge = np.random.default_rng((seed, attempt))
        net.head_w.value[:] = nudge.normal(0, 0.05, net.head_w.shape)
        net.head_b.value[:] = [nudge.uniform(-0.5, -0.2), nudge.uniform(-0.3, 0.3)]
        tape = Tape(grad=False)
        scale, shift = ttm_mod.localize(net, tape, tape.const(feat.value))
        sc, sh = float(scale.value), float(shift.value)
        if duration_scale_smooth(sc, KINK_MARGIN) and warp_positions_smooth(
            sc, sh, frames, KINK_MARGIN
        ):
            break
    else:
        raise RuntimeError("could not find a smooth warp configuration")

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
        v_s, v_q, corr = tc.forward(tape, tape.param(support), tape.param(query))
        z = ad.add(_scalarize(tape, v_s, seed + 5), _scalarize(tape, v_q, seed + 6))
        return ad.add(z, _scalarize(tape, corr, seed + 7))

    return GradCase("tc.coordinate", build, [support, query, *tc.parameters()])


def sc_case(seed: int) -> GradCase:
    rng = np.random.default_rng(seed)
    height = width = 7
    support = Parameter(rng.standard_normal((4, 3, height, width)), "support")
    query = Parameter(rng.standard_normal((4, 3, height, width)), "query")
    pred = OffsetPredictor(8, height, width, conv_channels=(8, 8), hidden=8, rng=rng)
    for attempt in range(200):
        nudge = np.random.default_rng((seed, 1, attempt))
        pred.fc2_w.value[:] = nudge.normal(0, 0.1, pred.fc2_w.shape)
        pred.fc2_b.value[:] = nudge.uniform(-0.4, 0.4, 2)
        tape = Tape(grad=False)
        stacked = ad.concat_channels(tape.const(support.value), tape.const(query.value))
        offs = pred.forward(tape, ad.reshape(stacked, (1, *stacked.shape)), training=False)
        if mask_offsets_smooth(offs.value[0], height, width, 3.0, KINK_MARGIN):
            break
    else:
        raise RuntimeError("could not find smooth offsets")

    def build(tape):
        s, q = tape.param(support), tape.param(query)
        stacked = ad.concat_channels(s, q)
        offs = pred.forward(tape, ad.reshape(stacked, (1, *stacked.shape)), training=True)
        offs = ad.reshape(offs, (3, 2))
        f_s, f_q = spatial_coordinate(tape, s, q, offs)
        d = metric.frame_cosine_distance(f_q, f_s)
        return d

    return GradCase("sc.offset_mask_average", build, [support, query, *pred.parameters()])


def metric_case(seed: int) -> GradCase:
    rng = np.random.default_rng(seed)
    query = Parameter(rng.standard_normal((4, 6)), "query")
    protos = [Parameter(rng.standard_normal((4, 6)), f"proto{i}") for i in range(3)]

    def build(tape):
        q = tape.param(query)
        probs, _ = metric.classify([(tape.param(p), q) for p in protos])
        return metric.cross_entropy_loss([probs], [1])

    return GradCase("metric.classify_loss", build, [query, *protos])


def _nudged_model(cfg: ModelConfig, nudge: np.random.Generator) -> AlignmentModel:
    """A freshly initialized model with every parameter nudged off its init.

    The offset head's weights get a much smaller nudge than the rest: the mask
    probe must clear for every pair, frame, displacement and sign at once,
    which only happens when all predicted offsets cluster near the value set
    by ``fc2_b``, away from the mask rings.
    """
    model = AlignmentModel(cfg)
    for p in model.parameters():
        p.value += nudge.normal(0.0, 0.02, p.value.shape)
    if model.ttm is not None:
        model.ttm.head_b.value[0] = nudge.uniform(-0.5, -0.25)
    if model.sc is not None:
        model.sc.fc2_w.value[:] = nudge.normal(0.0, 0.002, model.sc.fc2_w.shape)
        model.sc.fc2_b.value[:] = nudge.uniform(-0.4, 0.4, 2)
    return model


def _probe_margins(model: AlignmentModel, episode: Episode, proto_rng_seed: int) -> str | None:
    """Name the first probed margin that a training forward pass violates.

    Returns ``"warp"`` when a duration scale sits near the clamp or a warp
    source position near an integer frame, ``"mask"`` when a perturbed offset
    puts a grid coordinate near a mask ring, and None when every margin holds.
    """
    cfg = model.config
    probe = model.episode_forward(
        Tape(grad=False), episode, training=True, epoch=0,
        rng=np.random.default_rng(proto_rng_seed), collect=True,
    )
    for scale, shift in probe.warps.values():
        if not (
            duration_scale_smooth(scale, KINK_MARGIN)
            and warp_positions_smooth(scale, shift, cfg.frames, KINK_MARGIN)
        ):
            return "warp"
    if model.sc is not None:
        disp = cfg.schedule().displacements(0) if cfg.perturb else np.zeros((1, 2))
        for rec in probe.pairs:
            for d in disp:
                if not mask_offsets_smooth(
                    rec.offsets + d, cfg.height, cfg.width, cfg.mask_slope, KINK_MARGIN
                ):
                    return "mask"
    return None


def full_case(
    seed: int,
    model_config: ModelConfig | None = None,
    n_way: int = 2,
    k_shot: int = 1,
    n_query: int = 1,
) -> GradCase:
    """Episode loss through embed, temporal transform, coordination and metric.

    Each attempt nudges a freshly initialized model off its kink-seated init
    and keeps it when the probe margins (clamp interior, non-integer warp
    positions, mask rings for every perturbation displacement and both
    signs) hold; the nudge is resampled from the next seed otherwise. Raises
    RuntimeError with the count of each failed margin when no attempt of
    ``FULL_CASE_ATTEMPTS`` clears them all.
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

    failures = {"warp": 0, "mask": 0}
    for attempt in range(FULL_CASE_ATTEMPTS):
        model = _nudged_model(cfg, np.random.default_rng((seed, 2, attempt)))
        failed = _probe_margins(model, episode, proto_rng_seed)
        if failed is None:
            break
        failures[failed] += 1
    else:
        raise RuntimeError(
            "could not reach a smooth full-model configuration in "
            f"{FULL_CASE_ATTEMPTS} attempts: {failures['warp']} failed the warp "
            f"margin, {failures['mask']} failed the mask margin"
        )

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
