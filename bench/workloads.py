"""The three benchmark workloads.

Each is a closed loop with one caller: the next episode starts when the
previous one returns. Every input comes from the ``seed`` argument: the
dataset, the training episode stream and the evaluation episodes. Models use
``ModelConfig()`` defaults (``use_sc=False`` for ``train_light``), so
initial weights are the same for every seed.

Why these three:

- ``train_full``: the full model (ttm+tc+sc). The offset predictor's two
  ``conv3d`` + batch-norm blocks over a (25, 32, 8, 7, 7) pair stack
  dominate the step, so kernel and memory work on ``acm``/``autodiff``
  shows here.
- ``train_light``: the same data and episode stream without SC. No
  ``conv3d``; time goes to tape bookkeeping and the per-pair Python loops,
  so pair batching and tape-overhead cuts show here and conv work does not.
- ``eval_pool``: an untrained checkpoint and the dataset, saved and loaded
  in set-up, then ``engine.evaluate(workers=2)`` on forward-only tapes. The
  only path through the multiprocessing dispatch, ``batchnorm_eval`` and
  the binary loaders. Its step is a serial forward-only episode, so against
  ``train_full`` it shows a change that trades forward for backward speed.

The harness never calls ``gc.collect()`` and never changes GC thresholds:
every training tape sits in a reference cycle and is freed only by the
cycle collector, and ``peak_rss_mb`` must keep showing that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ta2n.engine as engine
import ta2n.metric as metric
import ta2n.model as model_mod
import ta2n.synth as synth
from ta2n.autodiff import Tape

from .tracing import GcStats, Tracer

DATA_SHAPE = (40, 20, (16, 8, 7, 7))  # classes, videos per class, (C, T, H, W)
MISALIGNMENT = synth.MisalignmentConfig(0.5, 0.8, 1.0, 0.1)
N_WAY, K_SHOT, N_QUERY = 5, 1, 1
# Set-up is timed twice before the timed phase and twice after it, so that
# the median samples two stretches of a machine whose speed drifts.
SETUP_BEFORE, SETUP_AFTER = 2, 2
SETUP_LAYERS = ("synth.", "model.")
EVAL_WORKERS = 2
EVAL_EPISODES = 16  # per engine.evaluate call in the timed phase
CHECK_EPISODES = 4  # episodes in the pool-versus-serial check
CHECK_STEPS = {"train_full": 2, "train_light": 8, "eval_pool": 4}
PROB_TOL = 1e-12
STEP_ERRORS = (FloatingPointError, ValueError, engine.TrainingDiverged)

MODEL_CONFIGS = {
    "train_full": model_mod.ModelConfig(),
    "train_light": model_mod.ModelConfig(use_sc=False),
    "eval_pool": model_mod.ModelConfig(),
}


@dataclass
class Report:
    """What one workload run measured and checked."""

    workload: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    self_times: list[tuple[str, int, float, float]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def make_dataset(seed: int) -> synth.Dataset:
    classes, videos, dims = DATA_SHAPE
    return synth.generate_dataset(classes, videos, dims, MISALIGNMENT, seed=seed)


def train_config(seed: int) -> engine.TrainConfig:
    return engine.TrainConfig(n_way=N_WAY, k_shot=K_SHOT, n_query=N_QUERY, seed=seed)


def train_episode(dataset: synth.Dataset, cfg: engine.TrainConfig, step: int) -> tuple[int, int, synth.Episode]:
    """(epoch, episode seed, episode) of training step ``step``, as ``engine.train`` draws it."""
    epoch, index = divmod(step, cfg.episodes_per_epoch)
    seed = engine.episode_seed(cfg.seed, epoch, index)
    episode = synth.sample_episode(dataset, "train", cfg.n_way, cfg.k_shot, cfg.n_query, seed)
    return epoch, seed, episode


def eval_episode(dataset: synth.Dataset, seed: int, index: int) -> tuple[int, synth.Episode]:
    """Episode ``index`` of ``engine.evaluate(..., seed=seed)`` on the test split."""
    ep_seed = engine.episode_seed(seed, 0, index)
    return ep_seed, synth.sample_episode(dataset, "test", N_WAY, K_SHOT, N_QUERY, ep_seed)


class Trainer:
    """One optimisation step per call, the body of ``engine.train``'s loop."""

    def __init__(self, dataset: synth.Dataset, config: model_mod.ModelConfig, seed: int):
        self.dataset = dataset
        self.cfg = train_config(seed)
        self.model = model_mod.AlignmentModel(config)
        self.opt = engine.SgdMomentum(self.model.parameters(), self.cfg.momentum)

    def __call__(self, step: int):
        epoch, seed, episode = train_episode(self.dataset, self.cfg, step)
        tape = Tape(grad=True)
        out = self.model.episode_forward(
            tape, episode, training=True, epoch=epoch, rng=np.random.default_rng(seed)
        )
        loss = metric.cross_entropy_loss(out.probs, out.labels)
        loss_val = float(loss.value)
        if not math.isfinite(loss_val):
            raise engine.TrainingDiverged(f"non-finite loss at step {step}")
        self.model.zero_grads()
        tape.backward(loss)
        self.opt.step(self.cfg.lr_at(epoch))
        return loss_val, out, len(tape.entries)


class Evaluator:
    """One serial forward-only episode per call, as an ``engine.evaluate`` worker runs it."""

    def __init__(self, dataset: synth.Dataset, model: model_mod.AlignmentModel, seed: int):
        self.dataset = dataset
        self.model = model
        self.seed = seed

    def __call__(self, step: int):
        ep_seed, episode = eval_episode(self.dataset, self.seed, step)
        tape = Tape(grad=False)
        out = self.model.episode_forward(
            tape, episode, training=False, rng=np.random.default_rng(ep_seed)
        )
        loss_val = float(metric.cross_entropy_loss(out.probs, out.labels).value)
        if not math.isfinite(loss_val):
            raise FloatingPointError(f"non-finite eval loss at episode {step}")
        return loss_val, out, len(tape.entries)


@dataclass
class Loop:
    """Result of running a step function closed-loop for a while."""

    times: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0
    entries: int = 0
    prob_error: float = 0.0
    finite: bool = True

    @property
    def attempted(self) -> int:
        return len(self.times) + self.failed


def run_loop(step_fn, seconds: float, min_steps: int = 1) -> Loop:
    """Call ``step_fn(0), step_fn(1), ...`` until ``seconds`` pass (at least ``min_steps``)."""
    loop = Loop()
    start = time.perf_counter()
    step = 0
    while step < min_steps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            loss, out, entries = step_fn(step)
        except STEP_ERRORS:
            loop.failed += 1
            step += 1
            continue
        loop.times.append(time.perf_counter() - t0)
        step += 1
        loop.losses.append(loss)
        loop.entries = entries
        loop.finite &= math.isfinite(loss)
        for p in out.probs:
            loop.prob_error = max(loop.prob_error, abs(float(p.value.sum()) - 1.0))
    loop.wall = time.perf_counter() - start
    return loop


def checksum(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Max resident set of this process and its waited-for children, in MB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def step_metrics(loop: Loop) -> dict[str, float]:
    ms = np.array(loop.times or [0.0]) * 1e3
    return {
        "step_ms.p50": float(np.percentile(ms, 50)),
        "step_ms.p90": float(np.percentile(ms, 90)),
    }


def check_loop(report: Report, name: str, loop: Loop) -> None:
    report.check(f"{name}: every loss finite", loop.finite and loop.times)
    report.check(
        f"{name}: probabilities sum to 1", loop.prob_error <= PROB_TOL,
        f"max |sum-1| = {loop.prob_error:.1e}",
    )


def same_prefix(a: list[float], b: list[float], n: int) -> bool:
    return len(a) >= n and len(b) >= n and a[:n] == b[:n]


# ---------------------------------------------------------------------------
# training workloads


def run_train(name: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(name)
    config = MODEL_CONFIGS[name]
    tracer = Tracer()
    k = CHECK_STEPS[name]

    def set_up() -> tuple[float, synth.Dataset]:
        with tracer.installed(SETUP_LAYERS) if trace else nullcontext():
            t0 = time.perf_counter()
            dataset = make_dataset(seed)
            model_mod.AlignmentModel(config)
            return time.perf_counter() - t0, dataset

    setup = [set_up()[0] for _ in range(SETUP_BEFORE - 1)]  # drop what the early ones built
    elapsed, dataset = set_up()
    setup.append(elapsed)

    # Untimed checks, which also warm the allocator before timing.
    reference = run_loop(Trainer(dataset, config, seed), 0.0, k).losses
    one_epoch = dataclasses.replace(train_config(seed), epochs=1, episodes_per_epoch=k)
    history = engine.train(model_mod.AlignmentModel(config), dataset, one_epoch)
    engine_mean = float(np.mean([loss / (N_WAY * N_QUERY) for loss in reference]))
    report.check(
        "benchmark step equals engine.train", history[0].mean_loss == engine_mean,
        f"{history[0].mean_loss!r} vs {engine_mean!r}",
    )
    report.notes.append(f"loss checksum ({k} steps): {checksum(reference)}")

    timed_s = seconds / 2 if trace else seconds
    gc_stats = GcStats()
    with gc_stats.watching() if trace else nullcontext():
        loop = run_loop(Trainer(dataset, config, seed), timed_s)
    check_loop(report, "timed steps", loop)
    report.check(f"same-seed runs give identical losses ({k} steps)", same_prefix(loop.losses, reference, k))
    report.attempted, report.failed = loop.attempted, loop.failed
    report.notes.append(f"tape entries per step: {loop.entries} (exact)")
    report.notes.append(f"timed steps: {len(loop.times)}")

    if not trace:
        report.metrics = {
            **step_metrics(loop),
            "episodes_per_s": len(loop.times) / loop.wall,
            "peak_rss_mb": peak_rss_mb(),  # before the late set-ups can add to it
        }
        setup += [set_up()[0] for _ in range(SETUP_AFTER)]
        report.metrics["setup_s"] = statistics.median(setup)
        return report

    with tracer.installed():
        traced = run_loop(Trainer(dataset, config, seed), seconds / 2)
    setup += [set_up()[0] for _ in range(SETUP_AFTER)]
    check_loop(report, "traced steps", traced)
    n = min(len(traced.losses), len(loop.losses))
    report.check(f"traced and untraced losses identical ({n} steps)", same_prefix(traced.losses, loop.losses, n))
    report.notes.append(f"traced steps: {len(traced.times)}")
    report.attempted += traced.attempted
    report.failed += traced.failed
    report.layers = layer_values(tracer, traced, loop, gc_stats)
    report.self_times = tracer.self_times()
    return report


# ---------------------------------------------------------------------------
# evaluation workload


def run_eval(seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    """``workdir`` holds the dataset and checkpoint files that set-up writes and reads."""
    report = Report("eval_pool")
    config = MODEL_CONFIGS["eval_pool"]
    tracer = Tracer()

    data_path, ckpt_path = workdir / "dataset.bin", workdir / "model.ckpt"

    def set_up():
        with tracer.installed(SETUP_LAYERS) if trace else nullcontext():
            t0 = time.perf_counter()
            generated = make_dataset(seed)
            synth.save_dataset(generated, data_path)
            model_mod.save_checkpoint(model_mod.AlignmentModel(config), ckpt_path)
            dataset = synth.load_dataset(data_path)
            model, _ = model_mod.load_checkpoint(ckpt_path)
            return time.perf_counter() - t0, generated, dataset, model

    setup = [set_up()[0] for _ in range(SETUP_BEFORE - 1)]  # drop what the early ones built
    elapsed, generated, dataset, model = set_up()
    setup.append(elapsed)
    data_mb, ckpt_mb = data_path.stat().st_size / 1e6, ckpt_path.stat().st_size / 1e6
    report.check(
        "dataset file round trip is exact",
        all(np.array_equal(a.feature, b.feature) for a, b in zip(generated.videos, dataset.videos))
        and len(generated.videos) == len(dataset.videos),
    )
    fresh = model_mod.AlignmentModel(config)
    report.check(
        "checkpoint round trip is exact",
        all(np.array_equal(a.value, b.value) for a, b in zip(fresh.parameters(), model.parameters())),
    )
    report.notes.append(f"dataset file: {data_mb:.6f} MB, checkpoint file: {ckpt_mb:.6f} MB (exact)")
    del generated, fresh

    def evaluate(episodes: int, workers: int) -> engine.EvalReport:
        return engine.evaluate(
            model, dataset, "test", episodes, N_WAY, K_SHOT, N_QUERY, seed=seed, workers=workers
        )

    serial, pooled = evaluate(CHECK_EPISODES, 1), evaluate(CHECK_EPISODES, EVAL_WORKERS)
    report.check(
        f"evaluate(workers={EVAL_WORKERS}) equals workers=1 ({CHECK_EPISODES} episodes)",
        serial == pooled, f"accuracy {pooled.accuracy!r}",
    )

    k = CHECK_STEPS["eval_pool"]
    step_s = seconds / 4 if trace else seconds / 2
    gc_stats = GcStats()
    with gc_stats.watching() if trace else nullcontext():
        loop = run_loop(Evaluator(dataset, model, seed), step_s, k)
    check_loop(report, "serial forward episodes", loop)
    report.notes.append(f"loss checksum ({k} episodes): {checksum(loop.losses[:k])}")
    report.notes.append(f"serial forward episodes: {len(loop.times)}")
    traced = None
    if trace:
        with tracer.installed():
            traced = run_loop(Evaluator(dataset, model, seed), step_s, k)
        check_loop(report, "traced serial episodes", traced)
        n = min(len(traced.losses), len(loop.losses))
        report.check(f"traced and untraced losses identical ({n} episodes)", same_prefix(traced.losses, loop.losses, n))

    rates, reports, pool_failed = [], [], 0
    start = time.perf_counter()
    while not (rates or pool_failed) or time.perf_counter() - start < seconds / 2:
        t0 = time.perf_counter()
        try:
            with tracer.installed(("engine.",)) if trace else nullcontext():
                result = evaluate(EVAL_EPISODES, EVAL_WORKERS)
        except STEP_ERRORS:
            pool_failed += EVAL_EPISODES
            continue
        rates.append(EVAL_EPISODES / (time.perf_counter() - t0))
        reports.append(result)
    report.check(
        f"repeated evaluate calls agree ({len(reports)} calls)",
        bool(reports) and all(r == reports[0] for r in reports),
    )
    report.notes.append(f"evaluate calls: {len(rates)} x {EVAL_EPISODES} episodes, workers={EVAL_WORKERS}")
    report.attempted = loop.attempted + (traced.attempted if traced else 0) + EVAL_EPISODES * len(rates) + pool_failed
    report.failed = loop.failed + (traced.failed if traced else 0) + pool_failed

    if not trace:
        report.metrics = {
            **step_metrics(loop),
            "episodes_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak_rss_mb(),  # before the late set-ups can add to it
        }
        setup += [set_up()[0] for _ in range(SETUP_AFTER)]
        report.metrics["setup_s"] = statistics.median(setup)
        return report
    setup += [set_up()[0] for _ in range(SETUP_AFTER)]
    report.notes.append(
        "per-episode layer and op figures come from a serial forward pass over the "
        f"evaluate episodes ({len(traced.times)} traced); engine.* from parent-side "
        "spans of evaluate(workers=2)"
    )
    report.layers = layer_values(tracer, traced, loop, gc_stats, data_mb, ckpt_mb)
    report.self_times = tracer.self_times()
    return report


# ---------------------------------------------------------------------------


def layer_values(
    tracer: Tracer, traced: Loop, untraced: Loop, gc_stats: GcStats,
    dataset_mb: float = 0.0, checkpoint_mb: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric: the tracer's, plus GC, overhead and file sizes."""
    values = tracer.values(len(traced.times))
    steps = max(untraced.attempted, 1)
    values["runtime.gc.gen2_collections"] = gc_stats.gen2_collections / steps
    values["runtime.gc.pause_ms"] = 1e3 * gc_stats.pause_s / steps
    values["trace.overhead_pct"] = 100.0 * (
        float(np.median(traced.times)) / float(np.median(untraced.times)) - 1.0
    )
    values["synth.dataset.mb"] = dataset_mb
    values["model.checkpoint.mb"] = checkpoint_mb
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    if workload == "eval_pool":
        return run_eval(seed, seconds, trace, workdir)
    return run_train(workload, seed, seconds, trace)
