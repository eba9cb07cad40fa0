"""Episodic training with SGD + momentum, evaluation and the ablation harness.

One episode is one optimization step. All randomness flows from explicit
seeds: episode e of epoch k always sees the same sampled task for a given
config seed, so two runs with identical inputs produce bit-identical
parameter trajectories, and evaluation episodes are pre-seeded so a worker
pool returns exactly what a serial loop would.
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass, asdict

import numpy as np

from . import metric
from .autodiff import Parameter, Tape
from .model import AlignmentModel, ModelConfig
from .synth import Dataset, check_count, check_real, sample_episode

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """A training step produced non-finite values; names the epoch, episode and lr."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    decay_factor: float = 0.5
    decay_interval: int = 5
    epochs: int = 30
    episodes_per_epoch: int = 200
    n_way: int = 5
    k_shot: int = 1
    n_query: int = 1
    seed: int = 0

    def validate(self) -> None:
        for name in ("learning_rate", "momentum", "decay_factor"):
            check_real(name, getattr(self, name))
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if not 0.0 <= self.momentum < 1.0:  # also rejects NaN
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must lie in (0, 1]")
        # the least value of each count and of the seed; classification needs two classes
        counts = dict(decay_interval=1, epochs=0, episodes_per_epoch=1, n_way=2, k_shot=1, n_query=1, seed=0)
        for name, least in counts.items():
            check_count(name, getattr(self, name), least)

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.decay_factor ** (epoch // self.decay_interval)


@dataclass
class EpochStats:
    epoch: int
    episodes_seen: int
    mean_loss: float
    mean_accuracy: float
    learning_rate: float


@dataclass
class EvalReport:
    accuracy: float
    ci95: float
    episodes: int


class SgdMomentum:
    """v <- mu*v - lr*grad; theta <- theta + v."""

    def __init__(self, params: list[Parameter], momentum: float):
        self.params = params
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.value) for p in params]

    def step(self, lr: float) -> None:
        """Update every parameter; ``FloatingPointError`` naming the first one
        the update left non-finite."""
        for p, v in zip(self.params, self.velocity):
            with np.errstate(over="ignore", invalid="ignore"):
                v *= self.momentum
                v -= lr * p.grad
                p.value += v
            # a NaN propagates through min and max, and an infinity is one of
            # them, so no temporary the size of the weights is made
            if not np.isfinite((p.value.min(initial=0.0), p.value.max(initial=0.0))).all():
                raise FloatingPointError(f"update left {p.name} non-finite")


def episode_seed(base_seed: int, epoch: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, epoch, index]).generate_state(1)[0])


def train(
    model: AlignmentModel,
    dataset: Dataset,
    config: TrainConfig,
) -> list[EpochStats]:
    """Run the episodic loop; returns one stats row per epoch."""
    config.validate()
    params = model.parameters()
    opt = SgdMomentum(params, config.momentum)
    history: list[EpochStats] = []
    seen = 0
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        losses, accs = [], []
        for index in range(config.episodes_per_epoch):
            seed = episode_seed(config.seed, epoch, index)
            episode = sample_episode(
                dataset, "train", config.n_way, config.k_shot, config.n_query, seed
            )
            tape = Tape(grad=True)
            # FloatingPointError: a non-finite warp, division, distance or loss
            # in the forward pass, or a parameter the update left non-finite
            try:
                out = model.episode_forward(tape, episode, training=True, epoch=epoch)
                loss = metric.cross_entropy_loss(out.probs, out.labels)
                model.zero_grads()
                tape.backward(loss)
                opt.step(lr)
            except FloatingPointError as e:
                raise TrainingDiverged(
                    f"non-finite values at epoch {epoch}, episode {index} (lr={lr}): {e}"
                ) from e
            seen += 1
            losses.append(float(loss.value) / len(out.labels))
            accs.append(out.accuracy())
        stats = EpochStats(epoch, seen, float(np.mean(losses)), float(np.mean(accs)), lr)
        history.append(stats)
        log.info(
            "epoch %d: loss %.4f acc %.3f lr %.2e", epoch, stats.mean_loss,
            stats.mean_accuracy, lr,
        )
    return history


# ---------------------------------------------------------------------------
# evaluation


def _eval_episode(
    model: AlignmentModel, dataset: Dataset, split: str, n_way: int, k_shot: int,
    n_query: int, seed: int,
) -> float:
    episode = sample_episode(dataset, split, n_way, k_shot, n_query, seed)
    return model.episode_forward(Tape(grad=False), episode, training=False).accuracy()


# (model, dataset) of the pool this worker process belongs to, set once by
# _init_worker so that each job carries only its episode's parameters.
_worker_state: tuple[AlignmentModel, Dataset] | None = None


def _init_worker(model: AlignmentModel, dataset: Dataset) -> None:
    global _worker_state
    _worker_state = (model, dataset)


def _pool_eval_episode(job: tuple) -> float:
    return _eval_episode(*_worker_state, *job)


def evaluate(
    model: AlignmentModel,
    dataset: Dataset,
    split: str,
    episodes: int,
    n_way: int,
    k_shot: int,
    n_query: int,
    seed: int,
    workers: int = 1,
) -> EvalReport:
    """Mean episode accuracy with a normal-approximation 95% interval.

    Episodes are seeded up front and a pool returns its results in job
    order, so any worker count (including 1) yields the same report. A pool
    receives the model and dataset once per worker, through its initializer.
    A single episode has no spread, so its interval is 0. A non-int count,
    ``n_way`` below 2, another count below 1, ``seed`` below 0, or an unknown
    ``split`` raises ``ValueError`` before any episode runs or a pool starts.
    """
    for name, value, least in (
        ("episodes", episodes, 1), ("n_way", n_way, 2), ("k_shot", k_shot, 1),
        ("n_query", n_query, 1), ("seed", seed, 0), ("workers", workers, 1),
    ):
        check_count(name, value, least)
    dataset.split_classes(split)
    jobs = [(split, n_way, k_shot, n_query, episode_seed(seed, 0, i)) for i in range(episodes)]
    if workers > 1:
        with multiprocessing.Pool(workers, _init_worker, (model, dataset)) as pool:
            accs = pool.map(_pool_eval_episode, jobs, chunksize=max(1, episodes // (workers * 4)))
    else:
        accs = [_eval_episode(model, dataset, *j) for j in jobs]
    accs = np.array(accs)
    ci = 0.0 if episodes < 2 else float(1.96 * accs.std(ddof=1) / np.sqrt(episodes))
    return EvalReport(float(accs.mean()), ci, episodes)


# ---------------------------------------------------------------------------
# ablation harness

ABLATION_VARIANTS: tuple[tuple[str, bool, bool, bool], ...] = (
    ("baseline", False, False, False),
    ("ttm", True, False, False),
    ("ttm+tc", True, True, False),
    ("ttm+sc", True, False, True),
    ("ttm+tc+sc", True, True, True),
    ("tc", False, True, False),
    ("sc", False, False, True),
    ("tc+sc", False, True, True),
)


@dataclass
class AblationRow:
    variant: str
    use_ttm: bool
    use_tc: bool
    use_sc: bool
    report: EvalReport
    history: list[EpochStats]


def ablation_run(
    dataset: Dataset,
    train_config: TrainConfig,
    model_config: ModelConfig,
    eval_episodes: int,
    variants=ABLATION_VARIANTS,
    workers: int = 1,
) -> list[AblationRow]:
    """Train and evaluate every module-toggle variant on identical episode streams."""
    rows = []
    for name, use_ttm, use_tc, use_sc in variants:
        cfg = ModelConfig(**{**asdict(model_config), "use_ttm": use_ttm, "use_tc": use_tc, "use_sc": use_sc})
        model = AlignmentModel(cfg)
        history = train(model, dataset, train_config)
        report = evaluate(
            model, dataset, "test", eval_episodes,
            train_config.n_way, train_config.k_shot, train_config.n_query,
            seed=train_config.seed + 1, workers=workers,
        )
        log.info("variant %s: accuracy %.3f ± %.3f", name, report.accuracy, report.ci95)
        rows.append(AblationRow(name, use_ttm, use_tc, use_sc, report, history))
    return rows
