"""The determinism claims of the engine docstring, and its config checks."""

from dataclasses import replace

import numpy as np
import pytest

from ta2n import engine
from ta2n.engine import TrainConfig
from ta2n.model import AlignmentModel, ModelConfig
from ta2n.synth import MisalignmentConfig, generate_dataset

TINY_MODEL = ModelConfig(
    channels=4, frames=4, height=5, width=5, proj_dim=4, ttm_hidden=4,
    offset_channels=(4, 4), offset_hidden=4,
)
TINY_TRAIN = TrainConfig(
    learning_rate=1e-2, epochs=2, episodes_per_epoch=2, decay_interval=1,
    n_way=3, k_shot=1, n_query=1, seed=5,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(8, 3, (4, 4, 5, 5), MisalignmentConfig(0.5, 0.8, 1.0, 0.1), seed=3)


def test_identical_training_runs_are_bit_identical(dataset):
    runs = []
    for _ in range(2):
        model = AlignmentModel(TINY_MODEL)
        history = engine.train(model, dataset, TINY_TRAIN)
        runs.append((history, [p.value.copy() for p in model.parameters()], model.sc.bn_state()))
    (h1, p1, bn1), (h2, p2, bn2) = runs
    assert h1 == h2
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))
    assert all(np.array_equal(bn1[k], bn2[k]) for k in bn1)
    # and training did move the parameters off their init
    fresh = AlignmentModel(TINY_MODEL).parameters()
    assert any(not np.array_equal(a, f.value) for a, f in zip(p1, fresh))


def test_worker_pool_matches_serial_evaluation(dataset):
    model = AlignmentModel(TINY_MODEL)
    serial = engine.evaluate(model, dataset, "test", 4, 2, 1, 1, seed=9, workers=1)
    pooled = engine.evaluate(model, dataset, "test", 4, 2, 1, 1, seed=9, workers=2)
    assert serial == pooled
    assert serial.episodes == 4 and sum(t for _, t in serial.per_class.values()) == 8


@pytest.mark.parametrize("field, value", [
    ("learning_rate", -1e-3),
    ("decay_factor", 0.0),
    ("decay_factor", 1.5),
    ("decay_interval", 0),
    ("epochs", -1),
    ("episodes_per_epoch", 0),
    ("k_shot", 0),
    ("n_query", 0),
    ("n_way", 1),
])
def test_validate_rejects_bad_config(field, value):
    with pytest.raises(ValueError):
        replace(TINY_TRAIN, **{field: value}).validate()


def test_train_validates_before_training(dataset):
    model = AlignmentModel(TINY_MODEL)
    before = [p.value.copy() for p in model.parameters()]
    with pytest.raises(ValueError, match="n_way"):
        engine.train(model, dataset, replace(TINY_TRAIN, n_way=1))
    assert all(np.array_equal(a, p.value) for a, p in zip(before, model.parameters()))
