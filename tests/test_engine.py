"""The determinism claims of the engine docstring, its config checks, the
lifetime of a training step's tape and the ablation harness."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from ta2n import engine, metric
from ta2n.autodiff import Tape
from ta2n.engine import TrainConfig
from ta2n.model import AlignmentModel, ModelConfig
from ta2n.synth import MisalignmentConfig, generate_dataset, sample_episode

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


def test_every_ttm_parameter_has_gradient_after_two_steps(dataset):
    # step 1 reaches only the head, whose weights start at zero; step 2 also
    # reaches the conv below it
    model = AlignmentModel(TINY_MODEL)
    engine.train(model, dataset, replace(TINY_TRAIN, epochs=1))
    norms = {p.name: float(np.linalg.norm(p.grad)) for p in model.ttm.parameters()}
    assert all(n > 0.0 for n in norms.values()), norms


@pytest.mark.parametrize("toggles", [
    pytest.param({"use_ttm": False, "use_tc": False, "use_sc": False}, id="baseline"),
    pytest.param({"use_tc": False, "use_sc": False}, id="ttm"),
    pytest.param({}, id="full"),
])
def test_blank_frames_keep_gradients_bounded(toggles):
    # without noise every frame outside a video's action is blank, and so is
    # its column in the pooled maps; the cosine gives such a column gradient 0
    blank = generate_dataset(8, 3, (4, 8, 5, 5), MisalignmentConfig(1.0, 0.0, 0.0, 0.0), seed=3)
    config = replace(TINY_MODEL, frames=8, **toggles)
    model = AlignmentModel(config)
    episode = sample_episode(blank, "train", 3, 1, 1, seed=engine.episode_seed(TINY_TRAIN.seed, 0, 0))
    tape = Tape(grad=True)
    out = model.episode_forward(tape, episode, training=True, epoch=0)
    tape.backward(metric.cross_entropy_loss(out.probs, out.labels))
    assert max(float(np.abs(p.grad).max()) for p in model.parameters()) < 1e3
    # and training runs on without overflowing a sigmoid, which pytest would raise
    history = engine.train(AlignmentModel(config), blank, replace(TINY_TRAIN, episodes_per_epoch=5))
    assert all(np.isfinite(h.mean_loss) for h in history)


def test_worker_pool_matches_serial_evaluation(dataset):
    # two calls in one process, each with its own model: a pool's workers get
    # (model, dataset) once, and a later pool must not see an earlier model.
    # The second model embeds every video as zeros, so all its class scores
    # tie and it predicts episode class 0 for every query: half of 2-way.
    models = [AlignmentModel(TINY_MODEL) for _ in range(2)]
    models[1].embed_w.value[...] = 0.0
    pooled = [engine.evaluate(m, dataset, "test", 4, 2, 1, 1, seed=9, workers=2) for m in models]
    serial = [engine.evaluate(m, dataset, "test", 4, 2, 1, 1, seed=9, workers=1) for m in models]
    assert pooled == serial
    assert serial[1].accuracy == 0.5 and serial[1].ci95 == 0.0
    assert serial[0] != serial[1]
    assert serial[0].episodes == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_single_episode_interval_is_zero(dataset, workers):
    # one episode has no spread to estimate, so its interval is 0, not NaN,
    # and its accuracy is that episode's own
    model = AlignmentModel(TINY_MODEL)
    report = engine.evaluate(model, dataset, "test", 1, 2, 1, 1, seed=9, workers=workers)
    episode = sample_episode(dataset, "test", 2, 1, 1, engine.episode_seed(9, 0, 0))
    want = model.episode_forward(Tape(grad=False), episode, training=False).accuracy()
    assert report == engine.EvalReport(want, 0.0, 1)


@pytest.mark.parametrize("use_sc", [False, True], ids=["no_sc", "sc"])
@pytest.mark.parametrize("field", ["k_shot", "n_query"])
def test_evaluate_rejects_empty_episodes(dataset, field, use_sc):
    # an episode without shots or queries is refused where it is drawn, with
    # the field's name, before any model runs
    model = AlignmentModel(replace(TINY_MODEL, use_sc=use_sc))
    sizes = {"k_shot": 1, "n_query": 1, field: 0}
    with pytest.raises(ValueError, match=field):
        engine.evaluate(model, dataset, "test", 2, 2, sizes["k_shot"], sizes["n_query"], seed=9)


def test_training_step_tape_is_freed_without_the_cycle_collector(dataset, no_gc):
    model = AlignmentModel(TINY_MODEL)
    assert model.sc is not None
    episode = sample_episode(dataset, "train", 3, 1, 1, seed=4)
    tape = Tape(grad=True)
    ref = weakref.ref(tape)
    out = model.episode_forward(tape, episode, training=True, epoch=0)
    loss = metric.cross_entropy_loss(out.probs, out.labels)
    ops = [e.op for e in tape.entries]
    assert "conv3d" in ops
    tape.backward(loss)
    assert [e.op for e in tape.entries] == ops
    assert any(np.any(p.grad) for p in model.sc.parameters())
    del tape, out, loss
    assert ref() is None


@pytest.mark.parametrize("name", ["tc.key_w", "embed.w"])
def test_nan_weight_raises_training_diverged(dataset, name):
    # a NaN in TC's keys first shows in a masked mean's normalizer, one in
    # the embedding in the TTM's warp; both name the step that diverged
    model = AlignmentModel(TINY_MODEL)
    param = {p.name: p for p in model.parameters()}[name]
    param.value[0, 0] = np.nan
    with pytest.raises(engine.TrainingDiverged, match=r"epoch 0, episode 0 \(lr=0.01\)") as err:
        engine.train(model, dataset, TINY_TRAIN)
    assert isinstance(err.value.__cause__, FloatingPointError)


def test_overflowing_update_raises_training_diverged(dataset):
    # at lr 1e308 the update overflows some parameters to infinity; training
    # must stop there, not return a model that save_checkpoint would write
    model = AlignmentModel(TINY_MODEL)
    config = TrainConfig(learning_rate=1e308, epochs=1, episodes_per_epoch=1, n_way=3)
    with pytest.raises(engine.TrainingDiverged, match=r"epoch 0, episode 0 \(lr=1e\+308\)") as err:
        engine.train(model, dataset, config)
    assert isinstance(err.value.__cause__, FloatingPointError)
    assert "embed.w non-finite" in str(err.value)


def test_ablation_run_smoke(dataset):
    variants = engine.ABLATION_VARIANTS[:1] + engine.ABLATION_VARIANTS[-1:]
    config = replace(TINY_TRAIN, epochs=1, n_way=2)  # the test split has 2 classes
    runs = [engine.ablation_run(dataset, config, TINY_MODEL, 4, variants=variants) for _ in range(2)]
    assert runs[0] == runs[1]
    rows = runs[0]
    assert [r.variant for r in rows] == ["baseline", "tc+sc"]
    assert [(r.use_ttm, r.use_tc, r.use_sc) for r in rows] == [v[1:] for v in variants]
    assert all(r.report.episodes == 4 and len(r.history) == 1 for r in rows)
    assert all(r.history[0].episodes_seen == 2 for r in rows)


def test_ablation_variants_cover_every_toggle_combination():
    # eight distinct (use_ttm, use_tc, use_sc) triples, each named by the modules it turns on
    triples = {tuple(t) for _, *t in engine.ABLATION_VARIANTS}
    assert len(engine.ABLATION_VARIANTS) == len(triples) == 8
    for name, *toggles in engine.ABLATION_VARIANTS:
        assert name == ("+".join(m for m, on in zip(("ttm", "tc", "sc"), toggles) if on) or "baseline")


@pytest.mark.parametrize("field, value", [
    ("learning_rate", -1e-3),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("momentum", 1.0),
    ("momentum", -0.5),
    ("momentum", float("nan")),
    ("decay_factor", 0.0),
    ("decay_factor", 1.5),
    # not real numbers: a string or None used to raise TypeError, and a bool was accepted
    ("learning_rate", "0.1"),
    ("learning_rate", None),
    ("learning_rate", True),
    ("momentum", "0.9"),
    ("momentum", False),
    ("decay_factor", None),
    ("decay_factor", True),
    ("decay_interval", 0),
    ("epochs", -1),
    ("episodes_per_epoch", 0),
    ("k_shot", 0),
    ("n_query", 0),
    ("n_way", 1),
])
def test_validate_rejects_bad_config(field, value):
    with pytest.raises(ValueError, match=field):
        replace(TINY_TRAIN, **{field: value}).validate()


def queryless(dataset):
    return replace(sample_episode(dataset, "test", 2, 1, 1, seed=0), query=[], query_labels=[])


@pytest.mark.parametrize("field, call", [
    *[
        pytest.param(f, lambda ds, f=f: replace(TINY_TRAIN, **{f: 2.5}).validate(), id=f"{f}-fractional")
        for f in ("decay_interval", "epochs", "episodes_per_epoch", "n_way", "k_shot", "n_query")
    ],
    pytest.param("k_shot", lambda ds: replace(TINY_TRAIN, k_shot=True).validate(), id="k_shot-bool"),
    pytest.param(
        "videos_per_class",
        lambda ds: generate_dataset(8, -2, (4, 4, 5, 5), MisalignmentConfig(), seed=3),
        id="negative-videos_per_class",
    ),
    pytest.param("n_way", lambda ds: sample_episode(ds, "test", 0, 1, 1, 0), id="zero-way-episode"),
    pytest.param(
        "episodes",
        lambda ds: engine.evaluate(AlignmentModel(TINY_MODEL), ds, "test", 2.5, 2, 1, 1, seed=9),
        id="fractional-eval-episodes",
    ),
    pytest.param(
        "query",
        lambda ds: AlignmentModel(TINY_MODEL).episode_forward(Tape(grad=False), queryless(ds), training=False),
        id="episode-without-queries",
    ),
    *[
        pytest.param(
            "workers",
            lambda ds, w=w: engine.evaluate(AlignmentModel(TINY_MODEL), ds, "test", 2, 2, 1, 1, 9, workers=w),
            id=f"eval-workers-{w}",
        )
        for w in (2.5, 0, -1)
    ],
    pytest.param(
        "seed",
        lambda ds: engine.evaluate(AlignmentModel(TINY_MODEL), ds, "test", 2, 2, 1, 1, seed=-1),
        id="negative-eval-seed",
    ),
    # one class used to raise "classification needs at least two classes", naming no field
    *[
        pytest.param(
            "n_way",
            lambda ds, w=w: engine.evaluate(AlignmentModel(TINY_MODEL), ds, "test", 2, 1, 1, 1, 9, workers=w),
            id=f"one-way-eval-workers-{w}",
        )
        for w in (1, 2)
    ],
    pytest.param("seed", lambda ds: replace(TINY_TRAIN, seed=-1).validate(), id="negative-train-seed"),
    *[
        pytest.param("init_seed", lambda ds, s=s: AlignmentModel(replace(TINY_MODEL, init_seed=s)), id=f"init_seed-{i}")
        for i, s in enumerate((True, "3", -1))
    ],
    pytest.param(
        "seed",
        lambda ds: generate_dataset(8, 2, (4, 4, 5, 5), MisalignmentConfig(), seed=True),
        id="bool-dataset-seed",
    ),
])
def test_bad_counts_raise_value_error_naming_the_field(dataset, field, call):
    # a fractional or bool count or seed used to pass validation and fail
    # later with a TypeError, a negative seed to fail inside SeedSequence
    # without naming the field, and a negative or zero count to give an
    # empty or silently serial result
    with pytest.raises(ValueError, match=field):
        call(dataset)


@pytest.mark.parametrize("field, update", [
    ("n_way", dict(n_way=1)),
    ("k_shot", dict(k_shot=0)),
    ("n_query", dict(n_query=2.5)),
    ("split", dict(split="nope")),
])
def test_evaluate_validates_before_starting_a_pool(dataset, monkeypatch, field, update):
    # a bad episode shape fails in the caller, naming the field, before any worker starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(engine.multiprocessing, "Pool", no_pool)
    args = dict(split="test", episodes=2, n_way=2, k_shot=1, n_query=1, seed=9, workers=2)
    with pytest.raises(ValueError, match=field):
        engine.evaluate(AlignmentModel(TINY_MODEL), dataset, **{**args, **update})


def test_train_validates_before_training(dataset):
    model = AlignmentModel(TINY_MODEL)
    before = [p.value.copy() for p in model.parameters()]
    with pytest.raises(ValueError, match="n_way"):
        engine.train(model, dataset, replace(TINY_TRAIN, n_way=1))
    assert all(np.array_equal(a, p.value) for a, p in zip(before, model.parameters()))
