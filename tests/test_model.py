import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ta2n import autodiff as ad
from ta2n import acm, container, engine, metric, synth, ttm
from ta2n import model as model_module
from ta2n.autodiff import Parameter, Tape
from ta2n.container import BadMagicError, UnsupportedVersionError
from ta2n.model import AlignmentModel, ModelConfig, load_checkpoint, save_checkpoint
from ta2n.synth import (
    MisalignmentConfig,
    generate_dataset,
    load_dataset,
    sample_episode,
    save_dataset,
)

from container_bytes import write_unchecked
from gradcheck import directional_gradcheck, finite_diff_gradcheck
from saved_arrays import saved_arrays

DIMS = (6, 8, 5, 5)


def tiny_config(**kw):
    base = dict(
        channels=6, frames=8, height=5, width=5, proj_dim=6,
        ttm_hidden=8, offset_channels=(8, 8), offset_hidden=8,
    )
    base.update(kw)
    return ModelConfig(**base)


def episode_loss(seed, cfg, k_shot):
    """(build, params) of a 2-way 1-query episode loss through every stage.

    Central differences are only meaningful at smooth points, but the warp's
    integer source positions, the mask ring edges, and the ReLUs and max
    pools of the offset predictor are all subgradient kinks. A kink that
    merely lies near the evaluation point is left to the step ladder that
    ``gradcheck.finite_diff_gradcheck`` and ``gradcheck.directional_gradcheck``
    share. A point sitting exactly on one has no such
    step, and the SC head starts on some: zero offsets put grid cells on the
    mask rings. The zero-initialized TTM head weights would also give the
    TTM's conv a zero gradient, which a check passes trivially. So every
    parameter of the fresh model is nudged once, the TTM head, if any, is
    moved to a shorter window, and the SC head, if any, off zero offsets.
    """
    dims = (cfg.channels, cfg.frames, cfg.height, cfg.width)
    dataset = generate_dataset(
        6, k_shot + 1, dims, MisalignmentConfig(0.4, 0.8, 1.0, 0.2), seed=seed
    )
    episode = sample_episode(dataset, "train", 2, k_shot, 1, seed=seed + 1)
    model = AlignmentModel(cfg)
    nudge = np.random.default_rng((seed, 2))
    for p in model.parameters():
        p.value += nudge.normal(0.0, 0.02, p.value.shape)
    if model.ttm is not None:
        model.ttm.head_b.value[0] = nudge.uniform(-0.5, -0.25)
    if model.sc is not None:
        model.sc.fc2_b.value[:] = nudge.uniform(-0.4, 0.4, 2)

    def build(tape):
        out = model.episode_forward(tape, episode, training=True, epoch=0)
        return metric.cross_entropy_loss(out.probs, out.labels)

    return build, model.parameters()


def defined_functions(module):
    """``{qualified name: code object}`` of every function, method and property
    that ``module``'s own source defines; imported and generated ones are skipped."""
    found = {}

    def add(name, fn):
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            found[f"{module.__name__}.{name}"] = code

    for name, obj in vars(module).items():
        add(name, obj)
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    for fn in (member.fget, member.fset, member.fdel):
                        add(f"{name}.{attr}", fn)
                else:  # a staticmethod or classmethod wraps its function
                    add(f"{name}.{attr}", getattr(member, "__func__", member))
    return found


def census_episode(cfg):
    """A 5-way 1-shot 1-query training episode of ``cfg``'s video shape."""
    dims = (cfg.channels, cfg.frames, cfg.height, cfg.width)
    data = generate_dataset(20, 2, dims, MisalignmentConfig(0.5, 0.8, 1.0, 0.1), seed=0)
    return sample_episode(data, "train", 5, 1, 1, seed=0)


def step_census(cfg, monkeypatch, training=True):
    """(tape ops, recorded value shapes) of one ``census_episode`` step on a
    recording tape, a training step or an eval-mode forward and loss."""
    episode = census_episode(cfg)
    shapes = []
    record = Tape.record

    def recording(tape, op, value, inputs, backward):
        shapes.append(np.shape(value))
        return record(tape, op, value, inputs, backward)

    monkeypatch.setattr(Tape, "record", recording)
    tape = Tape()
    out = AlignmentModel(cfg).episode_forward(tape, episode, training=training)
    metric.cross_entropy_loss(out.probs, out.labels)
    return [e.op for e in tape.entries], shapes


def episode_probs(model, episode):
    """The (Q, N) eval-mode probabilities of ``episode``'s queries."""
    out = model.episode_forward(Tape(grad=False), episode, training=False)
    return np.stack([p.value for p in out.probs])


def spatially_shuffled(episode, seed):
    """``episode`` with each frame's H x W cells permuted, a new permutation
    for every frame of every video."""
    rng = np.random.default_rng(seed)

    def shuffle(video):
        c, t, h, w = video.feature.shape
        perms = rng.permuted(np.tile(np.arange(h * w), (t, 1)), axis=1)
        cells = np.take_along_axis(video.feature.reshape(c, t, h * w), perms[None], axis=2)
        return replace(video, feature=cells.reshape(c, t, h, w))

    support = [[shuffle(v) for v in shots] for shots in episode.support]
    return replace(episode, support=support, query=[shuffle(v) for v in episode.query])


def conv_shapes(ops, shapes):
    """The recorded output shapes of the ``conv3d`` entries, in tape order."""
    return [shape for op, shape in zip(ops, shapes) if op == "conv3d"]


def assert_fused_metric_head(ops):
    """One distance entry per pair (5 x 5) and one loss entry per episode."""
    assert ops.count("cosine_distance") == 25
    assert ops.count("nll") == 1
    assert "sqrt" not in ops and "log" not in ops


# the full-model gradient-check cases: six 1-shot seeds, a 3-shot case whose
# TC projects to fewer dimensions than it reads, and the variants without SC,
# whose stage one averages the videos over space, at 1 and 3 shots
NO_SC_VARIANTS = {
    "noSC": dict(use_sc=False),
    "noSC-noTC": dict(use_sc=False, use_tc=False),
    "noSC-noTTM": dict(use_sc=False, use_ttm=False),
}
FULL_MODEL_CASES = pytest.mark.parametrize(
    "seed, k_shot, proj_dim, toggles",
    [pytest.param(s, 1, 6, {}, id=str(s)) for s in (2, 3, 5, 12, 15, 18)]
    + [pytest.param(12, 3, 4, {}, id="12-3shot-proj4")]
    + [pytest.param(12, 1, 6, t, id=f"12-{name}") for name, t in NO_SC_VARIANTS.items()]
    + [pytest.param(12, 3, 4, t, id=f"12-3shot-proj4-{name}") for name, t in NO_SC_VARIANTS.items()],
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(8, 6, DIMS, MisalignmentConfig(0.4, 0.8, 1.0, 0.2), seed=3)


class TestEpisodeForward:
    def test_probabilities_well_formed(self, dataset):
        model = AlignmentModel(tiny_config())
        ep = sample_episode(dataset, "train", 3, 1, 2, seed=0)
        out = model.episode_forward(Tape(grad=False), ep, training=False)
        assert len(out.probs) == 6
        for p in out.probs:
            npt.assert_allclose(p.value.sum(), 1.0, atol=1e-9)
            assert p.value.shape == (3,)

    def test_all_variants_run(self, dataset):
        ep = sample_episode(dataset, "train", 3, 1, 1, seed=1)
        for use_ttm in (False, True):
            for use_tc in (False, True):
                for use_sc in (False, True):
                    model = AlignmentModel(
                        tiny_config(use_ttm=use_ttm, use_tc=use_tc, use_sc=use_sc)
                    )
                    out = model.episode_forward(Tape(grad=False), ep, training=False)
                    assert len(out.probs) == 3

    def test_zero_init_predicts_uniform(self, dataset):
        model = AlignmentModel(tiny_config())
        for p in model.parameters():
            p.value[...] = 0.0
        ep = sample_episode(dataset, "train", 3, 1, 2, seed=2)
        out = model.episode_forward(Tape(grad=False), ep, training=False)
        for p in out.probs:
            npt.assert_allclose(p.value, np.full(3, 1 / 3), atol=1e-12)

    def test_multishot_prototypes(self, dataset):
        model = AlignmentModel(tiny_config())
        ep = sample_episode(dataset, "train", 2, 3, 1, seed=3)
        out = model.episode_forward(Tape(grad=False), ep, training=False)
        assert len(out.probs) == 2

    def test_multishot_runs_with_projection(self, dataset):
        # the prototype is the mean of the shots before coordination, so a
        # projection narrower than the channels is fine for any k_shot
        model = AlignmentModel(tiny_config(proj_dim=4))
        ep = sample_episode(dataset, "train", 2, 2, 1, seed=3)
        for training in (False, True):
            out = model.episode_forward(Tape(grad=False), ep, training=training)
            assert len(out.probs) == 2
            for p in out.probs:
                assert np.isfinite(p.value).all()
                npt.assert_allclose(p.value.sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "mismatch, want",
        [({"frames": 6}, "(6, 6, 5, 5)"), ({"height": 9, "width": 9}, "(6, 8, 9, 9)")],
        ids=["frames", "height"],
    )
    def test_video_shape_must_match_config(self, dataset, mismatch, want):
        # 9x9 grid offsets on 5x5 videos could reach 4 cells, twice the
        # videos' half-extent
        model = AlignmentModel(tiny_config(**mismatch))
        ep = sample_episode(dataset, "train", 2, 1, 1, seed=3)
        with pytest.raises(ValueError) as err:
            model.episode_forward(Tape(grad=False), ep, training=False)
        assert "(6, 8, 5, 5)" in str(err.value) and want in str(err.value)

    @pytest.mark.parametrize(
        "shots", [[1, 2], [2, 0], [0, 0], []], ids=["ragged", "one-empty", "all-empty", "no-class"]
    )
    def test_unequal_or_empty_shot_lists_rejected(self, dataset, shots):
        ep = sample_episode(dataset, "train", 2, 2, 1, seed=3)
        ep.support = [ep.support[n % 2][:k] for n, k in enumerate(shots)]
        with pytest.raises(ValueError, match="same number of shots"):
            AlignmentModel(tiny_config()).episode_forward(Tape(grad=False), ep, training=False)

    def test_forward_leaves_no_state_on_the_model(self, dataset):
        model = AlignmentModel(tiny_config())
        before = set(vars(model))
        ep = sample_episode(dataset, "train", 2, 1, 1, seed=5)
        for training in (True, False):
            model.episode_forward(Tape(grad=False), ep, training=training)
        assert set(vars(model)) == before

    def test_deterministic_forward(self, dataset):
        ep = sample_episode(dataset, "train", 3, 1, 1, seed=6)
        outs = []
        for _ in range(2):
            model = AlignmentModel(tiny_config())
            o = model.episode_forward(Tape(grad=False), ep, training=False)
            outs.append(np.stack([p.value for p in o.probs]))
        npt.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize(
        "toggles", [{}, *NO_SC_VARIANTS.values()], ids=["SC", *NO_SC_VARIANTS]
    )
    def test_only_sc_reads_space(self, dataset, toggles):
        # permuting each frame's cells moves an SC model's probabilities, so
        # the check can fail, and leaves a model without SC alone
        model = AlignmentModel(tiny_config(**toggles))
        ep = sample_episode(dataset, "train", 3, 2, 2, seed=4)
        change = np.abs(episode_probs(model, spatially_shuffled(ep, 0)) - episode_probs(model, ep)).max()
        assert change > 1e-3 if model.sc is not None else change < 1e-12

    @pytest.mark.parametrize("use_sc", [True, False], ids=["SC", "noSC"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_stage_one_runs_once_and_each_video_alone(self, dataset, monkeypatch, use_sc, training):
        # the episode's one stage-one block holds the 2x2 shots, then the 4
        # queries, and each video's row is bit-identical to that video run
        # alone: no op of the chain mixes videos
        model = AlignmentModel(tiny_config(use_sc=use_sc))
        model.ttm.head_b.value[0] = -0.4  # a warp to a shorter window, not the identity
        ep = sample_episode(dataset, "train", 2, 2, 2, seed=7)
        blocks = []
        stage_one = model._stage_one

        def recording(tape, videos):
            blocks.append(stage_one(tape, videos))
            return blocks[-1]

        monkeypatch.setattr(model, "_stage_one", recording)
        model.episode_forward(Tape(grad=training), ep, training=training)
        videos = [v for shots in ep.support for v in shots] + ep.query
        assert len(blocks) == 1 and blocks[0].shape[0] == len(videos) == 8
        for row, video in zip(blocks[0].value, videos):
            assert np.array_equal(row, stage_one(Tape(grad=training), [video]).value[0])

    def test_training_step_op_census(self, monkeypatch):
        # ModelConfig(), 5-way 1-shot 1-query: the offset predictor's first
        # layer is one conv3d entry over per-video inputs, so the
        # (25, 32, 8, 7, 7) pair stack is never built
        ops, shapes = step_census(ModelConfig(), monkeypatch)
        assert ops.count("conv3d") == 2
        # the masks of all 25 pairs: one entry for the supports, one for the queries
        assert ops.count("offset_masks") == 2
        assert (25, 32, 8, 7, 7) not in shapes
        # each 2x2 pool drops the trailing odd row and column, so the 7x7 and
        # 3x3 convs compute their top-left 6x6 and 2x2 outputs
        assert conv_shapes(ops, shapes) == [(25, 128, 8, 6, 6), (25, 128, 8, 2, 2)]
        # stage one: one embed -> TTM -> warp chain for the shots and queries
        # alike; a warp is one mix_time by the videos' warp matrices
        assert ops.count("warp_matrix") == ops.count("conv1d_temporal") == 1
        assert "time_linear_sample" not in ops
        # stage two: one logits matmul per pair, one softmax per episode for
        # the mix, one rearrangement of every pair
        assert ops.count("matmul") == 25
        assert ops.count("softmax") == 1 + 5  # the mix, then one per query in metric.classify
        assert ops.count("mix_time") == 1 + 1
        assert_fused_metric_head(ops)
        # offsets, masks and masked means broadcast: no reshape inside SC pooling,
        # and ``take`` splits stage one's block into shots by class and queries
        assert ops.count("reshape") == 5
        # batch-first blocks: only TC's keys and the offset head's (B, T, 2) output
        assert ops.count("transpose") == 2
        # each layer's batch norm, 2x2 max pool and ReLU are one entry
        assert ops.count("batchnorm_train") == 2 and "max_pool_spatial2" not in ops
        assert len(ops) == 189 < 581

    def test_training_step_op_census_without_sc(self, monkeypatch):
        # without SC stage one averages every video over space before the
        # embed, so every block on the tape, (..., C, T, H, W), is 1x1 in
        # space and stage two's one rearrangement mixes 1x1 maps
        ops, shapes = step_census(ModelConfig(use_sc=False), monkeypatch)
        # one logits matmul per pair, one softmax per episode for the mix
        assert ops.count("matmul") == 25
        assert ops.count("softmax") == 1 + 5
        assert ops.count("warp_matrix") == 1 and "time_linear_sample" not in ops
        assert ops.count("mix_time") == 1 + 1  # one warp, one rearrangement
        blocks = [shape for shape in shapes if len(shape) >= 5]
        assert (5, 5, 16, 8, 1, 1) in blocks
        assert all(shape[-2:] == (1, 1) for shape in blocks)
        assert_fused_metric_head(ops)
        assert ops.count("transpose") == 1  # TC's keys
        assert ops.count("reshape") == 4
        assert len(ops) == 140 < 522

    def test_training_and_eval_convolve_the_same_positions(self, monkeypatch):
        # ModelConfig(): training batch norm takes its statistics over the
        # positions the pools read, so ``training`` selects only the
        # batch-norm mode and both modes make the same conv calls
        train_ops, train_shapes = step_census(ModelConfig(), monkeypatch, training=True)
        eval_ops, eval_shapes = step_census(ModelConfig(), monkeypatch, training=False)
        assert conv_shapes(train_ops, train_shapes) == conv_shapes(eval_ops, eval_shapes)
        assert "batchnorm_train" in train_ops and "batchnorm_train" not in eval_ops
        assert "batchnorm_eval" in eval_ops and "batchnorm_eval" not in train_ops

    def test_training_step_saves_one_copy_of_the_pair_block(self):
        # ModelConfig(), 5-way 1-shot 1-query: the offset predictor's first
        # conv output is the only array of the (25, 128, 8, 6, 6) pair block's
        # size that backward keeps; batch norm, the 2x2 pool and the second
        # conv keep quarter-size arrays or their inputs
        cfg, tape = ModelConfig(), Tape()
        AlignmentModel(cfg).episode_forward(tape, census_episode(cfg), training=True)
        saved = saved_arrays(tape)
        block = 25 * 128 * 8 * 6 * 6 * 8
        assert [a.nbytes for a in saved].count(block) == 1
        assert sum(a.nbytes for a in saved) < 40e6

    def test_offset_predictor_blocks_are_stored_channels_last(self, monkeypatch):
        # ModelConfig(), 5-way 1-shot 1-query: each conv and batch-norm output
        # of the offset predictor is the (B, C, T, H, W) view of a C-contiguous
        # (B, T, H, W, C) array, so the op after it reads it without a copy
        blocks = []
        record = Tape.record

        def recording(tape, op, value, inputs, backward):
            if op in ("conv3d", "batchnorm_train"):
                blocks.append((op, value))
            return record(tape, op, value, inputs, backward)

        monkeypatch.setattr(Tape, "record", recording)
        cfg = ModelConfig()
        AlignmentModel(cfg).episode_forward(Tape(), census_episode(cfg), training=True)
        assert [op for op, _ in blocks] == ["conv3d", "batchnorm_train"] * 2
        for op, value in blocks:
            assert value.transpose(0, 2, 3, 4, 1).flags.c_contiguous, (op, value.shape)
            assert not value.flags.c_contiguous, (op, value.shape)

    @FULL_MODEL_CASES
    def test_full_model_gradients(self, seed, k_shot, proj_dim, toggles):
        cfg = tiny_config(height=7, width=7, proj_dim=proj_dim, **toggles)
        build, params = episode_loss(seed, cfg, k_shot)
        report = finite_diff_gradcheck(
            build, params, step=1e-3, tolerance=1e-4,
            rng=np.random.default_rng(10), max_coords_per_param=2,
        )
        assert report.passed, report.summary()

    @FULL_MODEL_CASES
    def test_full_model_directional_gradients(self, seed, k_shot, proj_dim, toggles):
        # J·v of the whole episode loss along random unit directions through
        # every parameter at once
        cfg = tiny_config(height=7, width=7, proj_dim=proj_dim, **toggles)
        build, params = episode_loss(seed, cfg, k_shot)
        report = directional_gradcheck(build, params, rng=np.random.default_rng(11))
        assert report.passed and report.checked == 2, report.summary()

    def test_directional_check_catches_a_wrong_backward(self, monkeypatch):
        # every pair distance's backward 5% too large: the loss gradient is off
        # by 5% along every direction
        record = Tape.record

        def skewed(tape, op, value, inputs, backward):
            if op != "cosine_distance":
                return record(tape, op, value, inputs, backward)
            return record(tape, op, value, inputs, lambda g: tuple(1.05 * gi for gi in backward(g)))

        build, params = episode_loss(12, tiny_config(height=7, width=7), 1)
        monkeypatch.setattr(Tape, "record", skewed)
        report = directional_gradcheck(build, params, rng=np.random.default_rng(11))
        assert not report.passed and len(report.failures) == 2
        assert all(err > 0.04 for *_, err in report.failures)

    def test_every_autodiff_op_runs_in_the_pipeline(self, dataset, monkeypatch):
        # the functions of ``ta2n.autodiff``, public ops and private kernel
        # helpers alike, are the pipeline's and nothing else: one full-model
        # training step and one eval-mode forward call each of them, so an
        # orphaned helper fails here
        names = sorted(
            name for name, fn in vars(ad).items()
            if callable(fn) and not name.startswith("__") and not isinstance(fn, type)
            and getattr(fn, "__module__", None) == ad.__name__
        )
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
        model = AlignmentModel(tiny_config())
        step = engine.TrainConfig(epochs=1, episodes_per_epoch=1, n_way=3, k_shot=1, n_query=1)
        engine.train(model, dataset, step)
        episode = sample_episode(dataset, "test", 2, 1, 1, seed=0)
        model.episode_forward(Tape(grad=False), episode, training=False)
        assert {"conv3d", "cosine_distance", "nll", "_patches", "_conv_grad"} <= set(names)
        assert [name for name in names if not calls[name]] == []

    def test_every_module_function_runs_in_the_pipeline(self, tmp_path):
        # every function, method and property that the modules above autodiff
        # define runs in training with SC, without SC and without SC or TC, in
        # evaluation, in both file round trips and in a one-variant ablation,
        # so code that only tests call fails here; the two pool-worker entry
        # points run only in child processes, which this profiler cannot see
        defined = {}
        for module in (acm, ttm, metric, model_module, synth, engine, container):
            defined.update(defined_functions(module))
        exempt = {"ta2n.engine._init_worker", "ta2n.engine._pool_eval_episode"}
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            data = generate_dataset(8, 3, DIMS, MisalignmentConfig(0.4, 0.8, 1.0, 0.2), seed=1)
            step = engine.TrainConfig(epochs=1, episodes_per_epoch=1, n_way=2, k_shot=1, n_query=1)
            for toggles in ({"use_sc": False, "use_tc": False}, {"use_sc": False}, {}):
                model = AlignmentModel(tiny_config(**toggles))
                engine.train(model, data, step)
            engine.evaluate(model, data, "test", 2, 2, 1, 1, seed=0)
            save_dataset(data, tmp_path / "data.ta2n")
            load_dataset(tmp_path / "data.ta2n")
            save_checkpoint(model, tmp_path / "model.ckpt")
            load_checkpoint(tmp_path / "model.ckpt")
            engine.ablation_run(data, step, tiny_config(), 1, variants=engine.ABLATION_VARIANTS[:1])
        finally:
            sys.setprofile(previous)
        assert exempt <= defined.keys() and "ta2n.acm.OffsetPredictor.forward" in defined
        assert sorted(n for n, code in defined.items() if code not in called and n not in exempt) == []

    def test_rng_is_ignored(self, dataset):
        # the docstring's claim: nothing in the forward is random, so a training
        # step with any generator, or none, records the same tape and values
        ep = sample_episode(dataset, "train", 3, 1, 2, seed=7)
        runs = []
        for rng in (None, np.random.default_rng(0), np.random.default_rng(1)):
            tape = Tape()
            out = AlignmentModel(tiny_config()).episode_forward(tape, ep, training=True, rng=rng)
            metric.cross_entropy_loss(out.probs, out.labels)
            runs.append((np.stack([p.value for p in out.probs]), len(tape.entries)))
        for probs, entries in runs[1:]:
            npt.assert_array_equal(probs, runs[0][0])
            assert entries == runs[0][1]


class TestInit:
    """Each module draws its initial weights from its own stream."""

    @staticmethod
    def weights(**toggles):
        return {p.name: p.value for p in AlignmentModel(tiny_config(**toggles)).parameters()}

    @pytest.mark.parametrize("toggle, kept", [
        ("use_ttm", ("embed.", "tc.", "sc.")),
        ("use_sc", ("embed.", "ttm.", "tc.")),
        ("use_tc", ("embed.", "ttm.")),
    ])
    def test_toggling_a_module_keeps_the_others_init(self, toggle, kept):
        on, off = self.weights(), self.weights(**{toggle: False})
        shared = [name for name in off if name.startswith(kept)]
        assert shared and all(np.array_equal(on[name], off[name]) for name in shared)


class TestCheckpoints:
    def test_round_trip(self, dataset, tmp_path):
        model = AlignmentModel(tiny_config())
        # give the zero-initialized heads some state worth saving
        for p in model.parameters():
            p.value += np.random.default_rng(0).normal(0, 0.01, p.value.shape)
        model.sc.bn1_mean[:] = 0.33
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded, header = load_checkpoint(path)
        assert sorted(header) == ["config", "package_version"]
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            npt.assert_array_equal(a.value, b.value)
        npt.assert_array_equal(loaded.sc.bn1_mean, model.sc.bn1_mean)
        assert loaded.config == model.config

    def test_every_parameter_attribute_is_trained_and_saved(self, tmp_path):
        # a Parameter a module holds but leaves out of its parameters() would
        # get no optimizer step and no checkpoint entry
        def attributes(model):
            owners = (model, model.ttm, model.tc, model.sc)
            return [v for o in owners for v in vars(o).values() if isinstance(v, Parameter)]

        model = AlignmentModel(tiny_config())
        params = model.parameters()
        assert Counter(map(id, params)) == Counter(map(id, attributes(model)))
        assert len({p.name for p in params}) == len(params)
        rng = np.random.default_rng(1)
        for p in params:
            p.value += rng.normal(0.0, 0.01, p.value.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = {p.name: p.value for p in attributes(load_checkpoint(path)[0])}
        assert loaded.keys() == {p.name for p in params}
        for p in params:
            npt.assert_array_equal(loaded[p.name], p.value, err_msg=p.name)

    @pytest.mark.parametrize("name, index, value", [
        pytest.param("sc.conv1_w", (0, 1, 2, 0, 1), np.nan, id="nan_weight"),
        pytest.param("tc.value_b", (2,), -np.inf, id="inf_bias"),
        pytest.param("sc.bn1_var", (3,), -1.0, id="negative_var"),
    ])
    def test_checkpoint_with_malformed_array_is_rejected(self, tmp_path, name, index, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(AlignmentModel(tiny_config()), path)
        meta, arrays = container.load(path, container.CHECKPOINT)
        arrays[name][index] = value
        write_unchecked(path, container.CHECKPOINT, meta, arrays)
        with pytest.raises(container.ContainerError) as err:
            load_checkpoint(path)
        assert str(err.value).endswith(f"['{name}']")

    def test_non_finite_model_is_not_saved(self, tmp_path):
        # a model left non-finite by a diverged step used to be written to a
        # file that load_checkpoint then rejected
        model = AlignmentModel(tiny_config())
        model.embed_w.value[0, 0] = np.nan
        model.tc.value_b.value[1] = np.inf
        with pytest.raises(container.ContainerError) as err:
            save_checkpoint(model, tmp_path / "model.ckpt")
        assert str(err.value).endswith("['embed.w', 'tc.value_b']")
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_with_query_bias_is_rejected(self, tmp_path):
        # checkpoints written while TC had a query bias carry tc.query_b,
        # which the model no longer has: loading names the array
        path = tmp_path / "model.ckpt"
        save_checkpoint(AlignmentModel(tiny_config()), path)
        meta, arrays = container.load(path, container.CHECKPOINT)
        arrays["tc.query_b"] = np.zeros(6)
        container.save(path, container.CHECKPOINT, meta, arrays)
        with pytest.raises(container.ContainerError, match="tc.query_b"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key",
        ["mask_slope", "perturb", "perturb_amplitude", "perturb_decay", "perturb_interval", "init"],
    )
    def test_checkpoint_with_deleted_config_key_is_rejected(self, tmp_path, key):
        # checkpoints written before these ModelConfig fields were deleted
        # carry them in their meta config: loading names the key
        path = tmp_path / "model.ckpt"
        save_checkpoint(AlignmentModel(tiny_config()), path)
        meta, arrays = container.load(path, container.CHECKPOINT)
        meta["config"][key] = 1.0
        container.save(path, container.CHECKPOINT, meta, arrays)
        with pytest.raises(container.ContainerError, match=key):
            load_checkpoint(path)

    def test_checkpoint_config_error_names_every_bad_key(self, tmp_path):
        deleted = ["init", "mask_slope", "perturb", "perturb_amplitude", "perturb_decay", "perturb_interval"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(AlignmentModel(tiny_config()), path)
        meta, arrays = container.load(path, container.CHECKPOINT)
        meta["config"].update({key: 1.0 for key in deleted})
        del meta["config"]["frames"], meta["config"]["use_sc"]
        container.save(path, container.CHECKPOINT, meta, arrays)
        with pytest.raises(container.ContainerError) as err:
            load_checkpoint(path)
        message = str(err.value)
        assert f"unknown keys {deleted}" in message
        assert "missing keys ['frames', 'use_sc']" in message

    @pytest.mark.parametrize("update, match", [
        pytest.param({"proj_dim": 0}, "proj_dim", id="zero_proj_dim"),
        pytest.param({"channels": 0}, "channels", id="zero_channels"),
        pytest.param({"offset_channels": [0, 8]}, r"offset_channels\[0\]", id="zero_offset_channels"),
        pytest.param({"ttm_hidden": 2.5}, "ttm_hidden", id="fractional_size"),
        pytest.param({"height": True}, "height", id="bool_size"),
        pytest.param({"offset_channels": [8, 8, 8]}, "offset_channels", id="three_offset_layers"),
        pytest.param({"use_tc": "yes"}, "use_tc", id="string_toggle"),
        pytest.param({"frames": 1}, "frames", id="one_frame_with_ttm"),
        pytest.param({"init_seed": "3"}, "init_seed", id="string_seed"),
    ])
    def test_checkpoint_with_invalid_config_is_rejected(self, tmp_path, update, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(AlignmentModel(tiny_config()), path)
        meta, arrays = container.load(path, container.CHECKPOINT)
        meta["config"].update(update)
        container.save(path, container.CHECKPOINT, meta, arrays)
        with pytest.raises(container.ContainerError, match=match):
            load_checkpoint(path)
        cfg = {**meta["config"], "offset_channels": tuple(meta["config"]["offset_channels"])}
        with pytest.raises(ValueError, match=match):
            AlignmentModel(ModelConfig(**cfg))

    def test_one_frame_without_ttm_is_accepted(self):
        assert AlignmentModel(tiny_config(frames=1, use_ttm=False)).ttm is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(AlignmentModel(tiny_config()), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(AlignmentModel(tiny_config()), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (7).to_bytes(2, "little")
        path.write_bytes(raw)
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt")
