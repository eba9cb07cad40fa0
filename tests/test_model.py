import numpy as np
import numpy.testing as npt
import pytest

from ta2n import container, metric
from ta2n.autodiff import Tape, finite_diff_gradcheck
from ta2n.container import BadMagicError, UnsupportedVersionError
from ta2n.model import AlignmentModel, ModelConfig, load_checkpoint, save_checkpoint
from ta2n.synth import MisalignmentConfig, generate_dataset, sample_episode

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
    merely lies near a sampled point is left to the step ladder of
    ``finite_diff_gradcheck``. A point sitting exactly on one has no such
    step, and the SC head starts on some: zero offsets put grid cells on the
    mask rings. The zero-initialized TTM head weights would also give the
    TTM's conv a zero gradient, which a check passes trivially. So every
    parameter of the fresh model is nudged once, the TTM head is moved to a
    shorter window, and the SC head off zero offsets.
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
    model.ttm.head_b.value[0] = nudge.uniform(-0.5, -0.25)
    model.sc.fc2_b.value[:] = nudge.uniform(-0.4, 0.4, 2)

    def build(tape):
        out = model.episode_forward(tape, episode, training=True, epoch=0)
        return metric.cross_entropy_loss(out.probs, out.labels)

    return build, model.parameters()


def training_step_census(cfg, monkeypatch):
    """(tape ops, recorded value shapes) of one 5-way 1-shot 1-query training step."""
    dims = (cfg.channels, cfg.frames, cfg.height, cfg.width)
    data = generate_dataset(20, 2, dims, MisalignmentConfig(0.5, 0.8, 1.0, 0.1), seed=0)
    episode = sample_episode(data, "train", 5, 1, 1, seed=0)
    shapes = []
    record = Tape.record

    def recording(tape, op, value, inputs, backward):
        shapes.append(np.shape(value))
        return record(tape, op, value, inputs, backward)

    monkeypatch.setattr(Tape, "record", recording)
    tape = Tape()
    out = AlignmentModel(cfg).episode_forward(tape, episode, training=True)
    metric.cross_entropy_loss(out.probs, out.labels)
    return [e.op for e in tape.entries], shapes


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

    def test_training_step_op_census(self, monkeypatch):
        # ModelConfig(), 5-way 1-shot 1-query: the offset predictor's first
        # layer is one conv3d entry over per-video inputs, so the
        # (25, 32, 8, 7, 7) pair stack is never built
        ops, shapes = training_step_census(ModelConfig(), monkeypatch)
        assert ops.count("conv3d") == 2
        # the masks of all 25 pairs: one entry for the supports, one for the queries
        assert ops.count("offset_masks") == 2
        assert (25, 32, 8, 7, 7) not in shapes
        # stage one: one embed -> TTM -> warp chain for the supports, one for the queries
        assert ops.count("time_linear_sample") == ops.count("conv1d_temporal") == 2
        # stage two: one correlation per pair, one rearrangement of every pair
        assert ops.count("matmul") == 25
        assert ops.count("mix_time") == 1
        assert len(ops) == 581 < 637

    def test_training_step_op_census_without_sc(self, monkeypatch):
        # without SC the queries are averaged over space before TC mixes
        # them, so no (Q, N, d, T, H, W) block of rearranged maps is built
        ops, shapes = training_step_census(ModelConfig(use_sc=False), monkeypatch)
        assert ops.count("matmul") == 25
        assert ops.count("mix_time") == 1
        assert (5, 5, 16, 8, 7, 7) not in shapes
        assert (5, 5, 16, 8, 1, 1) in shapes
        assert len(ops) == 522 < 569

    @pytest.mark.parametrize(
        "seed, k_shot, proj_dim",
        [pytest.param(s, 1, 6, id=str(s)) for s in (2, 3, 5, 12, 15, 18)]
        + [pytest.param(12, 3, 4, id="12-3shot-proj4")],
    )
    def test_full_model_gradients(self, seed, k_shot, proj_dim):
        cfg = tiny_config(height=7, width=7, proj_dim=proj_dim)
        build, params = episode_loss(seed, cfg, k_shot)
        report = finite_diff_gradcheck(
            build, params, step=1e-3, tolerance=1e-4,
            rng=np.random.default_rng(10), max_coords_per_param=2,
        )
        assert report.passed, report.summary()


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
        save_checkpoint(model, path, extra={"note": "test"})
        loaded, header = load_checkpoint(path)
        assert header["extra"]["note"] == "test"
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            npt.assert_array_equal(a.value, b.value)
        npt.assert_array_equal(loaded.sc.bn1_mean, model.sc.bn1_mean)
        assert loaded.config == model.config

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
