import numpy as np
import numpy.testing as npt
import pytest

from ta2n import container, gradcheck, metric
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


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(8, 6, DIMS, MisalignmentConfig(0.4, 0.8, 1.0, 0.2), seed=3)


class TestEpisodeForward:
    def test_probabilities_well_formed(self, dataset):
        model = AlignmentModel(tiny_config())
        ep = sample_episode(dataset, "train", 3, 1, 2, seed=0)
        out = model.episode_forward(
            Tape(grad=False), ep, training=False, rng=np.random.default_rng(0)
        )
        assert len(out.probs) == 6
        for p in out.probs:
            npt.assert_allclose(p.value.sum(), 1.0, atol=1e-9)
            assert p.value.shape == (3,)
        assert len(out.warps) == 9  # 3 support + 6 query videos

    def test_all_variants_run(self, dataset):
        ep = sample_episode(dataset, "train", 3, 1, 1, seed=1)
        for use_ttm in (False, True):
            for use_tc in (False, True):
                for use_sc in (False, True):
                    model = AlignmentModel(
                        tiny_config(use_ttm=use_ttm, use_tc=use_tc, use_sc=use_sc)
                    )
                    out = model.episode_forward(
                        Tape(grad=False), ep, training=False,
                        rng=np.random.default_rng(0),
                    )
                    assert len(out.probs) == 3

    def test_zero_init_predicts_uniform(self, dataset):
        model = AlignmentModel(tiny_config())
        for p in model.parameters():
            p.value[...] = 0.0
        ep = sample_episode(dataset, "train", 3, 1, 2, seed=2)
        out = model.episode_forward(
            Tape(grad=False), ep, training=False, rng=np.random.default_rng(0)
        )
        for p in out.probs:
            npt.assert_allclose(p.value, np.full(3, 1 / 3), atol=1e-12)

    def test_multishot_prototypes(self, dataset):
        model = AlignmentModel(tiny_config())
        ep = sample_episode(dataset, "train", 2, 3, 1, seed=3)
        out = model.episode_forward(
            Tape(grad=False), ep, training=False, rng=np.random.default_rng(4)
        )
        assert len(out.probs) == 2

    def test_multishot_requires_matching_dims(self, dataset):
        model = AlignmentModel(tiny_config(proj_dim=4))
        ep = sample_episode(dataset, "train", 2, 2, 1, seed=3)
        with pytest.raises(ValueError, match="proj_dim"):
            model.episode_forward(
                Tape(grad=False), ep, training=False, rng=np.random.default_rng(0)
            )

    def test_collect_exports_pair_artifacts(self, dataset):
        model = AlignmentModel(tiny_config())
        ep = sample_episode(dataset, "train", 2, 1, 1, seed=5)
        out = model.episode_forward(
            Tape(grad=False), ep, training=False, rng=np.random.default_rng(0),
            collect=True,
        )
        assert len(out.pairs) == 4  # 2 queries x 2 classes
        for rec in out.pairs:
            assert rec.correlation.shape == (8, 8)
            npt.assert_allclose(rec.correlation.sum(axis=1), np.ones(8), atol=1e-9)
            assert rec.offsets.shape == (8, 2)
            assert rec.pooled_query.shape == (6, 8)

    def test_forward_leaves_no_state_on_the_model(self, dataset):
        model = AlignmentModel(tiny_config())
        before = set(vars(model))
        ep = sample_episode(dataset, "train", 2, 1, 1, seed=5)
        for collect in (False, True):
            model.episode_forward(
                Tape(grad=False), ep, training=True, rng=np.random.default_rng(0),
                collect=collect,
            )
        assert set(vars(model)) == before

    def test_deterministic_forward(self, dataset):
        ep = sample_episode(dataset, "train", 3, 1, 1, seed=6)
        outs = []
        for _ in range(2):
            model = AlignmentModel(tiny_config())
            o = model.episode_forward(
                Tape(grad=False), ep, training=False, rng=np.random.default_rng(7)
            )
            outs.append(np.stack([p.value for p in o.probs]))
        npt.assert_array_equal(outs[0], outs[1])

    def test_training_step_op_census(self, monkeypatch):
        # ModelConfig(), 5-way 1-shot 1-query: the offset predictor's first
        # layer is one conv3d entry over per-video inputs, so the
        # (25, 32, 8, 7, 7) pair stack is never built
        cfg = ModelConfig()
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
        out = AlignmentModel(cfg).episode_forward(
            tape, episode, training=True, rng=np.random.default_rng(0)
        )
        metric.cross_entropy_loss(out.probs, out.labels)
        ops = [e.op for e in tape.entries]
        assert ops.count("conv3d") == 2
        # the masks of all 25 pairs: one entry for the supports, one for the queries
        assert ops.count("offset_masks") == 2
        assert (25, 32, 8, 7, 7) not in shapes
        assert len(ops) == 737 < 1259

    @pytest.mark.parametrize("seed", [2, 3, 5, 12, 15, 18])
    def test_full_model_gradients(self, seed):
        # the case builder nudges the zero-initialized heads off the clamp and
        # mask kinks they sit on exactly; kinks that merely lie near a sampled
        # point are left to the step ladder of finite_diff_gradcheck
        case = gradcheck.full_case(seed=seed)
        report = finite_diff_gradcheck(
            case.build, case.params, step=case.step, tolerance=case.tolerance,
            rng=np.random.default_rng(10), max_coords_per_param=2,
        )
        assert report.passed, report.summary()


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
