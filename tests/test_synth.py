from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ta2n import container, synth
from ta2n.container import (
    BadMagicError,
    ContainerError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from ta2n.synth import (
    Dataset,
    MisalignmentConfig,
    generate_dataset,
    load_dataset,
    sample_episode,
    save_dataset,
)

from container_bytes import write_unchecked
from oracles import noise_free_signals

DIMS = (6, 8, 7, 7)


def small_dataset(config=None, seed=11, classes=8, per_class=4):
    return generate_dataset(classes, per_class, DIMS, config or MisalignmentConfig(), seed)


def dataset_equal(a: Dataset, b: Dataset) -> bool:
    if (a.dims(), a.num_classes, a.seed, a.config) != (b.dims(), b.num_classes, b.seed, b.config):
        return False
    if len(a.videos) != len(b.videos):
        return False
    for va, vb in zip(a.videos, b.videos):
        if va.label != vb.label:
            return False
        if (va.start, va.end) != (vb.start, vb.end):
            return False
        if not (
            np.array_equal(va.centers, vb.centers)
            and np.array_equal(va.warp_knots, vb.warp_knots)
            and np.array_equal(va.feature, vb.feature)
        ):
            return False
    return True


class TestGeneration:
    def test_deterministic(self):
        a = small_dataset(MisalignmentConfig(0.5, 1.0, 2.0, 0.3))
        b = small_dataset(MisalignmentConfig(0.5, 1.0, 2.0, 0.3))
        assert dataset_equal(a, b)

    def test_zero_config_full_interval_and_centred(self):
        ds = small_dataset(MisalignmentConfig(0, 0, 0, 0.1))
        for v in ds.videos:
            assert (v.start, v.end) == (0.0, 1.0)
            npt.assert_array_equal(v.centers, np.full((8, 2), 3.0))
            npt.assert_allclose(v.warp_knots, np.linspace(0, 1, 5))

    def test_zero_config_same_class_signals_identical(self):
        ds = small_dataset(MisalignmentConfig(0, 0, 0, 0.2))
        vids = ds.videos_of_class(3)
        sig_a, sig_b = noise_free_signals(ds, vids[:2])
        cos = (sig_a * sig_b).sum() / (np.linalg.norm(sig_a) * np.linalg.norm(sig_b))
        npt.assert_allclose(cos, 1.0, atol=1e-12)
        npt.assert_allclose(sig_a, sig_b, atol=1e-12)
        # the stored features still differ by their independent noise draws
        assert not np.array_equal(vids[0].feature, vids[1].feature)

    def test_start_variance_monotone_in_duration_jitter(self):
        variances = []
        for dj in (0.0, 0.25, 0.5):
            ds = generate_dataset(8, 10, DIMS, MisalignmentConfig(duration_jitter=dj), seed=5)
            variances.append(np.var([v.start for v in ds.videos]))
        assert variances[0] < variances[1] < variances[2]
        assert variances[0] == 0.0

    def test_splits_disjoint_and_cover(self):
        ds = small_dataset()
        train, val, test = (set(ds.split_classes(s)) for s in ("train", "val", "test"))
        assert train & val == set() and train & test == set() and val & test == set()
        assert train | val | test == set(range(ds.num_classes))

    def test_class_signatures_distinct(self):
        sigs = synth.make_class_signatures(10, 6, seed=3)
        for i in range(10):
            for j in range(i + 1, 10):
                a = sigs[i].signature.ravel()
                b = sigs[j].signature.ravel()
                cos = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert cos < synth.SIGNATURE_COSINE_CEILING

    def test_interval_invariant(self):
        ds = small_dataset(MisalignmentConfig(duration_jitter=1.0), seed=9)
        for v in ds.videos:
            assert 0.0 <= v.start < v.end <= 1.0
            assert np.all(v.centers[:, 0] >= 0) and np.all(v.centers[:, 0] <= 6)

    def test_template_too_large_errors(self):
        with pytest.raises(ValueError):
            generate_dataset(6, 2, (4, 8, 2, 2), MisalignmentConfig(), 0)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            generate_dataset(5, 2, DIMS, MisalignmentConfig(), 0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(8, 2, DIMS, MisalignmentConfig(duration_jitter=1.5), 0)

    @pytest.mark.parametrize(
        "field", ["duration_jitter", "evolution_severity", "spatial_jitter", "background_noise_scale"]
    )
    @pytest.mark.parametrize("value, rule", [
        *[pytest.param(v, "finite and non-negative", id=str(v)) for v in (np.nan, np.inf, -np.inf, -0.5)],
        *[pytest.param(v, "a real number", id=str(v)) for v in (True, "0.1", None)],
    ])
    def test_non_finite_or_negative_config_rejected(self, field, value, rule):
        # NaN and inf used to pass: evolution_severity=nan and spatial_jitter=inf
        # overflowed deep inside generation, and background_noise_scale=nan
        # generated a non-finite dataset that load_dataset rejects; a bool
        # passed as a number, and a string or None raised TypeError
        config = MisalignmentConfig(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be {rule}"):
            config.validate()
        with pytest.raises(ValueError, match=field):
            generate_dataset(8, 2, DIMS, config, 0)

    def test_evolution_warps_identity_at_zero_severity(self):
        ds = small_dataset(MisalignmentConfig(evolution_severity=0.0))
        for v in ds.videos:
            npt.assert_array_equal(v.warp_knots, np.linspace(0, 1, synth.WARP_KNOTS + 2))

    def test_warp_slopes_bounded(self):
        ds = small_dataset(MisalignmentConfig(evolution_severity=1.0), seed=21)
        for v in ds.videos:
            slopes = np.diff(v.warp_knots) * (len(v.warp_knots) - 1)
            assert np.all(slopes >= 1 / 2 - 1e-9) and np.all(slopes <= 2 + 1e-9)


class TestRender:
    """The actor render, on noise-free videos whose ground truth is edited."""

    @pytest.fixture(scope="class")
    def quiet(self):
        ds = small_dataset(MisalignmentConfig(0, 0, 0, 0.0), classes=6, per_class=1)
        return ds, synth.make_class_signatures(ds.num_classes, ds.channels, ds.seed)

    @staticmethod
    def render(ds, video, **truth):
        edited = replace(video, **truth)
        [signal] = noise_free_signals(ds, [edited])
        return signal

    @staticmethod
    def first_patch(sigs, video):
        # frame 0 sits at the action start, where the signature is read at index 0
        sig = sigs[video.label]
        return sig.signature[:, 0, None, None] * sig.template

    def test_integral_centre_holds_the_patch_alone(self, quiet):
        ds, sigs = quiet
        v = ds.videos[2]
        npt.assert_array_equal(v.centers[0], [3.0, 3.0])
        npt.assert_array_equal(noise_free_signals(ds, [v])[0], v.feature)
        want = np.zeros(DIMS[:1] + DIMS[2:])
        want[:, 2:5, 2:5] = self.first_patch(sigs, v)
        npt.assert_array_equal(v.feature[:, 0], want)

    def test_signals_of_a_dataset_build_the_signatures_once(self, monkeypatch):
        # without noise a video's feature is its actor signal, bit for bit
        ds = small_dataset(MisalignmentConfig(0.5, 0.8, 1.0, 0.0))
        calls = []
        build = synth.make_class_signatures

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(synth, "make_class_signatures", counted)
        signals = noise_free_signals(ds, ds.videos)
        assert len(calls) == 1 and len(signals) == len(ds.videos) == 32
        for signal, v in zip(signals, ds.videos):
            npt.assert_array_equal(signal, v.feature)

    @pytest.mark.parametrize("centre, shifted", [
        ((3.5, 3.0), (slice(2, 5), slice(3, 6))),
        ((3.0, 2.5), (slice(1, 4), slice(2, 5))),
    ], ids=["x", "y"])
    def test_half_cell_centre_splits_each_cell(self, quiet, centre, shifted):
        ds, sigs = quiet
        v = ds.videos[1]
        centers = v.centers.copy()
        centers[0] = centre
        frame = self.render(ds, v, centers=centers)[:, 0]
        patch = self.first_patch(sigs, v)
        want = np.zeros_like(frame)
        want[:, 2:5, 2:5] += 0.5 * patch
        want[(slice(None), *shifted)] += 0.5 * patch
        npt.assert_allclose(frame, want, rtol=1e-15, atol=0)

    def test_border_centre_keeps_the_in_grid_part(self, quiet):
        ds, sigs = quiet
        v = ds.videos[3]
        centers = v.centers.copy()
        centers[0] = (0.0, 6.0)  # (x, y): the left column and bottom row fall off
        frame = self.render(ds, v, centers=centers)[:, 0]
        want = np.zeros_like(frame)
        want[:, 5:7, 0:2] = self.first_patch(sigs, v)[:, 0:2, 1:3]
        npt.assert_array_equal(frame, want)

    def test_frames_outside_the_action_are_zero(self):
        ds = small_dataset(MisalignmentConfig(1.0, 0.5, 1.0, 0.0), seed=9)
        t_norm = np.arange(DIMS[1]) / (DIMS[1] - 1)
        outside_seen = 0
        for v in ds.videos:
            outside = (t_norm < v.start) | (t_norm > v.end)
            assert not np.any(v.feature[:, outside])
            assert np.all(np.any(v.feature[:, ~outside] != 0.0, axis=(0, 2, 3)))
            outside_seen += outside.sum()
        assert outside_seen > 0


class TestEpisodes:
    def test_counts_and_distinctness(self):
        ds = small_dataset(per_class=6)
        ep = sample_episode(ds, "train", n_way=3, k_shot=1, n_query=1, seed=0)
        ids = [id(v) for row in ep.support for v in row] + [id(v) for v in ep.query]
        assert len(ids) == 6 and len(set(ids)) == 6

    def test_five_way_five_shot(self):
        ds = generate_dataset(12, 12, DIMS, MisalignmentConfig(), seed=2)
        ep = sample_episode(ds, "train", n_way=5, k_shot=5, n_query=5, seed=1)
        assert sum(len(r) for r in ep.support) == 25
        assert len(ep.query) == 25

    def test_labels_reindexed(self):
        ds = small_dataset(per_class=5)
        ep = sample_episode(ds, "test", n_way=2, k_shot=2, n_query=2, seed=3)
        assert set(ep.query_labels) <= {0, 1}
        for lbl, class_id in enumerate(ep.class_ids):
            for v in ep.support[lbl]:
                assert v.label == class_id

    def test_support_query_disjoint(self):
        ds = small_dataset(per_class=6)
        for seed in range(10):
            ep = sample_episode(ds, "train", 3, 2, 2, seed)
            support_ids = {id(v) for row in ep.support for v in row}
            assert support_ids.isdisjoint({id(v) for v in ep.query})

    def test_deterministic(self):
        ds = small_dataset(per_class=6)
        e1 = sample_episode(ds, "train", 3, 1, 2, 42)
        e2 = sample_episode(ds, "train", 3, 1, 2, 42)
        assert e1.class_ids == e2.class_ids
        assert [id(v) for v in e1.query] == [id(v) for v in e2.query]

    def test_insufficient_resources(self):
        ds = small_dataset(per_class=3)
        with pytest.raises(ValueError):
            sample_episode(ds, "val", n_way=5, k_shot=1, n_query=1, seed=0)
        with pytest.raises(ValueError):
            sample_episode(ds, "train", n_way=2, k_shot=2, n_query=2, seed=0)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small_dataset(MisalignmentConfig(0.5, 1.0, 2.0, 0.3), seed=77)
        path = tmp_path / "data.ta2n"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert dataset_equal(ds, loaded)
        assert not (tmp_path / "data.ta2n.tmp").exists()

    def test_round_trip_without_videos(self, tmp_path):
        ds = small_dataset(per_class=0)
        path = tmp_path / "data.ta2n"
        save_dataset(ds, path)
        assert dataset_equal(ds, load_dataset(path))

    @pytest.mark.parametrize("dims", [
        pytest.param((4, 0, 5, 5), id="zero_frames"),
        pytest.param((0, 4, 5, 5), id="zero_channels"),
        pytest.param((4, 4, 2, 2), id="grid_below_template"),
    ])
    def test_dims_that_generation_rejects_do_not_load(self, tmp_path, dims):
        # a well-formed file without videos, whose dims generate_dataset refuses
        with pytest.raises(ValueError):
            generate_dataset(8, 1, dims, MisalignmentConfig(), seed=0)
        path = tmp_path / "data.ta2n"
        save_dataset(Dataset(*dims, num_classes=8, config=MisalignmentConfig(), seed=0), path)
        with pytest.raises(ContainerError, match="meta"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.ta2n"
        save_dataset(small_dataset(), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(BadMagicError):
            load_dataset(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "data.ta2n"
        save_dataset(small_dataset(), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(raw)
        with pytest.raises(UnsupportedVersionError):
            load_dataset(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "data.ta2n"
        save_dataset(small_dataset(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedFileError):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.ta2n")

    def test_no_partial_file_on_failure(self, tmp_path):
        ds = small_dataset()
        missing = tmp_path / "no_such_dir" / "data.ta2n"
        with pytest.raises(FileNotFoundError):
            save_dataset(ds, missing)
        assert not missing.exists()

    @pytest.mark.parametrize("meta_update, edit, match", [
        pytest.param({"config": {"duration_jitter": 5.0}}, None, "meta", id="jitter_above_1"),
        pytest.param({"config": {"spatial_jitter": True}}, None, "meta.*spatial_jitter", id="bool_config_field"),
        pytest.param({"num_classes": 5}, None, "meta.*at least 6 classes", id="too_few_classes"),
        pytest.param({"seed": -1}, None, "meta.*seed", id="negative_seed"),
        pytest.param({"seed": "3"}, None, "meta.*seed", id="string_seed"),
        pytest.param({"num_classes": 6.7}, None, "meta.*num_classes", id="fractional_num_classes"),
        pytest.param({}, ("labels", 0, 6.0), "labels", id="label_too_large"),
        pytest.param({}, ("labels", 0, -1.0), "labels", id="label_negative"),
        pytest.param({}, ("labels", 0, 0.5), "labels", id="label_not_integer"),
        pytest.param({}, ("spans", 0, (0.5, 0.5)), "spans", id="span_empty"),
        pytest.param({}, ("spans", 0, (0.6, 0.4)), "spans", id="span_reversed"),
        pytest.param({}, ("spans", 0, (-0.1, 0.5)), "spans", id="span_before_clip"),
        pytest.param({}, ("spans", 0, (0.5, 1.1)), "spans", id="span_after_clip"),
        pytest.param({}, ("centers", (0, 0, 0), -0.1), "centres", id="centre_x_negative"),
        pytest.param({}, ("centers", (0, 0, 0), 6.1), "centres", id="centre_x_beyond_grid"),
        pytest.param({}, ("centers", (0, 0, 1), 6.1), "centres", id="centre_y_beyond_grid"),
        pytest.param({}, ("centers", (0, 0, 1), np.nan), "finite", id="centre_nan"),
        pytest.param({}, ("spans", (0, 1), np.inf), "finite", id="span_inf"),
        pytest.param({}, ("features", (0, 0, 0, 0, 0), np.nan), "finite", id="feature_nan"),
        pytest.param({}, ("warp_knots", (0, 1), -np.inf), "finite", id="knot_inf"),
        pytest.param({}, ("warp_knots", 0, [0.0, 0.9, 0.2, 0.5, 1.0]), "warp knots", id="knots_not_monotone"),
        pytest.param({}, ("warp_knots", 1, [0.3, 0.4, 0.5, 0.6, 0.7]), "warp knots", id="knots_not_onto"),
        pytest.param(
            {"config": {"evolution_severity": 1.0}}, ("warp_knots", 0, [0.0, 0.1, 0.2, 0.3, 1.0]),
            "warp knots", id="knot_slopes_beyond_s",
        ),
    ])
    def test_invalid_meta_raises_container_error(self, tmp_path, meta_update, edit, match):
        # generate_dataset rejects or never writes each of these; a file must not bring them in either
        path = tmp_path / "data.ta2n"
        save_dataset(small_dataset(classes=6, per_class=1), path)
        meta, arrays = container.load(path, container.DATASET)
        assert meta["num_classes"] == 6 and DIMS[2:] == (7, 7)
        if edit is not None:
            name, index, value = edit
            arrays[name][index] = value
        write_unchecked(path, container.DATASET, {**meta, **meta_update}, arrays)
        with pytest.raises(ContainerError, match=match):
            load_dataset(path)
