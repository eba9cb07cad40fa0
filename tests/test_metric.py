import numpy as np
import numpy.testing as npt
import pytest

from ta2n import autodiff as ad
from ta2n import metric
from ta2n.autodiff import Parameter, Tape
from ta2n.metric import classify, cross_entropy_loss, frame_cosine_distance
from ta2n.model import AlignmentModel, ModelConfig
from ta2n.synth import Episode, VideoFeature


def classify_one(query, prototypes):
    """Classification of one query representation against every prototype."""
    return classify([(p, query) for p in prototypes])


def prototype_model(**kw):
    """A small model without the TTM, so each (6, 8, 5, 5) shot reaches the
    prototype unchanged (the embedder starts as the identity)."""
    return AlignmentModel(ModelConfig(
        channels=6, frames=8, height=5, width=5, proj_dim=6,
        ttm_hidden=8, offset_channels=(8, 8), offset_hidden=8, use_ttm=False, **kw,
    ))


def prototypes(model, monkeypatch, shots_per_class):
    """The class prototypes ``episode_forward`` builds from per-class lists of shot features.

    They are read where stage two receives them, as one (C, N, T, H, W) block.
    """
    seen = []
    stage_two = AlignmentModel._stage_two

    def spy(self, tape, prototype_block, *rest):
        seen.extend(np.moveaxis(prototype_block.value, 1, 0))
        return stage_two(self, tape, prototype_block, *rest)

    def video(feature):
        return VideoFeature(feature, 0, 0.0, 1.0, np.zeros((8, 2)), 0, np.linspace(0.0, 1.0, 5))

    monkeypatch.setattr(AlignmentModel, "_stage_two", spy)
    support = [[video(f) for f in shots] for shots in shots_per_class]
    query = video(np.ones((6, 8, 5, 5)))
    episode = Episode(support, [query], [0], list(range(len(support))))
    model.episode_forward(Tape(grad=False), episode, training=False)
    return seen


def dist(f, p):
    tape = Tape(grad=False)
    return float(frame_cosine_distance(tape.const(f), tape.const(p)).value)


class TestFrameCosineDistance:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((6, 8)) + 0.1
        npt.assert_allclose(dist(f, f), 0.0, atol=1e-9)

    def test_orthogonal_frames_give_t(self):
        t_len = 8
        f = np.zeros((4, t_len))
        p = np.zeros((4, t_len))
        f[0], p[1] = 1.0, 1.0
        npt.assert_allclose(dist(f, p), t_len, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for alpha in (0.01, 0.5, 3.0, 250.0):
            f = rng.standard_normal((5, 6))
            p = rng.standard_normal((5, 6))
            npt.assert_allclose(dist(alpha * f, p), dist(f, p), atol=1e-8)

    def test_range_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = rng.standard_normal((4, 7))
            p = rng.standard_normal((4, 7))
            d = dist(f, p)
            assert -1e-9 <= d <= 14.0 + 1e-9

    def test_shape_mismatch(self):
        tape = Tape(grad=False)
        with pytest.raises(ValueError):
            frame_cosine_distance(tape.const(np.zeros((4, 5))), tape.const(np.zeros((4, 6))))


class TestBuildPrototype:
    """K-shot fusion as the pipeline runs it, through ``AlignmentModel.episode_forward``."""

    def test_single_shot_is_identity(self, monkeypatch):
        rng = np.random.default_rng(3)
        shots = [[rng.standard_normal((6, 8, 5, 5))] for _ in range(2)]
        for proto, [shot] in zip(prototypes(prototype_model(), monkeypatch, shots), shots):
            npt.assert_array_equal(proto, shot)

    def test_identical_constant_in_time_features_preserved(self, monkeypatch):
        frame = np.random.default_rng(4).standard_normal(6)
        f = np.broadcast_to(frame[:, None, None, None], (6, 8, 5, 5)).copy()
        protos = prototypes(prototype_model(), monkeypatch, [[f] * 3, [-f] * 3])
        npt.assert_allclose(protos[0], f, atol=1e-9)

    @pytest.mark.parametrize("use_tc", [False, True])
    def test_plain_average_of_the_shots(self, monkeypatch, use_tc):
        shots = [[np.full((6, 8, 5, 5), v) for v in (1.0, 3.0)], [np.zeros((6, 8, 5, 5))] * 2]
        protos = prototypes(prototype_model(use_tc=use_tc), monkeypatch, shots)
        npt.assert_allclose(protos[0], np.full((6, 8, 5, 5), 2.0))

    def test_empty_errors(self, monkeypatch):
        with pytest.raises(ValueError, match="at least one"):
            prototypes(prototype_model(), monkeypatch, [[], []])


class TestClassify:
    def test_equal_distances_uniform(self):
        tape = Tape(grad=False)
        q = tape.const(np.ones((3, 4)))
        protos = [tape.const(np.ones((3, 4))) for _ in range(5)]
        probs = classify_one(q, protos)
        npt.assert_allclose(probs.value, np.full(5, 0.2), atol=1e-12)

    def test_matching_prototype_hand_value(self):
        # query equals prototype 0 (distance 0); 4 others per-frame
        # orthogonal (distance T=8): P = 1 / (1 + 4 e^-8) = 0.99866
        t_len = 8
        q = np.zeros((5, t_len))
        q[0] = 1.0
        tape = Tape(grad=False)
        protos = [tape.const(q)]
        for i in range(4):
            other = np.zeros((5, t_len))
            other[i + 1] = 1.0
            protos.append(tape.const(other))
        probs = classify_one(tape.const(q), protos)
        npt.assert_allclose(probs.value[0], 0.99866, atol=5e-6)
        assert probs.value.argmax() == 0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            tape = Tape(grad=False)
            q = tape.const(rng.standard_normal((4, 6)))
            protos = [tape.const(rng.standard_normal((4, 6))) for _ in range(5)]
            probs = classify_one(q, protos)
            npt.assert_allclose(probs.value.sum(), 1.0, atol=1e-9)
            assert probs.value.min() >= 0.0

    def test_query_aligned_per_class(self):
        # each class compares its own representation of the query
        rng = np.random.default_rng(11)
        pairs = [(rng.standard_normal((4, 6)), rng.standard_normal((4, 6))) for _ in range(3)]
        tape = Tape(grad=False)
        probs = classify([(tape.const(p), tape.const(q)) for p, q in pairs])
        e = np.exp([-dist(q, p) for p, q in pairs])
        npt.assert_allclose(probs.value, e / e.sum(), rtol=1e-14)

    def test_needs_two_prototypes(self):
        tape = Tape(grad=False)
        with pytest.raises(ValueError):
            classify_one(tape.const(np.ones((2, 2))), [tape.const(np.ones((2, 2)))])

    def test_shared_positive_rescale_keeps_prediction(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((4, 6))
        protos = [rng.standard_normal((4, 6)) for _ in range(4)]
        tape = Tape(grad=False)
        p1 = classify_one(tape.const(q), [tape.const(p) for p in protos])
        p2 = classify_one(tape.const(5.5 * q), [tape.const(5.5 * p) for p in protos])
        npt.assert_allclose(p1.value, p2.value, atol=1e-8)
        assert p1.value.argmax() == p2.value.argmax()


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        tape = Tape(grad=False)
        f = np.zeros((3, 4))
        f[0] = 1.0
        away = np.zeros((3, 4))
        away[1] = 1.0
        probs = classify_one(tape.const(f), [tape.const(f), tape.const(away)])
        loss = cross_entropy_loss([probs], [0])
        assert float(loss.value) < 0.02  # e^-4 tail from the single distractor

    def test_uniform_prediction_ln_n(self):
        tape = Tape(grad=False)
        q = tape.const(np.ones((3, 4)))
        protos = [tape.const(np.ones((3, 4))) for _ in range(5)]
        probs = classify_one(q, protos)
        loss = cross_entropy_loss([probs], [3])
        npt.assert_allclose(float(loss.value), np.log(5.0), atol=1e-9)

    def test_nonnegative_and_sums_queries(self):
        rng = np.random.default_rng(8)
        tape = Tape(grad=False)
        all_probs, labels = [], []
        for i in range(6):
            q = tape.const(rng.standard_normal((4, 5)))
            protos = [tape.const(rng.standard_normal((4, 5))) for _ in range(3)]
            probs = classify_one(q, protos)
            all_probs.append(probs)
            labels.append(i % 3)
        loss = cross_entropy_loss(all_probs, labels)
        assert float(loss.value) >= 0.0
        singles = sum(float(metric.nll_from_probs(p, l).value) for p, l in zip(all_probs, labels))
        npt.assert_allclose(float(loss.value), singles, atol=1e-12)

    def test_label_out_of_range(self):
        tape = Tape(grad=False)
        q = tape.const(np.ones((2, 2)))
        probs = classify_one(q, [tape.const(np.ones((2, 2))), tape.const(np.ones((2, 2)))])
        with pytest.raises(ValueError):
            cross_entropy_loss([probs], [2])

    def test_gradients_through_whole_head(self):
        rng = np.random.default_rng(9)
        q = Parameter(rng.standard_normal((4, 6)), "q")
        p0 = Parameter(rng.standard_normal((4, 6)), "p0")
        p1 = Parameter(rng.standard_normal((4, 6)), "p1")
        p2 = Parameter(rng.standard_normal((4, 6)), "p2")

        def build(tape):
            probs = classify_one(
                tape.param(q), [tape.param(p0), tape.param(p1), tape.param(p2)]
            )
            return cross_entropy_loss([probs], [1])

        report = ad.finite_diff_gradcheck(
            build, [q, p0, p1, p2], step=1e-4, tolerance=1e-4,
            rng=np.random.default_rng(10),
        )
        assert report.passed, report.summary()
