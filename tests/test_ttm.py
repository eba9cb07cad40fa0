import numpy as np
import numpy.testing as npt
import pytest

from ta2n import autodiff as ad
from ta2n import ttm
from ta2n.autodiff import Parameter, Tape
from ta2n.ttm import LocalizationNet

from gradcheck import finite_diff_gradcheck


def warp(feature, scale, shift):
    """Forward-only run of the pipeline's warp with fixed parameters."""
    tape = Tape(grad=False)
    out = ttm.temporal_affine_warp(tape.const(feature), tape.const(scale), tape.const(shift))
    return out.value


def ramp_feature(values):
    """C=1, H=W=1 sequence with the given per-frame scalar values."""
    v = np.asarray(values, dtype=float)
    return v.reshape(1, -1, 1, 1)


class TestLocalize:
    def test_init_head_gives_near_identity_warp(self):
        rng = np.random.default_rng(0)
        net = LocalizationNet(channels=4, hidden=32, rng=rng)
        tape = Tape(grad=False)
        f = tape.const(rng.standard_normal((5, 4, 8, 5, 5)))
        scale, shift = ttm.localize(net, tape, f)
        assert scale.shape == shift.shape == (5,)
        npt.assert_allclose(scale.value, 0.9, rtol=1e-14)
        npt.assert_allclose(shift.value, 0.05, rtol=1e-13)

    def test_raw_to_params_hand_case(self):
        # raw (0, 0): scale 0.25 + 0.75*sigmoid(0) = 0.625, shift sigmoid(0)*(1-0.625)
        tape = Tape(grad=False)
        scale, shift = ttm.warp_from_raw(tape.const([0.0, 0.0]))
        npt.assert_allclose(float(scale.value), 0.625)
        npt.assert_allclose(float(shift.value), 0.1875)

    @pytest.mark.parametrize(
        "raw_scale", [-6.0, 0.0, ttm.INIT_SCALE_LOGIT, 6.0], ids=["low", "zero", "init", "high"]
    )
    def test_both_raw_outputs_have_gradient(self, raw_scale):
        # the scale map is smooth and strictly increasing and 1 - scale never
        # reaches 0, so the shift's gradient reaches both raw outputs everywhere
        raw = Parameter(np.array([raw_scale, 0.3]), "raw")
        tape = Tape()
        _, shift = ttm.warp_from_raw(tape.param(raw))
        tape.backward(shift)
        assert np.all(raw.grad != 0.0)

    def test_params_always_valid(self):
        tape = Tape(grad=False)
        raw = tape.const(np.random.default_rng(1).standard_normal((200, 2)) * 5)
        scale, shift = ttm.warp_from_raw(raw)
        assert scale.shape == shift.shape == (200,)
        assert np.all((ttm.MIN_DURATION_SCALE <= scale.value) & (scale.value <= 1.0))
        assert np.all((0.0 <= shift.value) & (shift.value <= 1.0 - scale.value))

    def test_wrong_rank(self):
        net = LocalizationNet(channels=4, hidden=32, rng=np.random.default_rng(0))
        tape = Tape(grad=False)
        for shape in ((4, 8, 5), (4, 8, 5, 5)):  # one video still needs its batch axis
            with pytest.raises(ValueError):
                ttm.localize(net, tape, tape.const(np.zeros(shape)))


class TestWarp:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((3, 8, 4, 4))
        out = warp(f, 1.0, 0.0)
        npt.assert_array_equal(out, f)

    def test_hand_case_zoom(self):
        out = warp(ramp_feature([0.0, 1.0, 2.0, 3.0]), 0.5, 0.0)
        npt.assert_allclose(out.ravel(), [0.0, 0.5, 1.0, 1.5])

    def test_hand_case_zoom_with_shift(self):
        out = warp(ramp_feature([0.0, 1.0, 2.0, 3.0]), 0.5, 0.5)
        npt.assert_allclose(out.ravel(), [1.5, 2.0, 2.5, 3.0])

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal((2, 6, 3, 3))
            scale = rng.uniform(0.25, 1.0)
            shift = rng.uniform(0.0, 1.0 - scale)
            out = warp(f, scale, shift)
            assert out.min() >= f.min() - 1e-12
            assert out.max() <= f.max() + 1e-12

    def test_out_of_range_params_error(self):
        f = np.zeros((1, 4, 1, 1))
        for scale, shift in ((0.1, 0.0), (1.2, 0.0), (0.5, 0.6)):
            with pytest.raises(ValueError):
                warp(f, scale, shift)

    def test_warps_match_the_batch(self):
        # one warp per video: a scalar or (1,) warp is not broadcast over a block
        tape = Tape(grad=False)
        f = tape.const(np.zeros((2, 3, 6, 2, 2)))
        for shape in ((), (1,), (3,)):
            scale, shift = tape.const(np.full(shape, 0.5)), tape.const(np.full(shape, 0.1))
            with pytest.raises(ValueError, match="batch-shaped"):
                ttm.temporal_affine_warp(f, scale, shift)
        with pytest.raises(ValueError, match="batch-shaped"):
            ttm.temporal_affine_warp(f, tape.const([0.5, 0.5]), tape.const(0.1))
        out = ttm.temporal_affine_warp(f, tape.const([0.5, 0.5]), tape.const([0.1, 0.2]))
        assert out.shape == f.shape

    def test_composition(self):
        # time-affine features make linear interpolation exact, so two warps
        # in a row equal one warp whose window is the second inside the first
        rng = np.random.default_rng(4)
        for _ in range(50):
            slope = rng.standard_normal((3, 1, 2, 2))
            base = rng.standard_normal((3, 1, 2, 2))
            f = base + slope * np.arange(6.0).reshape(1, 6, 1, 1)
            s1, s2 = rng.uniform(0.5, 1.0, 2)
            t1, t2 = rng.uniform(0.0, 1.0 - s1), rng.uniform(0.0, 1.0 - s2)
            two_step = warp(warp(f, s1, t1), s2, t2)
            npt.assert_allclose(two_step, warp(f, s1 * s2, t1 + s1 * t2), atol=1e-6)

    def test_gradients_wrt_params_and_feature(self):
        rng = np.random.default_rng(5)
        feat = Parameter(rng.standard_normal((1, 2, 6, 3, 3)), "feat")
        net = LocalizationNet(channels=2, hidden=32, rng=rng)
        # head weights off zero, which would give the conv a zero gradient
        # that passes any check, and the bias to a shorter window, with source
        # positions away from integers
        net.head_w.value[:] = np.random.default_rng(7).normal(0, 0.05, net.head_w.shape)
        net.head_b.value[:] = [-0.41, 0.13]

        def build(tape):
            f = tape.param(feat)
            scale, shift = ttm.localize(net, tape, f)
            out = ttm.temporal_affine_warp(f, scale, shift)
            w = tape.const(np.random.default_rng(99).standard_normal(out.value.shape))
            return ad.reduce_sum(ad.mul(out, w))

        report = finite_diff_gradcheck(
            build, [feat, *net.parameters()], step=1e-4, tolerance=1e-4,
            rng=np.random.default_rng(6),
        )
        assert report.passed, report.summary()
        assert np.abs(net.conv_w.grad).max() > 0.0 and np.abs(net.conv_b.grad).max() > 0.0


    def test_block_equals_single_videos(self):
        # a block of six videos through localize + warp: each video's output
        # and input gradient match its own one-video block, and the parameter
        # gradients match the sum over the one-video runs
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((6, 2, 6, 3, 3))
        weights = rng.standard_normal(feats.shape)
        net = LocalizationNet(channels=2, hidden=8, rng=rng)
        net.head_w.value[:] = rng.normal(0.0, 0.3, net.head_w.shape)

        def run(feature, weight):
            f = Parameter(feature, "f")
            for p in net.parameters():
                p.zero_grad()
            tape = Tape()
            fv = tape.param(f)
            out = ttm.temporal_affine_warp(fv, *ttm.localize(net, tape, fv))
            tape.backward(ad.reduce_sum(ad.mul(out, tape.const(weight))))
            return out.value, f.grad, [p.grad.copy() for p in net.parameters()]

        out, grad, param_grads = run(feats, weights)
        totals = [np.zeros_like(g) for g in param_grads]
        for i in range(6):
            sel = slice(i, i + 1)
            one_out, one_grad, one_params = run(feats[sel], weights[sel])
            npt.assert_allclose(out[sel], one_out, rtol=0, atol=1e-12)
            npt.assert_allclose(grad[sel], one_grad, rtol=0, atol=1e-12)
            totals = [t + g for t, g in zip(totals, one_params)]
        for g, t in zip(param_grads, totals):
            npt.assert_allclose(g, t, rtol=0, atol=1e-12)
            assert np.abs(g).max() > 0.0


class TestWarpParams:
    """The composition algebra of warp windows, on the pipeline's warp."""

    def test_compose_algebra(self):
        # window (0.8, 0.1) inside window (0.5, 0.2) is window (0.4, 0.25)
        f = ramp_feature(np.arange(11.0))
        npt.assert_allclose(warp(warp(f, 0.5, 0.2), 0.8, 0.1), warp(f, 0.4, 0.25), atol=1e-12)

    def test_identity_compose_neutral(self):
        f = np.random.default_rng(7).standard_normal((2, 6, 3, 3))
        once = warp(f, 0.6, 0.3)
        npt.assert_array_equal(warp(warp(f, 0.6, 0.3), 1.0, 0.0), once)
        npt.assert_array_equal(warp(warp(f, 1.0, 0.0), 0.6, 0.3), once)
