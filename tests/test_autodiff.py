import weakref

import numpy as np
import numpy.testing as npt
import pytest

from ta2n import autodiff as ad
from ta2n.autodiff import Parameter, Tape

from gradcheck import finite_diff_gradcheck
from oracles import batchnorm_channels, concat, max_pool_spatial2


def scalarize(tape, v, rng):
    """Project an output to a scalar with a fixed random weighting."""
    w = tape.const(rng.standard_normal(v.value.shape))
    return ad.reduce_sum(ad.mul(v, w))


def check_op(build, params, seed=0, tol=1e-6, step=1e-5):
    report = finite_diff_gradcheck(
        build, params, step=step, tolerance=tol, rng=np.random.default_rng(seed)
    )
    assert report.passed, report.summary()
    return report


class TestSoftmax:
    def test_equal_logits_uniform(self):
        t = Tape(grad=False)
        out = ad.softmax(t.const([0.0, 0.0, 0.0, 0.0]), axis=0)
        npt.assert_allclose(out.value, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        t = Tape(grad=False)
        a = ad.softmax(t.const(x), axis=1)
        b = ad.softmax(t.const(x + 13.25), axis=1)
        npt.assert_allclose(a.value, b.value, atol=1e-12)

    def test_hand_exponentials(self):
        # logits ln1, ln2, ln3 -> probabilities 1/6, 2/6, 3/6
        t = Tape(grad=False)
        out = ad.softmax(t.const([np.log(1.0), np.log(2.0), np.log(3.0)]), axis=0)
        npt.assert_allclose(out.value, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal((5, 9)) * rng.uniform(0.1, 50)
            t = Tape(grad=False)
            out = ad.softmax(t.const(x), axis=1).value
            npt.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-9)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_invalid_axis(self):
        t = Tape(grad=False)
        with pytest.raises(ValueError):
            ad.softmax(t.const(np.zeros((2, 3))), axis=2)

    def test_empty_axis(self):
        t = Tape(grad=False)
        with pytest.raises(ValueError):
            ad.softmax(t.const(np.zeros((2, 0))), axis=1)


class TestPooling:
    # the spatial mean of every C,T,H,W map is reduce_mean over the last two axes

    def test_gap_constant(self):
        t = Tape(grad=False)
        f = t.const(np.full((3, 4, 5, 5), 2.5))
        npt.assert_allclose(ad.reduce_mean(f, axis=(-2, -1)).value, np.full((3, 4), 2.5))

    def test_gap_hand_mean(self):
        t = Tape(grad=False)
        f = t.const(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        npt.assert_allclose(ad.reduce_mean(f, axis=(-2, -1)).value, [[2.5]])

    def test_gap_identity_on_1x1(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6, 1, 1))
        t = Tape(grad=False)
        npt.assert_array_equal(ad.reduce_mean(t.const(x), axis=(-2, -1)).value, x[:, :, 0, 0])

    def test_max_pool_routes_ties_to_the_first_maximum(self):
        # per 2x2 window of two 5x5 frames: its values in row-major order and
        # the (row, col) of its first maximal element; 0.0 and -0.0 tie
        windows = [
            [([1.0, 3.0, 3.0, 2.0], (0, 1)),  # 2-way
             ([-1.0, -1.0, -2.0, -1.0], (0, 0)),  # 3-way
             ([7.0, 7.0, 7.0, 7.0], (0, 0)),  # 4-way
             ([-3.0, 0.0, -0.0, -5.0], (0, 1))],
            [([-0.0, 0.0, -1.0, -1.0], (0, 0)),
             ([0.0, 1.0, 2.0, 2.0], (1, 0)),
             ([5.0, 4.0, 5.0, 5.0], (0, 0)),
             ([-2.0, -1.0, -1.0, -1.0], (0, 1))],
        ]
        x = np.full((1, 1, 2, 5, 5), 100.0)  # the dropped row and column hold the largest values
        g = np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2)
        want_out = np.zeros(g.shape)
        want_grad = np.zeros(x.shape)
        for t, frame in enumerate(windows):
            for k, (values, (di, dj)) in enumerate(frame):
                i, j = divmod(k, 2)
                x[0, 0, t, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = np.reshape(values, (2, 2))
                want_out[0, 0, t, i, j] = max(values)
                want_grad[0, 0, t, 2 * i + di, 2 * j + dj] = g[0, 0, t, i, j]
        p = Parameter(x, "x")
        tape = Tape()
        out = max_pool_spatial2(tape.param(p))
        npt.assert_array_equal(out.value, want_out)
        tape.backward(ad.reduce_sum(ad.mul(out, tape.const(g))))
        npt.assert_array_equal(p.grad, want_grad)
        assert not p.grad[..., 4, :].any() and not p.grad[..., :, 4].any()


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4))
        t = Tape(grad=False)
        w = t.const(np.eye(4))
        b = t.const(np.zeros(4))
        npt.assert_allclose(ad.channel_linear(t.const(x), w, b).value, x)

    def test_zero_weights_bias_only(self):
        t = Tape(grad=False)
        x = t.const(np.ones((2, 3)))
        w = t.const(np.zeros((3, 2)))
        b = t.const(np.array([5.0, -1.0]))
        npt.assert_allclose(ad.channel_linear(x, w, b).value, [[5.0, -1.0]] * 2)

    def test_hand_product(self):
        t = Tape(grad=False)
        x = t.const(np.array([[1.0, 2.0]]))
        w = t.const(np.array([[1.0, 0.0], [1.0, 1.0]]))
        npt.assert_allclose(ad.channel_linear(x, w).value, [[3.0, 2.0]])

    def test_dimension_mismatch(self):
        t = Tape(grad=False)
        with pytest.raises(ValueError):
            ad.channel_linear(t.const(np.zeros((2, 3))), t.const(np.zeros((4, 2))))
        with pytest.raises(ValueError):  # a vector has no batch axis
            ad.channel_linear(t.const(np.zeros(4)), t.const(np.zeros((4, 2))))

    def test_channel_linear_matches_linear_project(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 5, 2, 2))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        t = Tape(grad=False)
        got = ad.channel_linear(t.const(x), t.const(w), t.const(b)).value
        # reference: the same map as a product over the trailing axis
        want = np.moveaxis(np.moveaxis(x, 1, -1) @ w + b, -1, 1)
        npt.assert_allclose(got, want, atol=1e-12)

    def test_pool_project_commute(self):
        # projecting per location then pooling equals pooling then projecting
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6, 7, 7))
        w = rng.standard_normal((6, 3))
        t = Tape(grad=False)
        pooled_first = ad.channel_linear(
            ad.reduce_mean(t.const(x), axis=(-2, -1)), t.const(w)
        ).value
        proj = ad.channel_linear(t.const(x), t.const(w))
        proj_first = ad.reduce_mean(proj, axis=(-2, -1)).value
        npt.assert_allclose(pooled_first, proj_first, atol=1e-9)


class TestConcat:
    # concat is kept as a test oracle: the pair stacks that pair_conv3d never builds

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 8, 7, 7))
        b = rng.standard_normal((3, 8, 7, 7))
        t = Tape(grad=False)
        out = concat((t.const(a), t.const(b)), axis=0).value
        assert out.shape == (5, 8, 7, 7)
        npt.assert_array_equal(out[:2], a)
        npt.assert_array_equal(out[2:], b)

    def test_mismatched_trailing(self):
        t = Tape(grad=False)
        with pytest.raises(ValueError):
            concat((t.const(np.zeros((2, 8, 7, 7))), t.const(np.zeros((2, 8, 7, 6)))), axis=0)

    def test_gradient_of_sum_is_ones(self):
        a = Parameter(np.arange(8.0).reshape(2, 2, 2, 1), "a")
        b = Parameter(np.zeros((1, 2, 2, 1)), "b")
        t = Tape()
        out = concat((t.param(a), t.param(b)), axis=0)
        t.backward(ad.reduce_sum(out))
        npt.assert_array_equal(a.grad, np.ones_like(a.value))
        npt.assert_array_equal(b.grad, np.ones_like(b.value))


class TestPurity:
    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3))
        x_before = x.copy()
        t = Tape()
        v = t.const(x)
        p = Parameter(rng.standard_normal((3, 2)), "w")
        out = ad.channel_linear(v, t.param(p))
        loss = ad.reduce_sum(ad.mul(out, out))
        t.backward(loss)
        npt.assert_array_equal(x, x_before)
        with pytest.raises(ValueError):
            v.value[0, 0] = 99.0  # recorded values are read-only

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.standard_normal((4, 5)) * 10
            t = Tape(grad=False)
            v = t.const(x)
            for out in (
                ad.relu(v),
                ad.sigmoid(v),
                ad.tanh(v),
                ad.softmax(v, axis=1),
            ):
                assert np.all(np.isfinite(out.value))


# spatial grids conv3d meets: on 1x1 and 2x3 some taps have no valid window,
# 3x3 is the offset predictor's second layer
CONV3D_GRIDS = [(1, 1), (2, 3), (3, 3), (5, 4)]
# those that admit a smaller output extent, with the even extent the offset
# predictor computes in eval mode
WINDOWED_GRIDS = [((2, 3), (2, 2)), ((3, 3), (2, 2)), ((5, 4), (4, 4))]


class TestGradientsMatchFiniteDifferences:
    """Every primitive's backward pass against central differences."""

    def test_elementwise_chain(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.uniform(0.2, 1.5, size=(3, 4)), "p")
        q = Parameter(rng.uniform(0.2, 1.5, size=(3, 4)), "q")

        def build(tape):
            a, b = tape.param(p), tape.param(q)
            z = ad.div(ad.mul(ad.add(a, b), ad.add(a, ad.affine(b, -1.0))), b)
            z = ad.add(ad.sigmoid(z), ad.tanh(ad.affine(z, -1.0)))
            return scalarize(tape, z, np.random.default_rng(42))

        check_op(build, [p, q])

    def test_broadcast_mul_div(self):
        rng = np.random.default_rng(1)
        f = Parameter(rng.standard_normal((3, 4, 5)), "f")
        m = Parameter(rng.uniform(0.5, 2.0, size=(4, 5)), "m")
        d = Parameter(rng.uniform(0.5, 2.0, size=(4, 1)), "d")

        def build(tape):
            z = ad.mul(tape.param(f), tape.param(m))
            z = ad.div(z, tape.param(d))
            return scalarize(tape, z, np.random.default_rng(43))

        check_op(build, [f, m, d])

    def test_reductions_and_shape(self):
        rng = np.random.default_rng(2)
        p = Parameter(rng.standard_normal((2, 3, 4)), "p")

        def build(tape):
            v = tape.param(p)
            a = ad.reduce_mean(v, axis=(1, 2))
            b = ad.reduce_sum(ad.reshape(v, (6, 4)), axis=1)
            c = ad.reduce_sum(ad.transpose(v, (2, 0, 1)), axis=(0, 2))
            parts = concat((a, b, c), axis=0)
            return scalarize(tape, parts, np.random.default_rng(44))

        check_op(build, [p])

    def test_take_and_stack(self):
        rng = np.random.default_rng(3)
        p = Parameter(rng.standard_normal(5), "p")

        def build(tape):
            v = tape.param(p)
            s = ad.stack([ad.take(v, 0), ad.take(v, 3), ad.take(v, 4)])
            rows = ad.stack([v, ad.mul(v, v)])  # (2, 5)
            # an index array replaces the axis with its own shape: (2, 2, 2)
            grid = ad.take(rows, np.array([[4, 0], [2, 1]]), axis=1)
            total = ad.add(ad.reduce_sum(ad.mul(s, s)), ad.reduce_sum(ad.mul(rows, rows)))
            return ad.add(total, scalarize(tape, grid, np.random.default_rng(31)))

        check_op(build, [p])

    def test_softmax_matmul(self):
        rng = np.random.default_rng(4)
        a = Parameter(rng.standard_normal((4, 3)), "a")
        b = Parameter(rng.standard_normal((3, 4)), "b")

        def build(tape):
            m = ad.softmax(ad.matmul(tape.param(a), tape.param(b)), axis=1)
            return scalarize(tape, m, np.random.default_rng(45))

        check_op(build, [a, b])

    def test_linear_ops(self):
        rng = np.random.default_rng(5)
        v = Parameter(rng.standard_normal((2, 6)), "v")
        w = Parameter(rng.standard_normal((6, 3)), "w")
        b = Parameter(rng.standard_normal(3), "b")
        x = Parameter(rng.standard_normal((3, 4, 6)), "x")
        wc = Parameter(rng.standard_normal((4, 5)), "wc")
        bc = Parameter(rng.standard_normal(5), "bc")

        def build(tape):
            y = ad.channel_linear(tape.param(v), tape.param(w), tape.param(b))  # (B, C), as in the TTM head
            z = ad.channel_linear(tape.param(x), tape.param(wc), tape.param(bc))  # (B, C, T)
            out = concat((ad.reshape(y, (6,)), ad.reshape(z, (90,))), axis=0)
            return scalarize(tape, out, np.random.default_rng(46))

        check_op(build, [v, w, b, x, wc, bc])

    def test_conv1d_temporal(self):
        rng = np.random.default_rng(6)
        x = Parameter(rng.standard_normal((1, 3, 8)), "x")
        w = Parameter(rng.standard_normal((5, 3, 3)), "w")
        b = Parameter(rng.standard_normal(5), "b")

        def build(tape):
            y = ad.conv1d_temporal(tape.param(x), tape.param(w), tape.param(b))
            return scalarize(tape, y, np.random.default_rng(47))

        check_op(build, [x, w, b])

    def test_conv1d_temporal_batched(self):
        # every (C, T) sequence of a (6, C, T) block through one kernel
        rng = np.random.default_rng(16)
        x = Parameter(rng.standard_normal((6, 3, 8)), "x")
        w = Parameter(rng.standard_normal((5, 3, 3)), "w")
        b = Parameter(rng.standard_normal(5), "b")

        def build(tape):
            y = ad.conv1d_temporal(tape.param(x), tape.param(w), tape.param(b))
            assert y.shape == (6, 5, 8)
            return scalarize(tape, y, np.random.default_rng(55))

        check_op(build, [x, w, b])

    def test_conv3d(self):
        rng = np.random.default_rng(7)
        x = Parameter(rng.standard_normal((2, 3, 4, 5, 5)), "x")
        w = Parameter(rng.standard_normal((4, 3, 3, 3, 3)) * 0.3, "w")
        b = Parameter(rng.standard_normal(4), "b")

        def build(tape):
            y = ad.conv3d(tape.param(x), tape.param(w), tape.param(b))
            return scalarize(tape, y, np.random.default_rng(48))

        check_op(build, [x, w, b])

    def test_pair_conv3d(self):
        # the mix enters bilinearly with the query, so this also checks the
        # correlation gradient that reaches temporal coordination
        rng = np.random.default_rng(17)
        s = Parameter(rng.standard_normal((2, 3, 4, 5, 5)), "support")
        q = Parameter(rng.standard_normal((3, 2, 4, 5, 5)), "query")
        m = Parameter(rng.standard_normal((3, 2, 4, 4)), "mix")
        w = Parameter(rng.standard_normal((4, 5, 3, 3, 3)) * 0.3, "w")
        b = Parameter(rng.standard_normal(4), "b")

        def build(tape):
            y = ad.pair_conv3d(
                tape.param(s), tape.param(q), tape.param(m), tape.param(w), tape.param(b)
            )
            return scalarize(tape, y, np.random.default_rng(49))

        report = check_op(build, [s, q, m, w, b])
        assert all(rung == 0 for *_, rung in report.ladder)

    def test_pair_conv3d_bad_shapes(self):
        t = Tape(grad=False)
        s, q = t.const(np.zeros((2, 3, 4, 5, 5))), t.const(np.zeros((3, 2, 4, 5, 5)))
        w, b = t.const(np.zeros((4, 5, 3, 3, 3))), t.const(np.zeros(4))
        with pytest.raises(ValueError):
            ad.pair_conv3d(s, q, t.const(np.zeros((2, 3, 4, 4))), w, b)
        with pytest.raises(ValueError):
            ad.pair_conv3d(s, q, t.const(np.zeros((3, 2, 4, 4))), t.const(np.zeros((4, 6, 3, 3, 3))), b)

    @pytest.mark.parametrize("h, w", [(4, 4)] + CONV3D_GRIDS)
    def test_conv3d_forward_oracle(self, h, w):
        # brute-force triple loop on a tiny case
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 2, 3, h, w))
        w_ = rng.standard_normal((2, 2, 3, 3, 3))
        t = Tape(grad=False)
        got = ad.conv3d(t.const(x), t.const(w_), t.const(np.zeros(2))).value
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        want = np.zeros_like(got)
        for o in range(2):
            for tt in range(3):
                for hh in range(h):
                    for ww in range(w):
                        want[0, o, tt, hh, ww] = np.sum(
                            xp[0, :, tt : tt + 3, hh : hh + 3, ww : ww + 3] * w_[o]
                        )
        npt.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("h, w", CONV3D_GRIDS)
    def test_conv3d_gradients_on_grid(self, h, w):
        rng = np.random.default_rng(18)
        x = Parameter(rng.standard_normal((2, 3, 4, h, w)), "x")
        w_ = Parameter(rng.standard_normal((4, 3, 3, 3, 3)) * 0.3, "w")
        b = Parameter(rng.standard_normal(4), "b")

        def build(tape):
            y = ad.conv3d(tape.param(x), tape.param(w_), tape.param(b))
            return scalarize(tape, y, np.random.default_rng(55))

        check_op(build, [x, w_, b])

    @pytest.mark.parametrize("grid, extent", WINDOWED_GRIDS)
    def test_windowed_conv3d_gradients(self, grid, extent):
        rng = np.random.default_rng(21)
        x = Parameter(rng.standard_normal((2, 3, 4, *grid)), "x")
        w_ = Parameter(rng.standard_normal((4, 3, 3, 3, 3)) * 0.3, "w")
        b = Parameter(rng.standard_normal(4), "b")

        def build(tape):
            y = ad.conv3d(tape.param(x), tape.param(w_), tape.param(b), extent)
            assert y.shape == (2, 4, 4, *extent)
            return scalarize(tape, y, np.random.default_rng(56))

        check_op(build, [x, w_, b])

    @pytest.mark.parametrize("grid, extent", WINDOWED_GRIDS)
    def test_windowed_pair_conv3d_gradients(self, grid, extent):
        rng = np.random.default_rng(22)
        s = Parameter(rng.standard_normal((2, 3, 4, *grid)), "support")
        q = Parameter(rng.standard_normal((3, 2, 4, *grid)), "query")
        m = Parameter(rng.standard_normal((3, 2, 4, 4)), "mix")
        w_ = Parameter(rng.standard_normal((4, 5, 3, 3, 3)) * 0.3, "w")
        b = Parameter(rng.standard_normal(4), "b")

        def build(tape):
            y = ad.pair_conv3d(
                tape.param(s), tape.param(q), tape.param(m), tape.param(w_), tape.param(b), extent
            )
            assert y.shape == (6, 4, 4, *extent)
            return scalarize(tape, y, np.random.default_rng(57))

        check_op(build, [s, q, m, w_, b])

    @pytest.mark.parametrize("op", ["conv3d", "pair_conv3d"])
    @pytest.mark.parametrize("grid, extent", WINDOWED_GRIDS + [((3, 3), (1, 1)), ((5, 4), (2, 3))])
    def test_windowed_convs_are_the_top_left_crop(self, op, grid, extent):
        # forward: the crop of the full-grid output; backward: the full grid's
        # backward of an upstream gradient that is zero outside the crop, so
        # inputs that no kept output reads get exactly zero gradient
        rng = np.random.default_rng(23)
        rows, cols = extent
        s = Parameter(rng.standard_normal((2, 3, 4, *grid)), "support")
        q = Parameter(rng.standard_normal((3, 2, 4, *grid)), "query")
        m = Parameter(rng.standard_normal((3, 2, 4, 4)), "mix")
        w_ = rng.standard_normal((4, 5, 3, 3, 3)) * 0.3
        b = Parameter(rng.standard_normal(4), "b")
        if op == "conv3d":
            params = [s, Parameter(w_[:, :3], "w"), b]
        else:
            params = [s, q, m, Parameter(w_, "w"), b]
        upstream = rng.standard_normal((6, 4, 4, *extent))

        def run(window):
            for p in params:
                p.zero_grad()
            tape = Tape()
            y = getattr(ad, op)(*(tape.param(p) for p in params), window)
            g = np.zeros(y.shape)
            g[..., :rows, :cols] = upstream[: len(g)]
            tape.backward(ad.reduce_sum(ad.mul(y, tape.const(g))))
            return y.value, [p.grad.copy() for p in params]

        (got, got_grads), (full, full_grads) = run(extent), run(None)
        assert got.shape == full.shape[:3] + extent
        npt.assert_allclose(got, full[..., :rows, :cols], rtol=0, atol=1e-12)
        for p, g, want in zip(params, got_grads, full_grads):
            npt.assert_allclose(g, want, rtol=0, atol=1e-12, err_msg=p.name)

    def test_conv_extent_outside_the_grid_raises(self):
        t = Tape(grad=False)
        s, q = t.const(np.zeros((2, 3, 4, 3, 4))), t.const(np.zeros((3, 2, 4, 3, 4)))
        m = t.const(np.zeros((3, 2, 4, 4)))
        w, b = t.const(np.zeros((4, 5, 3, 3, 3))), t.const(np.zeros(4))
        ws = t.const(np.zeros((4, 3, 3, 3, 3)))
        for extent in [(0, 2), (2, 0), (4, 2), (3, 5)]:
            with pytest.raises(ValueError, match="extent"):
                ad.conv3d(s, ws, b, extent)
            with pytest.raises(ValueError, match="extent"):
                ad.pair_conv3d(s, q, m, w, b, extent)

    def test_max_pools(self):
        rng = np.random.default_rng(9)
        x = Parameter(rng.standard_normal((2, 3, 2, 7, 7)), "x")

        def build(tape):
            y = max_pool_spatial2(tape.param(x))
            z = ad.global_max_pool_spatial(y)
            return scalarize(tape, z, np.random.default_rng(49))

        check_op(build, [x])

    def test_max_pool_shapes_and_values(self):
        x = np.arange(16.0).reshape(1, 1, 1, 4, 4)
        t = Tape(grad=False)
        out = max_pool_spatial2(t.const(x)).value
        npt.assert_array_equal(out[0, 0, 0], [[5.0, 7.0], [13.0, 15.0]])
        gm = ad.global_max_pool_spatial(t.const(x)).value
        npt.assert_array_equal(gm, [[[15.0]]])

    def test_batchnorm_train_and_eval(self):
        rng = np.random.default_rng(10)
        x = Parameter(rng.standard_normal((3, 4, 2, 3, 3)), "x")
        g = Parameter(rng.uniform(0.5, 1.5, 4), "g")
        b = Parameter(rng.standard_normal(4), "b")
        rm, rv = np.zeros(4), np.ones(4)

        def build_train(tape):
            y = batchnorm_channels(
                tape.param(x), tape.param(g), tape.param(b), rm.copy(), rv.copy(), True
            )
            return scalarize(tape, y, np.random.default_rng(50))

        check_op(build_train, [x, g, b], tol=1e-5)

        rm2 = rng.standard_normal(4) * 0.1
        rv2 = rng.uniform(0.5, 2.0, 4)

        def build_eval(tape):
            y = batchnorm_channels(
                tape.param(x), tape.param(g), tape.param(b), rm2, rv2, False
            )
            return scalarize(tape, y, np.random.default_rng(51))

        check_op(build_eval, [x, g, b])

    def test_mix_time(self):
        rng = np.random.default_rng(11)
        m = Parameter(rng.standard_normal((4, 4)), "m")
        f = Parameter(rng.standard_normal((3, 4, 2, 2)), "f")

        def build(tape):
            y = ad.mix_time(tape.param(m), tape.param(f))
            return scalarize(tape, y, np.random.default_rng(52))

        check_op(build, [m, f])

    def test_mix_time_batched(self):
        # (2, 3) mixes over (2, 1) maps: the leading axes broadcast
        rng = np.random.default_rng(17)
        m = Parameter(rng.standard_normal((2, 3, 4, 4)), "m")
        f = Parameter(rng.standard_normal((2, 1, 3, 4, 2, 2)), "f")

        def build(tape):
            y = ad.mix_time(tape.param(m), tape.param(f))
            assert y.shape == (2, 3, 3, 4, 2, 2)
            return scalarize(tape, y, np.random.default_rng(57))

        check_op(build, [m, f])

    def test_offset_masks(self):
        # offsets chosen so no grid coordinate sits on a profile kink
        o = Parameter(np.array([[0.37, -0.21], [1.13, 0.58], [-0.66, 0.29]]), "o")

        def build(tape):
            masks = ad.offset_masks(tape.param(o), 7, 7, gamma=3.0)
            return scalarize(tape, masks, np.random.default_rng(53))

        check_op(build, [o])

    def test_offset_masks_batched(self):
        # a (2, 3) block of (T, 2) offsets; a grid coordinate sits on a profile
        # kink (distance 1 or 1 + 1/3 from a centre) when an offset's
        # fractional part is 0, 1/3 or 2/3, so every offset keeps over 0.06 from those
        rng = np.random.default_rng(14)
        shape = (2, 3, 4, 2)
        o = Parameter(
            rng.integers(-2, 2, shape) + rng.choice([1 / 6, 1 / 2, 5 / 6], shape)
            + rng.uniform(-0.1, 0.1, shape),
            "o",
        )
        tape = Tape(grad=False)
        masks = ad.offset_masks(tape.const(o.value), 7, 7, gamma=3.0).value
        assert masks.shape == (2, 3, 4, 7, 7)
        for i in range(2):
            for j in range(3):
                row = ad.offset_masks(tape.const(o.value[i, j]), 7, 7, gamma=3.0).value
                npt.assert_array_equal(masks[i, j], row)

        def build(tape):
            masks = ad.offset_masks(tape.param(o), 7, 7, gamma=3.0)
            return scalarize(tape, masks, np.random.default_rng(58))

        check_op(build, [o])

    def test_warp_matrix(self):
        # one video: scalar warps and a (C, T, H, W) map
        rng = np.random.default_rng(12)
        f = Parameter(rng.standard_normal((3, 6, 2, 2)), "f")
        # chosen so no source position 0.855 + 0.63*i lands on an integer
        a = Parameter(np.array(0.63), "a")
        b = Parameter(np.array(0.171), "b")

        def build(tape):
            m = ad.warp_matrix(tape.param(a), tape.param(b), 6)
            y = ad.mix_time(m, tape.param(f))
            return scalarize(tape, y, np.random.default_rng(54))

        check_op(build, [f, a, b])

    def test_warp_matrix_batched(self):
        # a (2, 3) block of videos, each with its own window; no source
        # position 5*shift + scale*i lies within 0.06 of an integer
        rng = np.random.default_rng(13)
        f = Parameter(rng.standard_normal((2, 3, 3, 6, 2, 2)), "f")
        a = Parameter(np.array([[0.47, 0.51, 0.32], [0.46, 0.65, 0.61]]), "a")
        b = Parameter(np.array([[0.065, 0.169, 0.375], [0.284, 0.048, 0.324]]), "b")

        def build(tape):
            m = ad.warp_matrix(tape.param(a), tape.param(b), 6)
            assert m.shape == (2, 3, 6, 6)
            y = ad.mix_time(m, tape.param(f))
            return scalarize(tape, y, np.random.default_rng(56))

        check_op(build, [f, a, b])

    def test_warp_matrix_scale_and_shift_share_the_batch(self):
        tape = Tape(grad=False)
        with pytest.raises(ValueError, match="batch-shaped"):
            ad.warp_matrix(tape.const(0.5), tape.const([0.1, 0.2]), 6)
        # two warps do not broadcast against a block of three videos
        m = ad.warp_matrix(tape.const([0.5, 0.5]), tape.const([0.1, 0.2]), 6)
        with pytest.raises(ValueError):
            ad.mix_time(m, tape.const(np.zeros((3, 2, 6, 2, 2))))


class TestMixTime:
    def test_warp_rows_sum_to_one_and_the_identity_is_exact(self):
        rng = np.random.default_rng(14)
        tape = Tape(grad=False)
        scale = rng.uniform(0.25, 1.0, (2, 3))
        shift = rng.uniform(0.0, 1.0 - scale)
        m = ad.warp_matrix(tape.const(scale), tape.const(shift), 7).value
        assert m.min() >= 0.0
        npt.assert_allclose(m.sum(axis=-1), np.ones((2, 3, 7)), rtol=0, atol=1e-15)
        identity = ad.warp_matrix(tape.const(1.0), tape.const(0.0), 7)
        npt.assert_array_equal(identity.value, np.eye(7))
        f = tape.const(rng.standard_normal((4, 7, 3, 3)))
        npt.assert_array_equal(ad.mix_time(identity, f).value, f.value)

    @pytest.mark.parametrize("map_classes", [1, 3])
    def test_block_equals_single_pairs(self, map_classes):
        # (Q, N) = (2, 3) mixes over (Q, 1) or (Q, N) maps in one call, against
        # one single-video call per pair: values and both gradients
        rng = np.random.default_rng(18)
        n_query, n_way, t = 2, 3, 5
        mixes = rng.standard_normal((n_query, n_way, t, t))
        maps = rng.standard_normal((n_query, map_classes, 4, t, 3, 2))
        upstream = rng.standard_normal((n_query, n_way, 4, t, 3, 2))

        def run(batched):
            m, f = Parameter(mixes, "m"), Parameter(maps, "f")
            tape = Tape()
            mv, fv = tape.param(m), tape.param(f)
            if batched:
                out = ad.mix_time(mv, fv)
            else:
                pairs = [
                    ad.mix_time(
                        ad.take(ad.take(mv, q), n), ad.take(ad.take(fv, q), n % map_classes)
                    )
                    for q in range(n_query) for n in range(n_way)
                ]
                out = ad.reshape(ad.stack(pairs), upstream.shape)
            tape.backward(ad.reduce_sum(ad.mul(out, tape.const(upstream))))
            return out.value, m.grad, f.grad

        for got, want in zip(run(True), run(False)):
            assert got.shape == want.shape
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "m_shape, f_shape",
        [
            ((4, 4), (3, 5, 2, 2)),  # T of the map differs
            ((4, 5), (3, 5, 2, 2)),  # mix not square
            ((2, 3, 4, 4), (2, 1, 3, 5, 2, 2)),
            ((4,), (3, 4, 2, 2)),
            ((4, 4), (4, 2, 2)),  # map without a channel axis
            ((2, 4, 4), (3, 3, 4, 2, 2)),  # leading axes do not broadcast
        ],
    )
    def test_mismatched_shapes_raise(self, m_shape, f_shape):
        tape = Tape(grad=False)
        with pytest.raises(ValueError):
            ad.mix_time(tape.const(np.zeros(m_shape)), tape.const(np.zeros(f_shape)))


def reference_batchnorm_train(x, gamma, beta, running_mean, running_var, g, momentum=0.1, eps=1e-5):
    """Training-mode batch norm and its backward by the chain rule, step by step
    (Ioffe & Szegedy 2015, Algorithm 1 and section 3): (out, running mean,
    running var, gx, ggamma, gbeta)."""
    axes = (0, 2, 3, 4)
    n = x.size // x.shape[1]
    shape = (1, -1, 1, 1, 1)
    mean = x.mean(axis=axes, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = (x - mean) / std
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    gxhat = g * gamma.reshape(shape)
    gvar = (gxhat * (x - mean) * -0.5 * std**-3).sum(axis=axes, keepdims=True)
    gmean = (-gxhat / std).sum(axis=axes, keepdims=True) + gvar * (-2.0 * (x - mean)).mean(
        axis=axes, keepdims=True
    )
    gx = gxhat / std + gvar * 2.0 * (x - mean) / n + gmean / n
    return (
        out,
        (1 - momentum) * running_mean + momentum * mean.ravel(),
        (1 - momentum) * running_var + momentum * var.ravel(),
        gx,
        (g * xhat).sum(axis=axes),
        g.sum(axis=axes),
    )


class TestBatchNorm:
    def test_training_mode_matches_the_textbook_reference(self):
        rng = np.random.default_rng(56)
        x = rng.standard_normal((6, 5, 3, 7, 7))
        x[:, 1] = 0.7  # a constant channel: variance 0
        x[:, 3] = 1e3 + rng.standard_normal(x[:, 3].shape)  # E[x^2] - E[x]^2 would cancel here
        gamma, beta = rng.uniform(0.5, 1.5, 5), rng.standard_normal(5)
        running_mean, running_var = rng.standard_normal(5), rng.uniform(0.5, 2.0, 5)
        g = rng.standard_normal(x.shape)
        want = reference_batchnorm_train(x, gamma, beta, running_mean, running_var, g)

        px, pg, pb = Parameter(x, "x"), Parameter(gamma, "gamma"), Parameter(beta, "beta")
        rm, rv = running_mean.copy(), running_var.copy()
        tape = Tape()
        out = batchnorm_channels(tape.param(px), tape.param(pg), tape.param(pb), rm, rv, True)
        tape.backward(ad.reduce_sum(ad.mul(out, tape.const(g))))
        got = (out.value, rm, rv, px.grad, pg.grad, pb.grad)
        names = ("out", "running mean", "running var", "gx", "ggamma", "gbeta")
        for name, a, b in zip(names, got, want):
            err = np.abs(a - b).max()
            assert err <= 1e-12 * np.abs(b).max(), f"{name}: {err:.3e}"


# grids the fused op meets: the offset predictor's two pooled extents, odd
# grids whose trailing row or column the pool drops, and a single window
FUSED_GRIDS = [(6, 6), (7, 7), (5, 4), (4, 4), (2, 2)]


def fused_case(grid, seed):
    """(x, gamma, beta, running mean, running var) with gammas of both signs
    and a constant channel."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 5, 2, *grid))
    x[:, 2] = 0.3  # variance 0
    gamma = rng.uniform(0.5, 1.5, 5) * np.array([1.0, -1.0, 1.0, -1.0, -1.0])
    beta = rng.uniform(-0.5, 0.5, 5)
    return x, gamma, beta, rng.standard_normal(5) * 0.1, rng.uniform(0.5, 2.0, 5)


def fused_run(op, x, gamma, beta, running_mean, running_var, training, g):
    """(output, running mean, running var, gx, ggamma, gbeta) of ``op`` under the
    output gradient ``g``."""
    px, pg, pb = Parameter(x, "x"), Parameter(gamma, "gamma"), Parameter(beta, "beta")
    rm, rv = running_mean.copy(), running_var.copy()
    tape = Tape()
    out = op(tape.param(px), tape.param(pg), tape.param(pb), rm, rv, training)
    tape.backward(ad.reduce_sum(ad.mul(out, tape.const(g))))
    return out.value, rm, rv, px.grad, pg.grad, pb.grad


def reference_chain(x, gamma, beta, running_mean, running_var, training):
    return ad.relu(max_pool_spatial2(
        batchnorm_channels(x, gamma, beta, running_mean, running_var, training)
    ))


class TestBatchnormMaxpoolRelu:
    """The fused op against the separate batch norm, 2x2 max pool and ReLU."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("grid", FUSED_GRIDS)
    def test_matches_the_reference_chain(self, grid, training):
        x, gamma, beta, rm, rv = fused_case(grid, 60)
        g = np.random.default_rng(61).standard_normal((3, 5, 2, grid[0] // 2, grid[1] // 2))
        got = fused_run(ad.batchnorm_maxpool_relu, x, gamma, beta, rm, rv, training, g)
        want = fused_run(reference_chain, x, gamma, beta, rm, rv, training, g)
        # the forward and the running buffers are the same arithmetic
        for name, a, b in zip(("out", "running mean", "running var"), got[:3], want[:3]):
            npt.assert_array_equal(a, b, err_msg=name)
        assert (got[0] > 0).any() and (got[0] == 0).any()
        for name, a, b in zip(("gx", "ggamma", "gbeta"), got[3:], want[3:]):
            err = np.abs(a - b).max()
            assert err <= 1e-12 * np.abs(b).max(), f"{name}: {err:.3e}"

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("grid", [(6, 6), (5, 4)])
    def test_gradients(self, grid, training):
        x, gamma, beta, rm, rv = fused_case(grid, 62)
        x[:, 2] += np.random.default_rng(63).standard_normal(x[:, 2].shape)
        params = [Parameter(x, "x"), Parameter(gamma, "gamma"), Parameter(beta, "beta")]

        def build(tape):
            y = ad.batchnorm_maxpool_relu(
                *(tape.param(p) for p in params), rm.copy(), rv.copy(), training
            )
            return scalarize(tape, y, np.random.default_rng(64))

        check_op(build, params, tol=1e-6, step=1e-5)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["max", "min"])
    def test_ties_route_to_the_first_equal_input(self, sign):
        # per 2x2 window of a 4x4 frame: its inputs in row-major order; the
        # first maximum for gamma > 0, the first minimum for gamma < 0
        windows = [[3.0, 3.0, 1.0, 2.0], [1.0, -1.0, 3.0, -1.0],
                   [0.0, 2.0, 2.0, 2.0], [-2.0, 1.0, -2.0, 1.0]]
        x = np.zeros((1, 1, 1, 4, 4))
        for k, values in enumerate(windows):
            i, j = divmod(k, 2)
            x[0, 0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = np.reshape(values, (2, 2))
        pick = np.argmax if sign > 0 else np.argmin
        g = np.arange(1.0, 5.0).reshape(1, 1, 1, 2, 2)
        gamma, beta = np.array([sign]), np.array([5.0])  # every window passes the ReLU
        mean, var = np.array([0.5]), np.array([4.0])
        out, _, _, gx, _, _ = fused_run(ad.batchnorm_maxpool_relu, x, gamma, beta, mean, var, False, g)
        want_out, want_grad = np.zeros(g.shape), np.zeros(x.shape)
        scale = sign / np.sqrt(4.0 + ad.BN_EPS)
        for k, values in enumerate(windows):
            i, j = divmod(k, 2)
            di, dj = divmod(int(pick(values)), 2)
            want_out[0, 0, 0, i, j] = max(v * scale + (5.0 - 0.5 * scale) for v in values)
            want_grad[0, 0, 0, 2 * i + di, 2 * j + dj] = scale * g[0, 0, 0, i, j]
        npt.assert_array_equal(out, want_out)
        npt.assert_array_equal(gx, want_grad)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_zero_gamma_routes_to_the_first_maximal_input(self, training):
        # at gamma = 0 every window's normalized values are equal; the op
        # still selects the first maximal input, so ggamma sums xhat there,
        # and x gets no gradient
        rng = np.random.default_rng(65)
        x = rng.standard_normal((2, 1, 2, 4, 4))
        gamma, beta = np.zeros(1), np.array([0.25])
        mean, var = np.array([0.1]), np.array([1.5])
        g = rng.standard_normal((2, 1, 2, 2, 2))
        out, rm, rv, gx, gg, gb = fused_run(
            ad.batchnorm_maxpool_relu, x, gamma, beta, mean, var, training, g
        )
        npt.assert_array_equal(out, np.full(g.shape, 0.25))
        if training:
            mean, var = x.mean(), x.var()
        top = max_pool_spatial2(Tape(grad=False).const(x)).value
        npt.assert_array_equal(gx, np.zeros(x.shape))
        npt.assert_allclose(gg, [np.sum(g * (top - mean) / np.sqrt(var + ad.BN_EPS))], rtol=1e-12)
        npt.assert_allclose(gb, [g.sum()], rtol=1e-12)

    def test_rejects_blocks_it_cannot_pool(self):
        t = Tape(grad=False)
        gamma, beta = t.const(np.ones(2)), t.const(np.zeros(2))
        for shape in [(1, 2, 3, 4), (1, 2, 3, 1, 4), (1, 2, 3, 4, 1)]:
            with pytest.raises(ValueError):
                ad.batchnorm_maxpool_relu(
                    t.const(np.zeros(shape)), gamma, beta, np.zeros(2), np.ones(2), False
                )


TO_LAST, TO_FIRST = (0, 2, 3, 4, 1), (0, 4, 1, 2, 3)


def layout_run(op, blocks, rest, g, channels_last):
    """(output, gradients of ``blocks`` and then of ``rest``) of ``op(*blocks, *rest)``.

    ``blocks`` are (B, C, T, H, W) arrays and ``g`` is the output gradient.
    With ``channels_last`` the op receives each block, and its output
    gradient, as the (B, C, ...) view of a C-contiguous (B, T, H, W, C)
    array holding the same values; otherwise both are C-contiguous.
    """
    tape = Tape()
    if channels_last:
        params = [Parameter(b.transpose(TO_LAST), "block") for b in blocks]
        ins = [ad.transpose(tape.param(p), TO_FIRST) for p in params]
        g = np.ascontiguousarray(g.transpose(TO_LAST)).transpose(TO_FIRST)
    else:
        params = [Parameter(b, "block") for b in blocks]
        ins = [tape.param(p) for p in params]
    for v in ins:
        assert v.value.transpose(TO_LAST if channels_last else (0, 1, 2, 3, 4)).flags.c_contiguous
    leaves = [Parameter(a, "rest") for a in rest]
    out = op(*ins, *(tape.param(p) for p in leaves))
    tape.backward(tape.record("inject", np.zeros(()), (out,), lambda _: (g,)))
    grads = [p.grad.transpose(TO_FIRST) if channels_last else p.grad for p in params]
    return out.value, grads + [p.grad for p in leaves]


def assert_layout_free(op, blocks, rest, seed):
    """``op`` gives bit-identical outputs and gradients from both block layouts."""
    probe = Tape(grad=False)
    shape = op(*(probe.const(a) for a in blocks + rest)).shape
    g = np.random.default_rng(seed).standard_normal(shape)
    first, last = (layout_run(op, blocks, rest, g, cl) for cl in (False, True))
    npt.assert_array_equal(first[0], last[0], err_msg="output")
    for i, (a, b) in enumerate(zip(first[1], last[1])):
        npt.assert_array_equal(a, b, err_msg=f"gradient {i}")


class TestChannelsLastLayout:
    """The offset predictor's ops read any strides: a channels-first block and
    the same values stored channels-last give identical outputs and gradients."""

    @pytest.mark.parametrize("x_shape, extent", [
        ((25, 128, 8, 3, 3), (2, 2)),  # the second conv at ModelConfig()
        ((3, 4, 3, 5, 7), None),  # an odd grid, every output
    ], ids=["model_config", "odd_grid"])
    def test_conv3d(self, x_shape, extent):
        rng = np.random.default_rng(70)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal((x_shape[1], x_shape[1], 3, 3, 3)) * 0.05
        b = rng.standard_normal(x_shape[1])

        def op(x, w, b):
            return ad.conv3d(x, w, b, extent)

        assert_layout_free(op, [x], [w, b], 71)

    @pytest.mark.parametrize("n, c, grid, extent", [
        (5, 16, (7, 7), (6, 6)),  # the first conv at ModelConfig()
        (2, 3, (5, 3), None),  # an odd grid, every output
    ], ids=["model_config", "odd_grid"])
    def test_pair_conv3d(self, n, c, grid, extent):
        rng = np.random.default_rng(72)
        s, q = (rng.standard_normal((n, c, 8, *grid)) for _ in range(2))
        m = rng.standard_normal((n, n, 8, 8))
        w = rng.standard_normal((4 * c, 2 * c, 3, 3, 3)) * 0.05
        b = rng.standard_normal(4 * c)

        def op(s, q, m, w, b):
            return ad.pair_conv3d(s, q, m, w, b, extent)

        assert_layout_free(op, [s, q], [m, w, b], 73)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("x_shape", [
        (25, 128, 8, 6, 6), (25, 128, 8, 2, 2),  # the two layers at ModelConfig()
        (3, 5, 2, 7, 5),  # an odd grid
    ], ids=["model_config_1", "model_config_2", "odd_grid"])
    def test_batchnorm_maxpool_relu(self, x_shape, training):
        rng = np.random.default_rng(74)
        c = x_shape[1]
        x = rng.standard_normal(x_shape)
        gamma = rng.uniform(0.5, 1.5, c) * np.where(np.arange(c) % 3 == 1, -1.0, 1.0)  # flipped channels
        beta = rng.uniform(-0.5, 0.5, c)
        mean, var = rng.standard_normal(c) * 0.1, rng.uniform(0.5, 2.0, c)

        def op(x, gamma, beta):
            return ad.batchnorm_maxpool_relu(x, gamma, beta, mean.copy(), var.copy(), training)

        assert_layout_free(op, [x], [gamma, beta], 75)


class TestGradcheckHarness:
    def test_sum_of_squares(self):
        p = Parameter(np.array([1.0, -2.0, 3.0]), "p")

        def build(tape):
            v = tape.param(p)
            return ad.reduce_sum(ad.mul(v, v))

        report = finite_diff_gradcheck(build, [p], tolerance=1e-8, step=1e-5)
        assert report.passed
        # analytic gradient of sum of squares is 2*theta
        npt.assert_allclose(p.grad, 2 * p.value, atol=1e-12)

    def test_constant_function(self):
        p = Parameter(np.array([0.5, 0.5]), "p")

        def build(tape):
            tape.param(p)
            return ad.reduce_sum(tape.const(np.array(7.0)))

        report = finite_diff_gradcheck(build, [p], tolerance=1e-10)
        assert report.passed
        npt.assert_allclose(p.grad, np.zeros(2), atol=1e-10)

    def test_detects_wrong_gradient(self):
        p = Parameter(np.array([1.0, 2.0]), "p")

        def build(tape):
            v = tape.param(p)
            broken = tape.record("broken", v.value * 3.0, (v,), lambda g: (g,))
            return ad.reduce_sum(broken)

        report = finite_diff_gradcheck(build, [p], tolerance=1e-4)
        assert not report.passed

    def test_steps_under_a_nearby_kink(self):
        # the ReLU kink is 3.7e-6 away: the ladder straddles it down to a step
        # of 3.9e-6 and clears it at 9.8e-7
        p = Parameter(np.array([3.7e-6, -0.8, 1.3]), "p")

        def build(tape):
            v = tape.param(p)
            return ad.add(ad.reduce_sum(ad.relu(v)), ad.reduce_sum(ad.mul(v, v)))

        report = finite_diff_gradcheck(build, [p], step=1e-3, tolerance=1e-4)
        assert report.passed, report.summary()

    def test_wrong_gradient_near_a_kink_fails_at_every_rung(self):
        p = Parameter(np.array([3.7e-6]), "p")

        def build(tape):
            v = tape.param(p)
            mask = (v.value > 0).astype(float)
            off = tape.record("relu_5pct_off", v.value * mask, (v,), lambda g: (1.05 * g * mask,))
            return ad.reduce_sum(off)

        report = finite_diff_gradcheck(build, [p], step=1e-3, tolerance=1e-4)
        assert not report.passed
        [(_, _, err)] = report.failures
        npt.assert_allclose(err, 0.05 / 1.05, rtol=1e-6)

    def test_point_on_a_kink_fails(self):
        # no step makes a central difference at a seated kink match the
        # subgradient; moving off it is the caller's job
        p = Parameter(np.array([0.0]), "p")

        def build(tape):
            return ad.reduce_sum(ad.relu(tape.param(p)))

        report = finite_diff_gradcheck(build, [p], step=1e-3, tolerance=1e-4)
        assert not report.passed
        [(_, _, err)] = report.failures
        npt.assert_allclose(err, 1.0)

    def test_report_keeps_first_step_error_and_rung(self):
        # the coordinate 3.7e-6 from the ReLU kink passes five rungs down, at
        # a step of 1e-3 / 4**5; the smooth ones pass at the first step
        p = Parameter(np.array([3.7e-6, -0.8, 1.3]), "p")

        def build(tape):
            v = tape.param(p)
            return ad.add(ad.reduce_sum(ad.relu(v)), ad.reduce_sum(ad.mul(v, v)))

        report = finite_diff_gradcheck(build, [p], step=1e-3, tolerance=1e-4)
        assert report.passed
        rungs = {c: rung for _, c, _, rung in report.ladder}
        first = {c: err for _, c, err, _ in report.ladder}
        assert rungs == {0: 5, 1: 0, 2: 0}
        assert first[0] > 0.1 and max(first[1], first[2]) < 1e-8
        assert report.first_rung_max_err == first[0] > report.max_rel_err
        assert f"first step max {first[0]:.3e}, 1 stopped lower (deepest rung 5)" in report.summary()

    def test_nonfinite_objective_raises(self):
        p = Parameter(np.array([1.0]), "p")

        def build(tape):
            v = tape.param(p)
            return ad.reduce_sum(ad.div(v, ad.affine(v, 0.0, 0.0)))

        with pytest.raises(FloatingPointError):
            finite_diff_gradcheck(build, [p])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradcheck(lambda tape: tape.const(0.0), [], step=0.0)

    def test_grad_accumulates_and_zeroes(self):
        p = Parameter(np.ones(3), "p")

        def run_once():
            t = Tape()
            v = t.param(p)
            t.backward(ad.reduce_sum(ad.mul(v, v)))

        run_once()
        run_once()
        npt.assert_allclose(p.grad, 4 * np.ones(3))  # two accumulations of 2*theta
        p.zero_grad()
        npt.assert_array_equal(p.grad, np.zeros(3))


class TestBackwardAccumulation:
    """A slot reached by several gradients receives their sum."""

    def test_zero_d_parameter(self):
        # numpy arithmetic on 0-d arrays returns scalars, which have no in-place add
        a = Parameter(np.array(1.0), "a")
        tape = Tape()
        av = tape.param(a)
        tape.backward(ad.add(ad.mul(av, tape.const(3.0)), ad.mul(av, tape.const(5.0))))
        assert a.grad.shape == () and float(a.grad) == 8.0

    def test_one_array_for_two_inputs(self):
        # add hands its output gradient to both inputs; accumulating into
        # one of them must not change the other
        x, y = Parameter(np.ones(3), "x"), Parameter(np.ones(3), "y")
        tape = Tape()
        c, d = ad.affine(tape.param(x), 1.0), ad.affine(tape.param(y), 1.0)
        tape.backward(ad.reduce_sum(ad.add(ad.add(c, d), c)))
        npt.assert_array_equal(x.grad, np.full(3, 2.0))
        npt.assert_array_equal(y.grad, np.ones(3))


class TestTapeLifetime:
    """Backward consumes a tape, so reference counting alone frees it."""

    @staticmethod
    def build(tape, p):
        # add and channel_linear keep Var handles in their backward closures,
        # which tie the tape into a reference cycle until backward drops them
        v = tape.param(p)
        ad.add(v, v)  # a branch no gradient reaches
        h = ad.channel_linear(ad.add(v, v), tape.param(p))
        return ad.reduce_sum(ad.mul(h, h))

    def test_backward_keeps_the_record_and_drops_the_closures(self):
        p = Parameter(np.arange(9.0).reshape(3, 3) / 10, "p")
        tape = Tape()
        loss = self.build(tape, p)
        ops = [e.op for e in tape.entries]
        tape.backward(loss)
        assert [e.op for e in tape.entries] == ops == ["add", "add", "channel_linear", "mul", "sum"]
        assert all(e.backward is None for e in tape.entries)

    def test_second_backward_raises(self):
        p = Parameter(np.eye(3), "p")
        tape = Tape()
        loss = self.build(tape, p)
        tape.backward(loss)
        grad = p.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            tape.backward(loss)
        npt.assert_array_equal(p.grad, grad)

    def test_dropped_tape_is_freed_without_the_cycle_collector(self, no_gc):
        p = Parameter(np.eye(3), "p")
        tape = Tape()
        ref = weakref.ref(tape)
        loss = self.build(tape, p)
        tape.backward(loss)
        del tape, loss
        assert ref() is None

    def test_gradcheck_frees_its_tapes(self, no_gc):
        p = Parameter(np.arange(9.0).reshape(3, 3) / 10, "p")
        refs = []

        def build(tape):
            refs.append(weakref.ref(tape))
            return self.build(tape, p)

        assert finite_diff_gradcheck(build, [p], step=1e-5, tolerance=1e-6).passed
        assert len(refs) > 1 and all(r() is None for r in refs)
