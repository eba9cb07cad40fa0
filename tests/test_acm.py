import copy

import numpy as np
import numpy.testing as npt
import pytest

from ta2n import acm
from ta2n import autodiff as ad
from ta2n.acm import (
    OffsetPredictor,
    TemporalCoordination,
    masked_spatial_average,
    spatial_coordinate,
)
from ta2n.autodiff import Parameter, Tape
from ta2n.model import ModelConfig

from gradcheck import finite_diff_gradcheck
from oracles import concat, full_grid_offsets, generate_offset_mask


def spatially_constant(frames):
    """(C,T) frame vectors broadcast over a 5x5 grid."""
    c, t = frames.shape
    return np.broadcast_to(frames[:, :, None, None], (c, t, 5, 5)).copy()


def predict(pred, support, query, training=False):
    """Offsets of one pair, through the batched forward with an identity mix."""
    tape = Tape(grad=False)
    t = support.shape[1]
    return pred.forward(
        tape, tape.const(support[None]), tape.const(query[None]),
        tape.const(np.eye(t)[None, None]), training,
    ).value[0]


def coordinate(tc, tape, support, query):
    """(rearranged query values, correlation) of one pair of (C, T, H, W) maps."""
    keys, _ = tc.support_side(tape, ad.stack([support]))
    queries, values = tc.query_side(tape, ad.stack([query]))
    corr = tc.forward(ad.take(keys, 0), ad.take(queries, 0))
    return ad.mix_time(corr, ad.take(values, 0)), corr


def weighted_sum(tape, v, seed):
    """Project an output to a scalar with a fixed random weighting."""
    w = tape.const(np.random.default_rng(seed).standard_normal(v.value.shape))
    return ad.reduce_sum(ad.mul(v, w))


def stage_gradcheck(build, params):
    """The seeded gradient check of a whole coordination stage."""
    report = finite_diff_gradcheck(
        build, params, step=1e-3, tolerance=1e-4,
        rng=np.random.default_rng((12, 0)), max_coords_per_param=4,
    )
    assert report.passed, report.summary()


def identity_tc(channels):
    tc = TemporalCoordination(channels, proj_dim=channels, rng=np.random.default_rng(0))
    tc.key_w.value[:] = np.eye(channels)
    tc.query_w.value[:] = np.eye(channels)
    tc.value_w.value[:] = np.eye(channels)
    for b in (tc.key_b, tc.value_b):
        b.value[:] = 0.0
    return tc


class TestTemporalCoordination:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        tc = TemporalCoordination(6, proj_dim=4, rng=rng)
        for _ in range(20):
            tape = Tape(grad=False)
            s = tape.const(rng.standard_normal((6, 8, 5, 5)))
            q = tape.const(rng.standard_normal((6, 8, 5, 5)))
            _, corr = coordinate(tc, tape, s, q)
            npt.assert_allclose(corr.value.sum(axis=1), np.ones(8), atol=1e-9)
            assert corr.value.min() >= 0.0 and corr.value.max() <= 1.0

    def test_identity_correlation_keeps_order(self):
        rng = np.random.default_rng(1)
        tc = identity_tc(4)
        tape = Tape(grad=False)
        q = tape.const(rng.standard_normal((4, 6, 5, 5)))
        values = ad.take(tc.query_side(tape, ad.stack([q]))[1], 0)
        out = ad.mix_time(tape.const(np.eye(6)), values)
        npt.assert_allclose(out.value, values.value, atol=1e-12)

    def test_uniform_features_give_uniform_correlation(self):
        tc = TemporalCoordination(4, proj_dim=4, rng=np.random.default_rng(2))
        frames = np.tile(np.array([0.3, -1.2, 0.7, 0.1])[:, None], (1, 8))
        tape = Tape(grad=False)
        s = tape.const(spatially_constant(frames))
        _, corr = coordinate(tc, tape, s, s)
        npt.assert_allclose(corr.value, np.full((8, 8), 1 / 8), atol=1e-12)

    def test_permutation_recovery(self):
        rng = np.random.default_rng(3)
        t_len, c = 8, 16
        for _ in range(25):
            # orthonormal frame features, constant over space
            basis, _ = np.linalg.qr(rng.standard_normal((c, c)))
            support_frames = basis[:, :t_len]
            perm = rng.permutation(t_len)
            query_frames = np.empty_like(support_frames)
            query_frames[:, perm] = support_frames  # q_{perm[t]} = s_t
            tc = identity_tc(c)
            tape = Tape(grad=False)
            s = tape.const(spatially_constant(support_frames))
            q = tape.const(spatially_constant(query_frames))
            _, corr = coordinate(tc, tape, s, q)
            npt.assert_array_equal(corr.value.argmax(axis=1), perm)

    def test_block_equals_single_videos(self):
        # a block of three videos through each side against three one-video blocks
        rng = np.random.default_rng(4)
        tc = TemporalCoordination(5, proj_dim=4, rng=rng)
        tape = Tape(grad=False)
        videos = [tape.const(rng.standard_normal((5, 6, 4, 3))) for _ in range(3)]
        for side in (tc.support_side, tc.query_side):
            proj, values = side(tape, ad.stack(videos))
            for i, v in enumerate(videos):
                one_proj, one_values = side(tape, ad.stack([v]))
                npt.assert_allclose(proj.value[i], one_proj.value[0], rtol=0, atol=1e-12)
                npt.assert_allclose(values.value[i], one_values.value[0], rtol=0, atol=1e-12)

    def test_gradients(self):
        # two supports x two queries, as the pipeline runs them: block sides,
        # one correlation per pair and one batched rearrangement; support
        # values, rearranged query values and correlations together
        rng = np.random.default_rng(12)
        tc = TemporalCoordination(5, proj_dim=4, rng=rng)
        support = Parameter(rng.standard_normal((2, 5, 6, 5, 5)), "support")
        query = Parameter(rng.standard_normal((2, 5, 6, 5, 5)), "query")

        def build(tape):
            keys, s_values = tc.support_side(tape, tape.param(support))
            queries, q_values = tc.query_side(tape, tape.param(query))
            corr = ad.stack([
                tc.forward(ad.take(keys, n), ad.take(queries, q))
                for q in range(2) for n in range(2)
            ])
            corr = ad.reshape(corr, (2, 2, 6, 6))
            rearranged = ad.mix_time(corr, ad.reshape(q_values, (2, 1, 4, 6, 5, 5)))
            z = ad.add(weighted_sum(tape, s_values, 17), weighted_sum(tape, rearranged, 18))
            return ad.add(z, weighted_sum(tape, corr, 19))

        stage_gradcheck(build, [support, query, *tc.parameters()])

    def test_shape_mismatch(self):
        tc = TemporalCoordination(4, proj_dim=16, rng=np.random.default_rng(0))
        tape = Tape(grad=False)
        with pytest.raises(ValueError):
            coordinate(
                tc, tape, tape.const(np.zeros((4, 8, 5, 5))), tape.const(np.zeros((4, 7, 5, 5)))
            )


class TestOffsetMask:
    def test_plateau_center(self):
        mask = generate_offset_mask((0.0, 0.0), 7, 7)
        assert mask[3, 3] == 1.0

    def test_profile_values(self):
        # distance 1 + 1/3 -> 0; distance 1.2 -> 1 - 3*0.2 = 0.4
        mask = generate_offset_mask((1.0 / 3.0, 0.0), 7, 7)
        npt.assert_allclose(mask[3, 1], 0.0, atol=1e-12)  # x=1 is 7/3-1-1/3... distance 7/3
        cx = 3 + 1.0 / 3.0
        assert abs(abs(2 - cx) - (1 + 1 / 3)) < 1e-12
        npt.assert_allclose(mask[3, 2], 0.0, atol=1e-12)
        mask2 = generate_offset_mask((0.2, 0.0), 7, 7)
        # x=5 sits at distance 1.8 (zero); x=2 at distance 1.2 on the ramp
        npt.assert_allclose(mask2[3, 2], 0.4, atol=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            mask = generate_offset_mask(rng.uniform(-3, 3, 2), 7, 7)
            assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_point_reflection_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            o = rng.uniform(-2.5, 2.5, 2)
            m_pos = generate_offset_mask(o, 7, 7)
            m_neg = generate_offset_mask(-o, 7, 7)
            npt.assert_allclose(m_neg, m_pos[::-1, ::-1], atol=1e-9)

    def test_var_mask_matches_plain(self):
        rng = np.random.default_rng(6)
        offs = rng.uniform(-2, 2, (5, 2))
        tape = Tape(grad=False)
        masks = ad.offset_masks(tape.const(offs), 7, 7, acm.MASK_SLOPE).value
        for t in range(5):
            npt.assert_allclose(masks[t], generate_offset_mask(offs[t], 7, 7), atol=1e-12)


class TestOffsetPredictor:
    def test_zero_init_final_layer_gives_zero_offsets(self):
        rng = np.random.default_rng(7)
        pred = OffsetPredictor(8, 7, 7, conv_channels=(12, 12), hidden=8, rng=rng)
        s = rng.standard_normal((4, 6, 7, 7))
        q = rng.standard_normal((4, 6, 7, 7))
        npt.assert_array_equal(predict(pred, s, q), np.zeros((6, 2)))

    def test_offsets_strictly_inside_half_grid(self):
        rng = np.random.default_rng(8)
        pred = OffsetPredictor(8, 7, 7, conv_channels=(12, 12), hidden=8, rng=rng)
        pred.fc2_w.value[:] = rng.standard_normal((8, 2)) * 0.2
        s = rng.standard_normal((4, 6, 7, 7)) * 5
        q = rng.standard_normal((4, 6, 7, 7)) * 5
        out = predict(pred, s, q)
        assert np.all(np.abs(out[:, 0]) < 3.0)
        assert np.all(np.abs(out[:, 1]) < 3.0)

    def test_output_shape(self):
        rng = np.random.default_rng(9)
        pred = OffsetPredictor(32, 7, 7, conv_channels=(16, 16), hidden=8, rng=rng)
        s = rng.standard_normal((16, 8, 7, 7))
        q = rng.standard_normal((16, 8, 7, 7))
        assert predict(pred, s, q).shape == (8, 2)

    def test_grid_too_small_at_construction(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            OffsetPredictor(8, 3, 7, conv_channels=(8, 8), hidden=8, rng=rng)
        with pytest.raises(ValueError):
            OffsetPredictor(8, 7, 3, conv_channels=(8, 8), hidden=8, rng=rng)

    def test_batchnorm_running_stats_update_only_in_training(self):
        rng = np.random.default_rng(10)
        pred = OffsetPredictor(8, 7, 7, conv_channels=(12, 12), hidden=8, rng=rng)
        before = pred.bn1_mean.copy()
        s = rng.standard_normal((4, 6, 7, 7))
        q = rng.standard_normal((4, 6, 7, 7))
        predict(pred, s, q, training=False)
        npt.assert_array_equal(pred.bn1_mean, before)
        predict(pred, s, q, training=True)
        assert not np.array_equal(pred.bn1_mean, before)

    @pytest.mark.parametrize("grid", [(7, 7), (7, 5), (5, 4), (4, 4), (8, 8)])
    def test_eval_forward_matches_the_full_grid_reference(self, grid):
        # eval mode convolves only the positions the 2x2 pools read. The last
        # layer is made nonzero, since the zero-initialised one gives offsets
        # of 0 whatever the convolutions compute; the running statistics are
        # moved off (0, 1) so batch norm is not the identity
        h, w = grid
        rng = np.random.default_rng(24)
        pred = OffsetPredictor(12, h, w, conv_channels=(10, 12), hidden=8, rng=rng)
        pred.fc2_w.value[:] = rng.standard_normal((8, 2)) * 0.05
        for mean, var in ((pred.bn1_mean, pred.bn1_var), (pred.bn2_mean, pred.bn2_var)):
            mean[:] = rng.normal(0.0, 0.3, mean.shape)
            var[:] = rng.uniform(0.5, 2.0, var.shape)
        tape = Tape(grad=False)
        support = tape.const(rng.standard_normal((3, 6, 5, h, w)))
        query = tape.const(rng.standard_normal((2, 6, 5, h, w)))
        logits = rng.standard_normal((2, 3, 5, 5))
        mix = tape.const(np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True))
        got = pred.forward(tape, support, query, mix, training=False).value
        want = full_grid_offsets(pred, tape, support, query, mix).value
        assert got.shape == (6, 5, 2)
        assert np.ptp(got) > 0.3
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("grid", [(7, 7), (7, 5), (5, 4), (4, 4), (8, 8)])
    def test_training_forward_matches_the_cropped_full_grid_reference(self, grid):
        # training batch norm takes its statistics over the positions the
        # pools read: the reference convolves the full grids and crops before
        # each batch norm. One step of each compares the offsets, the
        # gradients of every parameter and input, and the running buffers
        h, w = grid
        rng = np.random.default_rng(25)
        pred = OffsetPredictor(12, h, w, conv_channels=(10, 12), hidden=8, rng=rng)
        pred.fc2_w.value[:] = rng.standard_normal((8, 2)) * 0.05
        inputs = [
            Parameter(rng.standard_normal((3, 6, 5, h, w)), "support"),
            Parameter(rng.standard_normal((2, 6, 5, h, w)), "query"),
            Parameter(rng.standard_normal((2, 3, 5, 5)), "mix logits"),
        ]
        upstream = rng.standard_normal((6, 5, 2))

        def step(p, forward):
            tape = Tape()
            support, query, logits = (tape.param(x) for x in inputs)
            offsets = forward(p, tape, support, query, ad.softmax(logits, axis=-1), training=True)
            tape.backward(ad.reduce_sum(ad.mul(offsets, tape.const(upstream))))
            grads = [x.grad.copy() for x in p.parameters() + inputs]
            for x in p.parameters() + inputs:
                x.zero_grad()
            return offsets.value, grads, p.bn_state()

        ref = copy.deepcopy(pred)
        before = {name: buf.copy() for name, buf in pred.bn_state().items()}
        got, got_grads, got_bn = step(pred, OffsetPredictor.forward)
        want, want_grads, want_bn = step(ref, full_grid_offsets)
        assert got.shape == (6, 5, 2)
        assert np.ptp(got) > 0.3
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
        for x, g, r in zip(pred.parameters() + inputs, got_grads, want_grads):
            assert np.any(g != 0), x.name
            npt.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=x.name)
        for name, buf in got_bn.items():
            assert not np.array_equal(buf, before[name]), name
            npt.assert_allclose(buf, want_bn[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("use_tc", [True, False])
    def test_first_layer_matches_explicit_pair_stack(self, use_tc):
        # ModelConfig() shapes, 5 classes x 5 queries: the factored first layer
        # against conv3d of the 25 pair stacks it never builds, forward and
        # backward, with real correlations or (without TC) identity mixes
        cfg = ModelConfig()
        n, t = 5, cfg.frames
        rng = np.random.default_rng(20)
        shape = (cfg.channels, t, cfg.height, cfg.width)
        feats = [Parameter(rng.standard_normal(shape), f"video{i}") for i in range(2 * n)]
        tc = TemporalCoordination(cfg.channels, cfg.proj_dim, rng)
        pred = OffsetPredictor(
            2 * cfg.proj_dim, cfg.height, cfg.width,
            conv_channels=cfg.offset_channels, hidden=cfg.offset_hidden, rng=rng,
        )
        upstream = rng.standard_normal((n * n, cfg.offset_channels[0], t, cfg.height, cfg.width))
        params = feats + tc.parameters() + [pred.conv1_w, pred.conv1_b]

        def first_layer(factored):
            for p in params:
                p.zero_grad()
            tape = Tape()
            videos = [tape.param(f) for f in feats]
            if use_tc:
                keys, s_values = tc.support_side(tape, ad.stack(videos[:n]))
                q_proj, q_values = tc.query_side(tape, ad.stack(videos[n:]))
                supports = [ad.take(s_values, i) for i in range(n)]
                queries = [ad.take(q_values, i) for i in range(n)]
                mixes = [
                    tc.forward(ad.take(keys, ci), ad.take(q_proj, qi))
                    for qi in range(n) for ci in range(n)
                ]
            else:
                supports, queries = videos[:n], videos[n:]
                mixes = [tape.const(np.eye(t)) for _ in range(n * n)]
            w, b = tape.param(pred.conv1_w), tape.param(pred.conv1_b)
            if factored:
                mix = ad.reshape(ad.stack(mixes), (n, n, t, t))
                out = ad.pair_conv3d(ad.stack(supports), ad.stack(queries), mix, w, b)
            else:
                stacks = []
                for qi in range(n):
                    for ci in range(n):
                        both = concat(
                            (supports[ci], ad.mix_time(mixes[qi * n + ci], queries[qi])), axis=0
                        )
                        stacks.append(ad.reshape(both, (1, *both.shape)))
                out = ad.conv3d(concat(stacks, axis=0), w, b)
            tape.backward(ad.reduce_sum(ad.mul(out, tape.const(upstream))))
            return out.value, [p.grad.copy() for p in params]

        (got, got_grads), (want, want_grads) = first_layer(True), first_layer(False)
        assert got.shape == (n * n, cfg.offset_channels[0], t, cfg.height, cfg.width)
        npt.assert_allclose(got, want, rtol=0, atol=1e-10)
        for p, g, w in zip(params, got_grads, want_grads):
            npt.assert_allclose(g, w, rtol=0, atol=1e-10 * np.abs(w).max(), err_msg=p.name)


class TestPerturbation:
    def test_epoch_zero_unit_circle(self):
        disp = acm.perturb_displacements(0)
        assert disp.shape == (9, 2)
        npt.assert_array_equal(disp[0], np.zeros(2))
        npt.assert_allclose(np.linalg.norm(disp[1:], axis=1), np.ones(8), atol=1e-12)

    def test_amplitude_decay(self):
        for epoch, amp in ((0, 1.0), (39, 1.0), (40, 0.5), (80, 0.25)):
            disp = acm.perturb_displacements(epoch)
            npt.assert_allclose(np.linalg.norm(disp[1:], axis=1), np.full(8, amp), atol=1e-12)


class TestMaskedAverage:
    def test_constant_feature_unchanged(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(6)
        f = np.broadcast_to(v[:, None, None, None], (6, 4, 7, 7)).copy()
        tape = Tape(grad=False)
        offs = tape.const(rng.uniform(-2, 2, (4, 2)))
        f_s, f_q = spatial_coordinate(tape, tape.const(f), tape.const(f), offs)
        for t in range(4):
            npt.assert_allclose(f_s.value[:, t], v, atol=1e-9)
            npt.assert_allclose(f_q.value[:, t], v, atol=1e-9)

    def test_zero_offset_pools_same_cells(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((3, 2, 7, 7))
        tape = Tape(grad=False)
        offs = tape.const(np.zeros((2, 2)))
        f_s, f_q = spatial_coordinate(tape, tape.const(f), tape.const(f), offs)
        npt.assert_allclose(f_s.value, f_q.value, atol=1e-12)

    def test_planted_actor_recovered(self):
        # support actor one cell right of centre, query one cell left;
        # offset (1, 0) should give both means equal to the actor feature
        rng = np.random.default_rng(13)
        actor = rng.uniform(0.5, 1.5, 5)
        support = np.zeros((5, 1, 7, 7))
        query = np.zeros((5, 1, 7, 7))
        support[:, 0, 2:5, 3:6] = actor[:, None, None]  # centred at (3, 4)
        query[:, 0, 2:5, 1:4] = actor[:, None, None]  # centred at (3, 2)
        tape = Tape(grad=False)
        offs = tape.const(np.array([[1.0, 0.0]]))
        f_s, f_q = spatial_coordinate(tape, tape.const(support), tape.const(query), offs)
        npt.assert_allclose(f_s.value[:, 0], actor, rtol=0.05)
        npt.assert_allclose(f_q.value[:, 0], actor, rtol=0.05)

    def test_mask_shape_mismatch(self):
        tape = Tape(grad=False)
        with pytest.raises(ValueError):
            masked_spatial_average(
                tape.const(np.zeros((3, 4, 7, 7))), tape.const(np.zeros((4, 5, 5)))
            )

    def test_full_path_gradients(self):
        rng = np.random.default_rng(14)
        support = Parameter(rng.standard_normal((3, 2, 7, 7)), "support")
        query = Parameter(rng.standard_normal((3, 2, 7, 7)), "query")
        # offsets away from mask kinks: fractional parts well inside segments
        offs = Parameter(np.array([[0.37, -0.62], [1.18, 0.44]]), "offsets")

        def build(tape):
            f_s, f_q = spatial_coordinate(
                tape, tape.param(support), tape.param(query), tape.param(offs)
            )
            diff = ad.add(f_s, ad.affine(f_q, -1.0))
            return ad.reduce_sum(ad.mul(diff, diff))

        report = finite_diff_gradcheck(
            build, [support, query, offs], step=1e-4, tolerance=1e-4,
            rng=np.random.default_rng(15),
        )
        assert report.passed, report.summary()

    def test_stage_gradients(self):
        # two queries x two classes through one predictor and one batched SC
        # call; each query is rearranged along time onto each class before
        # both the predictor and the masks
        rng = np.random.default_rng(12)
        height = width = 7
        support = Parameter(rng.standard_normal((2, 4, 3, height, width)), "support")
        query = Parameter(rng.standard_normal((2, 4, 3, height, width)), "query")
        pred = OffsetPredictor(8, height, width, conv_channels=(8, 8), hidden=8, rng=rng)
        # off zero offsets, which put grid cells exactly on the mask rings
        nudge = np.random.default_rng((12, 1))
        pred.fc2_w.value[:] = nudge.normal(0, 0.1, pred.fc2_w.shape)
        pred.fc2_b.value[:] = nudge.uniform(-0.4, 0.4, 2)
        mix_logits = Parameter(nudge.standard_normal((2, 2, 3, 3)), "mix_logits")

        def build(tape):
            s, q = tape.param(support), tape.param(query)
            corr = ad.softmax(tape.param(mix_logits), axis=3)  # (Q, N, T, T)
            offs = pred.forward(tape, s, q, corr, training=True)  # (Q*N, T, 2)
            rearranged = ad.mix_time(corr, ad.reshape(q, (2, 1, *q.shape[1:])))
            f_s, f_q = spatial_coordinate(
                tape, s, rearranged, ad.reshape(offs, (2, 2, 1, 3, 2)),
            )
            return ad.add(weighted_sum(tape, f_s, 21), weighted_sum(tape, f_q, 22))

        stage_gradcheck(build, [support, query, mix_logits, *pred.parameters()])

    def test_all_zero_mask_gives_the_plain_spatial_mean(self):
        # masks are >= 0, so the floor alone keeps every normalizer positive
        f = np.random.default_rng(19).standard_normal((3, 2, 7, 7))
        tape = Tape(grad=False)
        got = masked_spatial_average(tape.const(f), tape.const(np.zeros((2, 7, 7)))).value
        npt.assert_allclose(got, f.mean(axis=(2, 3)), rtol=0, atol=1e-12)

    def test_perturbed_masks_average_before_normalization(self):
        rng = np.random.default_rng(16)
        f = rng.standard_normal((2, 1, 7, 7))
        offs = np.array([[0.5, -0.25]])
        disp = 0.5 * acm.perturb_displacements(0)
        tape = Tape(grad=False)
        m = acm.averaged_masks(tape, tape.const(offs), 7, 7, displacements=disp)
        expect = np.mean(
            [generate_offset_mask(offs[0] + d, 7, 7) for d in disp], axis=0
        )
        npt.assert_allclose(m.value[0], expect, atol=1e-12)
        # and the weighted mean normalizes once, after averaging
        got = masked_spatial_average(tape.const(f), m).value
        floored = expect + acm.MASK_FLOOR
        want = (f[:, 0] * floored).sum(axis=(1, 2)) / floored.sum()
        npt.assert_allclose(got[:, 0], want, atol=1e-12)

    @pytest.mark.parametrize("query_classes", [3, 1], ids=["tc", "no_tc"])
    @pytest.mark.parametrize("perturbed", [True, False], ids=["perturbed", "unperturbed"])
    def test_one_call_matches_each_pair(self, query_classes, perturbed):
        # 2 queries x 3 classes; without TC the query map is shared by all classes
        rng = np.random.default_rng(18)
        n_query, n_way, d, t = 2, 3, 4, 3
        support = Parameter(rng.standard_normal((n_way, d, t, 7, 7)), "support")
        query = Parameter(rng.standard_normal((n_query, query_classes, d, t, 7, 7)), "query")
        # a unit axis in place of d: the offsets' leading axes broadcast with the maps' (..., d)
        offs = Parameter(rng.uniform(-1.5, 1.5, (n_query, n_way, 1, t, 2)), "offsets")
        up_s, up_q = rng.standard_normal((2, n_query, n_way, d, t))
        disp = acm.perturb_displacements(0) if perturbed else acm.NO_DISPLACEMENT
        params = [support, query, offs]

        def weighted(f, up):
            return ad.reduce_sum(ad.mul(f, f.tape.const(up)))

        def run(batched):
            for p in params:
                p.zero_grad()
            tape = Tape()
            s, q, o = (tape.param(p) for p in params)
            if batched:
                f_s, f_q = spatial_coordinate(tape, s, q, o, displacements=disp)
                loss = ad.add(weighted(f_s, up_s), weighted(f_q, up_q))
                outs = (f_s.value, f_q.value)
            else:
                loss, outs = None, (np.empty(up_s.shape), np.empty(up_q.shape))
                for i in range(n_query):
                    for j in range(n_way):
                        pair_q = ad.take(ad.take(q, i), j if query_classes > 1 else 0)
                        f_s, f_q = spatial_coordinate(
                            tape, ad.take(s, j), pair_q, ad.take(ad.take(o, i), j),
                            displacements=disp,
                        )
                        outs[0][i, j], outs[1][i, j] = f_s.value, f_q.value
                        term = ad.add(weighted(f_s, up_s[i, j]), weighted(f_q, up_q[i, j]))
                        loss = term if loss is None else ad.add(loss, term)
            tape.backward(loss)
            return outs, [p.grad.copy() for p in params]

        (got, got_grads), (want, want_grads) = run(True), run(False)
        for g, w in zip(got, want):
            assert g.shape == (n_query, n_way, d, t)
            npt.assert_allclose(g, w, rtol=0, atol=1e-12)
        for p, g, w in zip(params, got_grads, want_grads):
            npt.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max(), err_msg=p.name)

