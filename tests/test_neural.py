import math
from dataclasses import replace

import numpy as np
import pytest

from tablelink.annindex import cosine_distances
from tablelink.neural import (
    ADAM_BLOCK,
    INIT_BLOCK_ROWS,
    AdamState,
    DenseNet,
    EmbedderPair,
    SamplerState,
    TrainingBatch,
    TrainingError,
    elu,
    gradient_check,
    gradient_step,
    live_columns,
    load_checkpoint,
    loss_from_embeddings,
    pairwise_contrastive_loss,
    sample_batch,
    save_checkpoint,
    score_matrix,
    train_pair,
)


def tiny_pair(seed=0, in_r=8, in_t=10, hidden_r=(6,), joint=4, margin=0.2, keep=1.0, **compact):
    """A small built float32 pair; ``compact`` passes ``live_r`` and ``live_t`` on to ``build``."""
    return EmbedderPair.build(
        input_dim_r=in_r, input_dim_t=in_t, hidden_r=hidden_r, hidden_t=(),
        joint_dim=joint, margin=margin, keep_prob=keep, seed=seed, **compact,
    )


def float64_copy(pair):
    """``pair`` with every parameter widened to float64, on a fresh dropout rng of its seed."""
    return replace(pair, net_r=pair.net_r.widened(), net_t=pair.net_t.widened(), flat=None,
                   train_rng=None)


def glorot_f64(seed, *dims):
    """The f64 nets ``EmbedderPair.build`` drew before checkpoint v2: one normal draw per layer."""
    rng = np.random.default_rng(seed)
    nets = []
    for layers in dims:
        weights = [rng.normal(0.0, np.sqrt(2.0 / (i + o)), size=(o, i))
                   for i, o in zip(layers[:-1], layers[1:])]
        nets.append(DenseNet(weights, [np.zeros(o) for o in layers[1:]], keep_prob=0.75))
    return nets


def random_batch(rng, in_r=8, in_t=10, n_r=3, n_t=4):
    pos = [(i, i) for i in range(min(n_r, n_t))]
    return TrainingBatch(
        x_tuples=rng.normal(size=(n_r, in_r)),
        x_mentions=rng.normal(size=(n_t, in_t)),
        pos_pairs=pos,
    )


class TestForward:
    def test_elu_values(self):
        assert elu(np.array([0.0]))[0] == 0.0
        assert elu(np.array([1.0]))[0] == 1.0
        assert abs(elu(np.array([-20.0]))[0] + 1.0) < 1e-8

    def test_zero_net_zero_output(self):
        net = DenseNet([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
        out, _ = net.forward(np.ones(3))
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        net = DenseNet([np.eye(5)], [np.zeros(5)])
        x = np.arange(5, dtype=float) - 2.0
        np.testing.assert_array_equal(net.forward(x)[0][0], x)

    def test_dim_mismatch_raises(self):
        net = DenseNet([np.eye(5)], [np.zeros(5)])
        with pytest.raises(ValueError, match="input dim"):
            net.forward(np.ones(4))

    def test_inference_is_deterministic(self):
        pair = tiny_pair(keep=0.5)
        x = np.ones(8)
        a = pair.net_r.forward(x)[0]
        b = pair.net_r.forward(x)[0]
        np.testing.assert_array_equal(a, b)

    def test_training_dropout_seeded(self):
        net = DenseNet.init([8, 6, 4], np.random.default_rng(0), keep_prob=0.5)
        out1, _ = net.forward(np.ones(8), training=True, rng=np.random.default_rng(7))
        out2, _ = net.forward(np.ones(8), training=True, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(out1, out2)

    def test_embed_takes_raw_rows_and_widened_keeps_the_first_layer(self):
        net = DenseNet.init([8, 6, 4], np.random.default_rng(0), live=[1, 4, 6])
        assert (net.raw_dim, net.input_dim) == (8, 3)
        with pytest.raises(ValueError, match="input dim 3 != raw input dim 8"):
            net.embed(np.ones((2, 3)))  # rows already cut to the live columns
        wide = net.widened()
        assert wide.raw_dim == 8 and wide.weights[0].dtype == np.float64
        np.testing.assert_array_equal(wide.live, [1, 4, 6])
        x = np.random.default_rng(1).normal(size=(2, 8))
        np.testing.assert_allclose(wide.embed(x), net.embed(x), rtol=1e-5, atol=1e-6)


class TestScore:
    """The trainer's cosine distance, one pair at a time through ``score_matrix``."""

    @staticmethod
    def score(u, v):
        return score_matrix(np.atleast_2d(u), np.atleast_2d(v))[0][0, 0]

    def test_identical_vectors(self):
        u = np.array([0.3, -2.0, 1.0])
        assert self.score(u, u) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert self.score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_opposite_vectors(self):
        u = np.array([1.0, 2.0])
        assert self.score(u, -u) == pytest.approx(2.0, abs=1e-15)

    def test_zero_vector_scores_one(self):
        assert self.score(np.zeros(3), np.ones(3)) == 1.0

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = rng.normal(size=3), rng.normal(size=3)
            assert self.score(u, v) == self.score(v, u)
            assert self.score(3.7 * u, v) == pytest.approx(self.score(u, v), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            self.score(np.ones(2), np.ones(3))


class TestLoss:
    def test_hand_evaluated_hinge_term(self):
        # one tuple anchor, one positive at score 0.3, one negative at 0.35
        e_r = np.array([[1.0, 0.0]])
        e_t = np.array(
            [[0.7, math.sqrt(1 - 0.49)], [0.65, math.sqrt(1 - 0.4225)]]
        )
        loss, _, _, stats = loss_from_embeddings(e_r, e_t, [(0, 0)], margin=0.1)
        assert loss == pytest.approx(0.05, abs=1e-12)
        assert stats.active_terms == 1
        assert stats.skipped_mention_anchors == 1  # the negative has no positive

    def test_saturated_batch_is_exact_zero(self):
        # negative sits opposite the anchor: score 2, far beyond margin
        e_r = np.array([[1.0, 0.0]])
        e_t = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss, d_er, d_et, _ = loss_from_embeddings(e_r, e_t, [(0, 0)], margin=0.5)
        assert loss == 0.0
        assert np.all(d_er == 0.0) and np.all(d_et == 0.0)

    def test_positives_only_zero_loss(self):
        e_r = np.array([[1.0, 2.0]])
        e_t = np.array([[2.0, 1.0]])
        loss, _, _, _ = loss_from_embeddings(e_r, e_t, [(0, 0)], margin=0.5)
        assert loss == 0.0

    def test_nonnegativity_on_random_batches(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            e_r, e_t = rng.normal(size=(a, 4)), rng.normal(size=(b, 4))
            pairs = [(int(rng.integers(a)), int(rng.integers(b)))]
            loss, _, _, _ = loss_from_embeddings(e_r, e_t, pairs, margin=0.1)
            assert loss >= 0.0

    def test_moving_negative_farther_never_increases_loss(self):
        def at_angle(theta):
            return np.array([math.cos(theta), math.sin(theta)])

        e_r = np.array([at_angle(0.0)])
        losses = []
        for theta in (0.6, 0.9, 1.4, 2.0, 2.8):
            e_t = np.stack([at_angle(0.5), at_angle(theta)])
            loss, _, _, _ = loss_from_embeddings(e_r, e_t, [(0, 0)], margin=0.3)
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_moving_positive_closer_never_increases_loss(self):
        def at_angle(theta):
            return np.array([math.cos(theta), math.sin(theta)])

        e_r = np.array([at_angle(0.0)])
        losses = []
        for theta_p in (1.2, 0.9, 0.5, 0.2, 0.05):
            e_t = np.stack([at_angle(theta_p), at_angle(1.5)])
            loss, _, _, _ = loss_from_embeddings(e_r, e_t, [(0, 0)], margin=0.3)
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_anchor_without_positive_skipped_and_counted(self):
        rng = np.random.default_rng(3)
        e_r, e_t = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        loss_all, _, _, stats = loss_from_embeddings(e_r, e_t, [(0, 0)], margin=0.2)
        assert stats.skipped_tuple_anchors == 1
        assert stats.skipped_mention_anchors == 1
        # the skipped anchor contributes nothing: dropping it changes nothing
        loss_one, _, _, _ = loss_from_embeddings(e_r[:1], e_t, [(0, 0)], margin=0.2)
        # the second tuple was only a potential negative for mention anchors;
        # removing it can only remove mention-side terms
        assert loss_all >= loss_one - 1e-12

    def test_zero_embedding_counted_and_score_one(self):
        e_r = np.array([[0.0, 0.0]])
        e_t = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, d_er, _, stats = loss_from_embeddings(e_r, e_t, [(0, 0)], margin=0.1)
        assert stats.zero_vectors == 1
        # zero anchor scores 1 against both mentions: the one tuple-side
        # hinge is margin + 1 - 1 = margin; no mention-side negatives exist
        assert loss == pytest.approx(0.1, abs=1e-12)
        assert np.all(d_er == 0.0)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        pair = tiny_pair(seed=1)
        batch = random_batch(rng)
        err = gradient_check(pair, batch, epsilon=1e-5)
        assert err < 1e-4

    def test_margin_nudged_on_the_copy_only(self):
        pair = EmbedderPair(net_r=DenseNet([np.eye(2)], [np.zeros(2)]),
                            net_t=DenseNet([np.eye(2)], [np.zeros(2)]), joint_dim=2, margin=1.0)
        batch = TrainingBatch(x_tuples=np.array([[1.0, 0.0]]),
                              x_mentions=np.array([[1.0, 0.0], [0.0, 1.0]]), pos_pairs=[(0, 0)])
        # hinge = margin + S(r, p) - S(r, n) = 1 + 0 - 1 sits on its boundary
        assert pairwise_contrastive_loss(pair, batch)[2].min_hinge_gap == 0.0
        assert gradient_check(pair, batch, epsilon=1e-5) < 1e-4
        assert pair.margin == 1.0

    def test_saturated_gradient_exactly_zero(self):
        pair = EmbedderPair(
            net_r=DenseNet([np.eye(2)], [np.zeros(2)]),
            net_t=DenseNet([np.eye(2)], [np.zeros(2)]),
            joint_dim=2,
            margin=0.5,
        )
        batch = TrainingBatch(
            x_tuples=np.array([[1.0, 0.0]]),
            x_mentions=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            pos_pairs=[(0, 0)],
        )
        loss, grads, _ = pairwise_contrastive_loss(pair, batch)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)
        # finite differences agree: the loss is flat around a saturated hinge
        eps = 1e-6
        w = pair.net_r.weights[0]
        w[0, 0] += eps
        plus = pairwise_contrastive_loss(pair, batch)[0]
        w[0, 0] -= 2 * eps
        minus = pairwise_contrastive_loss(pair, batch)[0]
        w[0, 0] += eps
        assert abs(plus - minus) / (2 * eps) < 1e-8

    def test_closed_form_cosine_gradient_linear_nets(self):
        u = np.array([0.9, 0.4])
        p = np.array([0.2, 1.1])
        n = np.array([0.8, 0.5])
        pair = EmbedderPair(
            net_r=DenseNet([np.eye(2)], [np.zeros(2)]),
            net_t=DenseNet([np.eye(2)], [np.zeros(2)]),
            joint_dim=2,
            margin=1.5,  # hinge active: loss = m + S(u,p) - S(u,n)
        )
        batch = TrainingBatch(
            x_tuples=u[None, :], x_mentions=np.stack([p, n]), pos_pairs=[(0, 0)]
        )
        loss, _, _ = pairwise_contrastive_loss(pair, batch)

        def d_score(u, v):
            # gradient of 1 - cos(u, v) with respect to u
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            c = float(u @ v) / (nu * nv)
            return -(v / (nu * nv) - c * u / nu**2)

        # reference distances from the index kernel, which does not normalise first
        s_p, s_n = cosine_distances(np.stack([p, n]), np.linalg.norm([p, n], axis=1), u[None])[0]
        assert loss == pytest.approx(1.5 + s_p - s_n, abs=1e-12)
        d_u = d_score(u, p) - d_score(u, n)
        d_p = d_score(p, u)
        d_n = -d_score(n, u)
        (gw_r,), (gb_r,) = pair.net_r.grad_weights, pair.net_r.grad_biases
        (gw_t,), (gb_t,) = pair.net_t.grad_weights, pair.net_t.grad_biases
        np.testing.assert_allclose(gw_r, np.outer(d_u, u), atol=1e-8)
        np.testing.assert_allclose(gb_r, d_u, atol=1e-8)
        np.testing.assert_allclose(gw_t, np.outer(d_p, p) + np.outer(d_n, n), atol=1e-8)
        np.testing.assert_allclose(gb_t, d_p + d_n, atol=1e-8)


class TestOptimizer:
    def test_lr_schedule(self):
        adam = AdamState()
        assert adam.effective_lr(0) == pytest.approx(1e-5, rel=1e-12)
        assert adam.effective_lr(999) == pytest.approx(1e-5, rel=1e-12)
        assert adam.effective_lr(1000) == pytest.approx(9e-6, rel=1e-12)
        assert adam.effective_lr(2500) == pytest.approx(1e-5 * 0.81, rel=1e-12)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        pair = EmbedderPair(
            net_r=DenseNet([np.eye(2)], [np.zeros(2)]),
            net_t=DenseNet([np.eye(2)], [np.zeros(2)]),
            joint_dim=2,
            margin=0.5,
        )
        batch = TrainingBatch(
            x_tuples=np.array([[1.0, 0.0]]),
            x_mentions=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            pos_pairs=[(0, 0)],
        )
        adam = AdamState(lr=1e-3)
        before = [p.copy() for p in pair.parameters()]
        loss, _ = gradient_step(pair, adam, batch)
        assert loss == 0.0
        assert adam.step == 1
        for b, p in zip(before, pair.parameters()):
            np.testing.assert_array_equal(b, p)

    def test_loss_decreases_on_fixed_separable_batch(self):
        rng = np.random.default_rng(5)
        pair = tiny_pair(seed=2, in_r=6, in_t=6, hidden_r=(), joint=4, margin=0.5, keep=1.0)
        x = np.eye(6)[:4]
        batch = TrainingBatch(
            x_tuples=x + 0.01 * rng.normal(size=(4, 6)),
            x_mentions=x + 0.01 * rng.normal(size=(4, 6)),
            pos_pairs=[(i, i) for i in range(4)],
        )
        adam = AdamState(lr=1e-2)
        first = pairwise_contrastive_loss(pair, batch)[0]
        for _ in range(200):
            last, _ = gradient_step(pair, adam, batch)
        assert first > 0.0
        assert last < first

    def test_non_finite_input_aborts_with_dump(self):
        pair = tiny_pair(seed=3)
        batch = TrainingBatch(
            x_tuples=np.full((1, 8), np.nan),
            x_mentions=np.ones((1, 10)),
            pos_pairs=[(0, 0)],
            tuple_keys=["bad"],
            mention_ids=["m1"],
        )
        with pytest.raises(TrainingError, match="non-finite") as err:
            gradient_step(pair, AdamState(), batch)
        assert err.value.batch["tuple_keys"] == ["bad"]

    def test_training_trajectory_is_seed_deterministic(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng)

        def run():
            pair = tiny_pair(seed=9, keep=0.5)
            adam = AdamState(lr=1e-3)
            for _ in range(20):
                gradient_step(pair, adam, batch)
            return pair.parameters()

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_blocked_update_matches_textbook_adam(self):
        # the first Adam block ends inside net_r's first weight matrix
        pair = float64_copy(tiny_pair(seed=4, in_r=300, in_t=50, hidden_r=(120,), joint=16, keep=0.75))
        assert ADAM_BLOCK < pair.net_r.weights[0].size < pair.flat.size
        # eps is near the gradient scale, so folding it wrongly moves the result
        lr, decay, every, b1, b2, eps = 1e-3, 0.9, 10, 0.9, 0.999, 1e-2
        adam = AdamState(lr=lr, decay=decay, decay_every=every, beta1=b1, beta2=b2, eps=eps)
        ref = pair.flat.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        rng = np.random.default_rng(8)
        for step in range(32):
            batch = random_batch(rng, in_r=300, in_t=50, n_r=5, n_t=6)
            # the same dropout masks for the reference gradients and the step
            state = pair.train_rng.bit_generator.state
            g = pairwise_contrastive_loss(pair, batch, training=True)[1].copy()
            pair.train_rng.bit_generator.state = state
            gradient_step(pair, adam, batch)
            t = step + 1
            lr_t = lr * decay ** (step // every)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref -= lr_t * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(pair.flat, ref, rtol=1e-10, atol=0)
        assert adam.effective_lr() == pytest.approx(lr * decay**3, rel=1e-12)


class TestSampler:
    def links_fixture(self):
        links = {
            "A": [("A", f"mA{i}") for i in range(100)],
            "B": [("B", "mB0")],
        }
        return links

    def test_every_batch_contains_a_positive(self):
        sampler = SamplerState(self.links_fixture(), batch_size=4, seed=0)
        for _ in range(100):
            pairs = sampler.sample_pairs()
            assert len(pairs) == 4

    def test_skew_compensation(self):
        sampler = SamplerState(self.links_fixture(), batch_size=4, seed=1)
        for _ in range(10000):
            sampler.sample_pairs()
        seen_a, seen_b = sampler.seen["A"], sampler.seen["B"]
        # uniform sampling over links would give roughly seen_b = seen_a / 100
        assert seen_b >= 0.25 * seen_a

    def test_trainable_entities_only(self):
        links = {
            "train1": [("train1", "m1")],
            "train2": [("train2", "m2")],
        }
        sampler = SamplerState(links, batch_size=8, seed=2)
        vectors_r = {"train1": np.ones(3), "train2": np.zeros(3)}
        vectors_t = {"m1": np.ones(2), "m2": np.zeros(2)}
        for _ in range(50):
            batch = sample_batch(sampler, vectors_r, vectors_t)
            assert set(batch.tuple_keys) <= {"train1", "train2"}
            assert batch.pos_pairs

    def test_in_batch_gold_marked_positive(self):
        # two links on the same entity: if both land in a batch, the cross
        # pair must be positive whenever gold says so
        links = {"E": [("E", "m1"), ("E", "m2")]}
        sampler = SamplerState(links, batch_size=8, seed=3)
        vectors_r = {"E": np.ones(3)}
        vectors_t = {"m1": np.ones(2), "m2": np.zeros(2)}
        batch = sample_batch(sampler, vectors_r, vectors_t)
        assert set(batch.pos_pairs) == {
            (batch.tuple_keys.index("E"), j) for j in range(len(batch.mention_ids))
        }

    def test_mention_gold_for_two_batch_tuples_is_positive_for_both(self):
        # m1 is gold for two tuple records of one entity; F and m1 are both
        # in the batch but not linked, so that pair is a negative
        links = {"E": [("E", "m1"), ("E#2", "m1")], "F": [("F", "m2")]}
        sampler = SamplerState(links, batch_size=16, seed=5)
        assert sampler.gold == {"E": {"m1"}, "E#2": {"m1"}, "F": {"m2"}}
        vectors_r = {key: np.ones(3) for key in ("E", "E#2", "F")}
        vectors_t = {mid: np.ones(2) for mid in ("m1", "m2")}
        batch = sample_batch(sampler, vectors_r, vectors_t)
        assert sorted(batch.tuple_keys) == ["E", "E#2", "F"]
        t, m = batch.tuple_keys.index, batch.mention_ids.index
        assert batch.pos_pairs == sorted([(t("E"), m("m1")), (t("E#2"), m("m1")),
                                          (t("F"), m("m2"))])
        assert (t("F"), m("m1")) not in batch.pos_pairs

    def test_no_links_rejected(self):
        with pytest.raises(ValueError, match="no gold links"):
            SamplerState({}, batch_size=4, seed=0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        pair = tiny_pair(seed=11, keep=0.75, live_r=[0, 3, 4, 7], live_t=[1, 2, 9])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, pair, step=42)
        again, header = load_checkpoint(path)
        assert header["step"] == 42 and header["format_version"] == 2
        assert header["live_r"] == [0, 3, 4, 7] and header["live_t"] == [1, 2, 9]
        assert (again.net_r.raw_dim, again.net_t.raw_dim) == (8, 10)
        np.testing.assert_array_equal(again.net_r.live, pair.net_r.live)
        np.testing.assert_array_equal(again.net_t.live, pair.net_t.live)
        assert again.flat.dtype == np.float32
        for a, b in zip(pair.parameters(), again.parameters()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(0).normal(size=(3, 8))
        np.testing.assert_array_equal(pair.net_r.embed(x), again.net_r.embed(x))
        resaved = tmp_path / "again.ckpt"
        save_checkpoint(resaved, again, step=42)
        assert resaved.read_bytes() == path.read_bytes()

    def test_body_is_the_live_parameters_in_float32(self, tmp_path):
        pair = tiny_pair(seed=11, live_r=[1, 5], live_t=[0, 4, 8])
        assert pair.flat.size == 6 * (2 + 1) + 4 * (6 + 1) + 4 * (3 + 1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, pair)
        blob = path.read_bytes()
        assert blob[-4 * pair.flat.size :] == pair.flat.astype("<f4").tobytes()
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(path, float64_copy(pair))

    def test_truncated_checkpoint_rejected(self, tmp_path):
        pair = tiny_pair(seed=12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, pair)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(TrainingError, match="truncated"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import struct as _struct

        pair = tiny_pair(seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, pair)
        data = bytearray(path.read_bytes())
        for version in (1, 99):
            data[4:8] = _struct.pack("<I", version)
            path.write_bytes(bytes(data))
            with pytest.raises(TrainingError, match="version .*rerun `tablelink train`"):
                load_checkpoint(path)


class TestCompactPair:
    def test_live_columns_keep_the_values_of_the_full_draw(self):
        live_r, live_t = np.array([0, 2, 150, 299]), np.array([3, 9])
        compact = tiny_pair(seed=6, in_r=300, in_t=10, hidden_r=(70,), joint=4,
                            live_r=live_r, live_t=live_t)
        assert 70 > INIT_BLOCK_ROWS  # the first layer is drawn in two blocks
        full = glorot_f64(6, [300, 70, 4], [10, 4])
        expected = [full[0].weights[0][:, live_r], full[0].biases[0], full[0].weights[1],
                    full[0].biases[1], full[1].weights[0][:, live_t], full[1].biases[0]]
        assert compact.flat.dtype == np.float32
        for actual, drawn in zip(compact.parameters(), expected, strict=True):
            np.testing.assert_array_equal(actual, drawn.astype(np.float32))

    def test_embedding_reads_only_the_live_columns_in_f32(self):
        live_r = np.array([1, 4, 6])
        pair = tiny_pair(seed=7, live_r=live_r)
        dense = float64_copy(tiny_pair(seed=7))
        w = np.zeros_like(dense.net_r.weights[0])
        w[:, live_r] = pair.net_r.weights[0]
        dense.net_r.weights[0][...] = w
        for p, q in zip(dense.parameters()[1:], pair.parameters()[1:]):
            p[...] = q
        x = np.random.default_rng(1).normal(size=(5, 8))
        out = pair.net_r.embed(x)
        assert out.tobytes() == pair.net_r.forward(x[:, live_r].astype(np.float32))[0].tobytes()
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, dense.net_r.embed(x), rtol=1e-5, atol=1e-6)
        with pytest.raises(ValueError, match="input dim 7"):
            pair.net_r.embed(x[:, :7])

    @pytest.mark.parametrize("live, match", [
        ([0, 5, 3], "does not strictly ascend"),
        ([0, 3, 3], "does not strictly ascend"),
        ([0, 3, 8], "leaves the input range"),
        ([-1, 3, 5], "leaves the input range"),
        ([0, 3], "lists 2 columns; the first layer reads 3"),
        ([0.0, 3.0, 5.0], "not column indices"),
    ])
    def test_bad_live_table_rejected(self, live, match):
        net = tiny_pair(seed=8, live_r=[0, 3, 5]).net_r
        with pytest.raises(ValueError, match=match):
            DenseNet(net.weights, net.biases, live=live, raw_dim=8)


class TestTrainLoop:
    def test_history_holds_one_row_per_step(self):
        links = {"E1": [("E1", "m1")], "E2": [("E2", "m2")]}
        sampler = SamplerState(links, batch_size=4, seed=0)
        rng = np.random.default_rng(7)
        vectors_r = {"E1": rng.normal(size=6), "E2": rng.normal(size=6)}
        vectors_t = {"m1": rng.normal(size=6), "m2": rng.normal(size=6)}
        pair = tiny_pair(seed=1, in_r=6, in_t=6)
        adam = AdamState(lr=1e-3)
        history = train_pair(pair, adam, sampler, vectors_r, vectors_t, batches=10)
        assert len(history) == 10
        assert [h[0] for h in history] == list(range(10))

    def sparse_fixture(self):
        """Six entities whose rows leave some columns zero, plus rows no link reaches."""
        rng = np.random.default_rng(21)
        vectors_r, vectors_t, links = {}, {}, {}
        for i in range(6):
            vectors_r[f"E{i}"] = np.zeros(12)
            vectors_r[f"E{i}"][[2 + i, 8 + i % 3]] = rng.normal(size=2)
            for j in range(2):
                mid = f"m{i}.{j}"
                vectors_t[mid] = np.zeros(10)
                vectors_t[mid][[1 + i, 7 + j]] = rng.normal(size=2)
            links[f"E{i}"] = [(f"E{i}", f"m{i}.{j}") for j in range(2)]
        # columns 11 and 9 are nonzero only in rows that no link reaches
        vectors_r["X"] = rng.normal(size=12)
        vectors_t["mX"] = rng.normal(size=10)
        return links, vectors_r, vectors_t, [0, 1, 11], [0, 9]

    def compact_pair(self, vectors_r, vectors_t, links):
        """The float32 pair ``cli.stage_train`` builds: first layers on the columns drawable rows set."""
        drawable = [link for pairs in links.values() for link in pairs]
        return tiny_pair(seed=5, in_r=12, in_t=10, hidden_r=(6,), joint=4, keep=0.75,
                         live_r=live_columns(vectors_r, {tk for tk, _ in drawable}),
                         live_t=live_columns(vectors_t, {mid for _, mid in drawable}))

    def test_only_reachable_columns_train_and_match_dense_training(self):
        links, vectors_r, vectors_t, dead_r, dead_t = self.sparse_fixture()
        batches, hidden = 40, 6
        pair = self.compact_pair(vectors_r, vectors_t, links)
        live_r = np.setdiff1d(np.arange(12), dead_r)
        live_t = np.setdiff1d(np.arange(10), dead_t)
        np.testing.assert_array_equal(pair.net_r.live, live_r)
        np.testing.assert_array_equal(pair.net_t.live, live_t)
        init_r, init_t = pair.net_r.weights[0].copy(), pair.net_t.weights[0].copy()
        adam = AdamState(lr=1e-2)
        history = train_pair(pair, adam, SamplerState(links, batch_size=2, seed=3),
                             vectors_r, vectors_t, batches=batches)

        # the dense reference trains every column, in float32 too
        ref = tiny_pair(seed=5, in_r=12, in_t=10, hidden_r=(hidden,), joint=4, keep=0.75)
        ref_adam = AdamState(lr=1e-2)
        ref_sampler = SamplerState(links, batch_size=2, seed=3)
        ref_losses = []
        for _ in range(batches):
            batch = sample_batch(ref_sampler, vectors_r, vectors_t)
            ref_losses.append(gradient_step(ref, ref_adam, batch)[0])

        # the dead columns have no weights; every live value is the dense one, bit for bit
        w_r, w_t = pair.net_r.weights[0], pair.net_t.weights[0]
        assert w_r.shape == (hidden, len(live_r)) and w_t.shape == (4, len(live_t))
        assert not np.array_equal(w_r, init_r) and not np.array_equal(w_t, init_t)
        np.testing.assert_array_equal(w_r, ref.net_r.weights[0][:, live_r])
        np.testing.assert_array_equal(w_t, ref.net_t.weights[0][:, live_t])
        for actual, expected in zip(pair.parameters(), ref.parameters()):
            if actual is not w_r and actual is not w_t:
                np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal([h[2] for h in history], ref_losses)
        assert adam.step == ref_adam.step == batches
        assert adam.m.size == pair.flat.size == ref.flat.size - hidden * len(dead_r) - 4 * len(dead_t)

    def test_checkpoint_holds_the_values_of_dense_then_write_back_training(self, tmp_path):
        links, vectors_r, vectors_t, dead_r, dead_t = self.sparse_fixture()
        pair = self.compact_pair(vectors_r, vectors_t, links)
        init = pair.flat.copy()
        train_pair(pair, AdamState(lr=1e-2), SamplerState(links, batch_size=2, seed=3),
                   vectors_r, vectors_t, batches=20)
        assert not np.array_equal(pair.flat, init)
        save_checkpoint(tmp_path / "model.ckpt", pair, step=20)
        stored, header = load_checkpoint(tmp_path / "model.ckpt")

        # the former trainer: a full f64 pair, its live columns trained in float32
        # on a compact copy and written back, its dead columns left at their init
        full = EmbedderPair(*glorot_f64(5, [12, 6, 4], [10, 4]), joint_dim=4, margin=0.2, seed=5)
        lives = (pair.net_r.live, pair.net_t.live)
        compact = EmbedderPair(
            *[DenseNet([w.astype(np.float32) for w in (net.weights[0][:, live], *net.weights[1:])],
                       [b.astype(np.float32) for b in net.biases], keep_prob=net.keep_prob,
                       live=live, raw_dim=raw_dim)
              for net, live, raw_dim in zip((full.net_r, full.net_t), lives, (12, 10))],
            joint_dim=4, margin=full.margin, seed=full.seed, train_rng=full.train_rng)
        train_pair(compact, AdamState(lr=1e-2), SamplerState(links, batch_size=2, seed=3),
                   vectors_r, vectors_t, batches=20)
        for net, trained, live in zip((full.net_r, full.net_t), (compact.net_r, compact.net_t), lives):
            net.weights[0][:, live] = trained.weights[0]
            for p, value in zip(net.weights[1:] + net.biases, trained.weights[1:] + trained.biases):
                p[...] = value

        # every stored value widens to the former f64 value; the dead columns are not stored
        assert header["live_r"] == [c for c in range(12) if c not in dead_r]
        assert header["live_t"] == [c for c in range(10) if c not in dead_t]
        assert stored.flat.dtype == np.float32
        assert stored.flat.size == full.flat.size - 6 * len(dead_r) - 4 * len(dead_t)
        for net, former, live in zip((stored.net_r, stored.net_t), (full.net_r, full.net_t), lives):
            np.testing.assert_array_equal(net.weights[0].astype(np.float64), former.weights[0][:, live])
            for p, q in zip(net.weights[1:] + net.biases, former.weights[1:] + former.biases):
                np.testing.assert_array_equal(p.astype(np.float64), q)


class TestDtypeFollowsArrays:
    def test_float32_pair_steps_in_float32(self):
        pair = tiny_pair(seed=2, keep=0.75)
        batch = random_batch(np.random.default_rng(3))
        out, cache = pair.net_r.forward(batch.x_tuples, training=True, rng=pair.train_rng)
        assert out.dtype == np.float32
        assert all(arr.dtype == np.float32 for layer in cache for arr in layer if arr is not None)
        loss, d_er, d_et, _ = loss_from_embeddings(out, pair.net_t.forward(batch.x_mentions)[0],
                                                   batch.pos_pairs, 1.0)
        assert loss > 0 and d_er.dtype == d_et.dtype == np.float32
        adam = AdamState(lr=1e-3)
        for _ in range(3):
            gradient_step(pair, adam, batch)
        arrays = (pair.flat, pair.grad, adam.m, adam.v, adam.scratch)
        assert all(arr.dtype == np.float32 for arr in arrays)

    def test_moments_of_another_dtype_rejected(self):
        batch = random_batch(np.random.default_rng(3))
        adam = AdamState()
        gradient_step(float64_copy(tiny_pair(seed=2)), adam, batch)
        with pytest.raises(ValueError, match="float64 parameters, the pair .* float32"):
            gradient_step(tiny_pair(seed=2), adam, batch)
