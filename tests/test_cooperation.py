import numpy as np
import pytest

from conftest import sum_all

from jointslu import autodiff as ad
from jointslu import cooperation as coop
from jointslu.autodiff import Rng, ShapeError


def gate_scores(h_rational, p):
    """The score vector r that ``fuse`` applies: the row softmax of the gate's logits."""
    return ad.softmax(coop.gate(h_rational, p), axis=1)


class TestGate:
    def test_width_one_is_always_one(self):
        p = coop.init_mlp(1, Rng(0))
        r = gate_scores(ad.constant([[3.7]]), p)
        assert np.array_equal(r.values, [[1.0]])

    def test_equal_logits_give_uniform(self):
        p = coop.MlpParams(w1=ad.constant(np.zeros((4, 4))), b1=ad.constant(np.zeros(4)),
                           w2=ad.constant(np.zeros((4, 4))), b2=ad.constant(np.zeros(4)))
        r = gate_scores(ad.constant(np.ones((2, 4))), p)
        assert np.allclose(r.values, 0.25)

    def test_entries_in_open_interval(self):
        rng = Rng(1)
        p = coop.init_mlp(5, rng)
        r = gate_scores(ad.constant(rng.uniform(-2, 2, (3, 5))), p).values
        assert np.all((r > 0) & (r < 1))
        assert np.allclose(r.sum(axis=1), 1.0)

    def test_gradient_through_gate_and_fuse(self):
        rng = Rng(2)
        p = coop.init_mlp(4, rng)
        h_rs = ad.parameter(rng.uniform(-1, 1, (2, 4)))
        h_is = ad.parameter(rng.uniform(-1, 1, (2, 4)))

        def f():
            return sum_all(ad.tanh(coop.fuse(h_rs, h_is, coop.gate(h_rs, p))))

        err = ad.grad_check(f, [h_rs, h_is, p.w1, p.b1, p.w2, p.b2], 1e-5)
        assert err <= 1e-5


class TestFuse:
    def test_width_one_degenerate_gate(self):
        h_rs = ad.constant([[2.0]])
        h_is = ad.constant([[-9.0]])
        out = coop.fuse(h_rs, h_is, ad.constant([[1.0]]))
        assert np.array_equal(out.values, h_rs.values)

    def test_blend_of_equals(self):
        rng = Rng(3)
        h = rng.uniform(-1, 1, (2, 4))
        z = rng.uniform(-1, 1, (2, 4))
        out = coop.fuse(ad.constant(h), ad.constant(h), ad.constant(z))
        assert np.allclose(out.values, h, atol=1e-15)

    def test_matches_direct_arithmetic(self):
        rng = Rng(4)
        h_rs = rng.uniform(-1, 1, (1, 4))
        h_is = rng.uniform(-1, 1, (1, 4))
        z = rng.uniform(-2, 2, (1, 4))
        r = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        out = coop.fuse(ad.constant(h_rs), ad.constant(h_is), ad.constant(z))
        assert np.abs(out.values - (h_rs * r + h_is * (1 - r))).max() <= 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            coop.fuse(ad.constant(np.ones((1, 2))), ad.constant(np.ones((1, 3))),
                      ad.constant(np.ones((1, 2))))
        with pytest.raises(ShapeError):
            coop.fuse(ad.constant(np.ones((1, 2))), ad.constant(np.ones((1, 2))),
                      ad.constant(np.ones((1, 3))))

    def test_convexity_bound(self):
        rng = Rng(5)
        p = coop.init_mlp(4, rng)
        for _ in range(50):
            h_rs = ad.constant(rng.uniform(-2, 2, (1, 4)))
            h_is = ad.constant(rng.uniform(-2, 2, (1, 4)))
            out = coop.fuse(h_rs, h_is, coop.gate(h_rs, p)).values
            lo = np.minimum(h_rs.values, h_is.values)
            hi = np.maximum(h_rs.values, h_is.values)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def time_major(steps):
    """One [T*B, d] tensor from T per-step [B, d] arrays."""
    return ad.constant(np.vstack(steps))


class TestFuseIntent:
    def test_single_token(self):
        blend = time_major([[[1.0, 2.0]]])
        out = coop.fuse_intent(blend, np.array([[True]]))
        assert np.array_equal(out.values, [[1.0, 2.0]])

    def test_sum_not_mean(self):
        b = [[1.0, 2.0]]
        doubled = coop.fuse_intent(time_major([b, b]), np.array([[True, True]]))
        assert np.array_equal(doubled.values, [[2.0, 4.0]])

    def test_padded_tokens_contribute_zero(self):
        b = [[1.0, 2.0], [3.0, 4.0]]
        mask = np.array([[True, False], [True, True]])
        out = coop.fuse_intent(time_major([b, b]), mask)
        assert np.array_equal(out.values, [[1.0, 2.0], [6.0, 8.0]])

    def test_permutation_equivariance(self):
        rng = Rng(6)
        blends = [rng.uniform(-1, 1, (2, 3)) for _ in range(4)]
        mask = np.ones((2, 4), dtype=bool)
        a = coop.fuse_intent(time_major(blends), mask)
        order = [2, 0, 3, 1]
        b = coop.fuse_intent(time_major([blends[i] for i in order]), mask[:, order])
        assert np.allclose(a.values, b.values)


class TestPredict:
    def test_zero_weights_give_uniform_and_index_zero(self):
        h_slot = time_major([np.ones((2, 3))])
        h_intent = ad.constant(np.ones((2, 3)))
        w_s = ad.constant(np.zeros((4, 3)))
        w_i = ad.constant(np.zeros((5, 3)))
        z_slot, z_intent = coop.predict(h_slot, h_intent, w_s, w_i)
        assert np.allclose(ad.softmax(z_slot, axis=1).values, 0.25)
        assert np.allclose(ad.softmax(z_intent, axis=1).values, 0.2)
        assert z_intent.values.argmax(axis=1).tolist() == [0, 0]

    def test_rows_sum_to_one(self):
        rng = Rng(7)
        h_slot = time_major([rng.uniform(-1, 1, (2, 3)) for _ in range(2)])
        h_intent = ad.constant(rng.uniform(-1, 1, (2, 3)))
        w_s = ad.constant(rng.uniform(-1, 1, (4, 3)))
        w_i = ad.constant(rng.uniform(-1, 1, (5, 3)))
        z_slot, z_intent = coop.predict(h_slot, h_intent, w_s, w_i)
        assert np.array_equal(z_slot.values, h_slot.values @ w_s.values.T)
        assert np.array_equal(z_intent.values, h_intent.values @ w_i.values.T)
        for z in (z_slot, z_intent):
            assert np.abs(ad.softmax(z, axis=1).values.sum(axis=1) - 1.0).max() <= 1e-12
