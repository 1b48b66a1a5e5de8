import numpy as np
import pytest

from jointslu import autodiff as ad
from jointslu import encoder as enc
from jointslu.autodiff import Rng, ShapeError, Tape


def reference_attention(x, mask, w, b):
    """Plain-numpy attention, one utterance and one query at a time, over
    time-major x [T*B, d] and mask [B, T]; returns (context, weights)."""
    B, T = mask.shape
    xs = x.reshape(T, B, -1)
    pos = np.arange(T)
    prior = -np.abs(w * (pos[:, None] - pos[None, :]) ** 2 + b)
    context = np.zeros_like(xs)
    weights = np.zeros((B, T, T))
    for i in range(B):
        keys = np.flatnonzero(mask[i])
        if not keys.size:
            continue
        xi = xs[:, i]
        scores = xi @ xi.T + prior
        for q in range(T):
            e = np.exp(scores[q, keys] - scores[q, keys].max())
            weights[i, q, keys] = e / e.sum()
            if mask[i, q]:
                context[q, i] = weights[i, q] @ xi
    return context.reshape(T * B, -1), weights


def padded_mask(rng, B, T):
    lengths = [T] + [int(rng.integers(1, T + 1)) for _ in range(B - 1)]
    return np.arange(T)[None, :] < np.array(lengths)[:, None]


class TestGaussianAttentionOp:
    @pytest.mark.parametrize("B,T,d", [(1, 1, 3), (1, 5, 2), (4, 6, 3), (7, 9, 5)])
    def test_matches_per_utterance_reference(self, B, T, d):
        rng = Rng(20 + B)
        x = rng.uniform(-1.5, 1.5, (T * B, d))
        mask = padded_mask(rng, B, T)
        for w, b in ((0.7, -0.5), (1.0, -1.0), (1e-3, -2.0)):
            c, weights = ad.gaussian_attention(ad.constant(x), mask, ad.constant([w]),
                                               ad.constant([b]))
            c_ref, w_ref = reference_attention(x, mask, w, b)
            assert np.abs(c.values - c_ref).max() <= 1e-12
            assert np.abs(weights - w_ref).max() <= 1e-12

    @pytest.mark.parametrize("B,T", [(1, 1), (3, 4)])
    def test_gradient_with_padding(self, B, T):
        rng = Rng(30 + T)
        x = ad.parameter(rng.uniform(-1, 1, (T * B, 3)))
        attn = enc.GaussianAttentionParams(w_raw=ad.parameter([0.3]),
                                           b_raw=ad.parameter([-0.2]))
        mask = padded_mask(rng, B, T)
        probe = ad.constant(rng.uniform(-1, 1, (T * B, 3)))

        def f():
            c, _ = ad.gaussian_attention(x, mask, *attn.effective())
            return ad.sum_all(ad.mul(ad.tanh(c), probe))

        assert ad.grad_check(f, [x, attn.w_raw, attn.b_raw], 1e-5) <= 1e-6

    def test_kink_takes_sign_zero(self):
        # w = 1, b = -1 puts w * d^2 + b exactly at 0 for neighbours, the only
        # pairs with d^2 != 0, so nothing reaches w
        x = ad.parameter([[0.5, -1.0], [2.0, 0.3]])
        w, b = ad.parameter([1.0]), ad.parameter([-1.0])
        with Tape():
            c, _ = ad.gaussian_attention(x, np.ones((1, 2), dtype=bool), w, b)
            ad.backward(ad.sum_all(ad.mul(c, c)))
        assert w.grad[0] == 0.0
        assert b.grad[0] != 0.0

    def test_utterance_with_every_token_masked(self):
        rng = Rng(40)
        x = ad.parameter(rng.uniform(-1, 1, (3 * 2, 4)))
        mask = np.array([[True, True, False], [False, False, False]])
        with Tape():
            c, weights = ad.gaussian_attention(x, mask, ad.constant([1.0]), ad.constant([-0.5]))
            ad.backward(ad.sum_all(c))
        assert np.array_equal(weights[1], np.zeros((3, 3)))
        assert np.array_equal(c.values.reshape(3, 2, 4)[:, 1], np.zeros((3, 4)))
        assert np.array_equal(x.grad.reshape(3, 2, 4)[:, 1], np.zeros((3, 4)))
        assert np.isfinite(c.values).all() and np.isfinite(x.grad).all()

    def test_shape_errors(self):
        x = ad.constant(np.ones((6, 2)))
        one = ad.constant([1.0])
        with pytest.raises(ShapeError):
            ad.gaussian_attention(x, np.ones((2, 2), dtype=bool), one, one)
        with pytest.raises(ShapeError):
            ad.gaussian_attention(x, np.ones(6, dtype=bool), one, one)
        with pytest.raises(ShapeError):
            ad.gaussian_attention(x, np.ones((2, 3), dtype=bool), ad.constant([1.0, 2.0]), one)
        with pytest.raises(ShapeError):
            ad.gaussian_attention(ad.constant(np.ones(6)), np.ones((2, 3), dtype=bool), one, one)

    def test_utterance_mask_gives_utterance_weights(self):
        rng = Rng(41)
        x = ad.constant(rng.uniform(-1, 1, (4, 3)))
        mask = np.array([True, True, True, False])
        c, weights = enc.gaussian_self_attention(x, mask, ad.constant([1.0]),
                                                 ad.constant([-0.5]))
        c_ref, w_ref = reference_attention(x.values, mask[None, :], 1.0, -0.5)
        assert weights.shape == (4, 4)
        assert np.abs(weights - w_ref[0]).max() <= 1e-12
        assert np.abs(c.values - c_ref).max() <= 1e-12
