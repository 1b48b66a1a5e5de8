import numpy as np
import pytest

from conftest import sum_all

from jointslu import autodiff as ad
from jointslu import encoder as enc
from jointslu.autodiff import Rng, ShapeError, Tape


def reference_attention(x, mask, w, b):
    """Plain-numpy attention, one utterance and one query at a time, over
    time-major x [T*B, d] and mask [B, T], with the prior's w and b as given
    (not raw); returns (context, weights)."""
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
        for w_raw, b_raw in ((np.log(0.7), np.log(0.5)), (0.0, 0.0), (np.log(1e-3), np.log(2.0))):
            c, weights = ad.gaussian_attention(ad.constant(x), mask, ad.constant([w_raw]),
                                               ad.constant([b_raw]))
            c_ref, w_ref = reference_attention(x, mask, np.exp(w_raw), -np.exp(b_raw))
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
            c, _ = ad.gaussian_attention(x, mask, attn.w_raw, attn.b_raw)
            return sum_all(ad.mul(ad.tanh(c), probe))

        assert ad.grad_check(f, [x, attn.w_raw, attn.b_raw], 1e-5) <= 1e-6

    def test_kink_takes_sign_zero(self):
        # raw 0 gives w = 1, b = -1, which puts w * d^2 + b exactly at 0 for
        # neighbours, the only pairs with d^2 != 0, so nothing reaches w_raw
        x = ad.parameter([[0.5, -1.0], [2.0, 0.3]])
        w_raw, b_raw = ad.parameter([0.0]), ad.parameter([0.0])
        with Tape():
            c, _ = ad.gaussian_attention(x, np.ones((1, 2), dtype=bool), w_raw, b_raw)
            ad.backward(sum_all(ad.mul(c, c)))
        assert w_raw.grad[0] == 0.0
        assert b_raw.grad[0] != 0.0

    @pytest.mark.parametrize("B,T,mask", [
        (3, 1, [[True], [False], [True]]),       # utterance 1 fully masked
        (1, 3, [[True, True, False]]),           # a masked last token
    ])
    def test_backward_leaves_a_shared_adjoint_intact(self, B, T, mask):
        # at T == 1 or B == 1 the batch-major view of the incoming adjoint is
        # the adjoint itself; add hands that same array to tanh(z0), which is
        # recorded first and so reads it after attention's backward ran
        rng = Rng(5)
        x = ad.parameter(rng.uniform(-1, 1, (T * B, 4)))
        z0 = ad.parameter(rng.uniform(-1, 1, (T * B, 4)))
        w = ad.parameter(rng.uniform(-1, 1, (3, 4)))
        w_raw, b_raw = ad.parameter([0.2]), ad.parameter([-0.3])
        ids = rng.integers(0, 3, T * B)
        mask = np.array(mask)

        def f():
            t = ad.tanh(z0)
            c, _ = ad.gaussian_attention(x, mask, w_raw, b_raw)
            return ad.cross_entropy(ad.linear(ad.add(c, t), w), ids)

        assert ad.grad_check(f, [x, z0, w, w_raw, b_raw], 1e-6) <= 1e-6

    def test_utterance_with_every_token_masked(self):
        rng = Rng(40)
        x = ad.parameter(rng.uniform(-1, 1, (3 * 2, 4)))
        mask = np.array([[True, True, False], [False, False, False]])
        with Tape():
            c, weights = ad.gaussian_attention(x, mask, ad.constant([1.0]), ad.constant([-0.5]))
            ad.backward(sum_all(c))
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
        c, weights = enc.gaussian_self_attention(x, mask, ad.constant([0.0]),
                                                 ad.constant([np.log(0.5)]))
        c_ref, w_ref = reference_attention(x.values, mask[None, :], 1.0, -0.5)
        assert weights.shape == (4, 4)
        assert np.abs(weights - w_ref[0]).max() <= 1e-12
        assert np.abs(c.values - c_ref).max() <= 1e-12
