"""``cross_entropy`` and ``blend`` on random draws against plain numpy
references: every value and gradient within 1e-12, with the logits shifted by
±1e4 too, plus a central-difference check on each unshifted draw."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close, grads_of, sum_all

from jointslu import autodiff as ad
from jointslu.autodiff import Rng

# Logits lie on a 2**-30 grid in [-3, 3], so adding ±1e4 is exact: a shifted
# draw holds the same logits as the unshifted one, and each reference reads the
# unshifted logits, where the textbook exp / log cannot overflow.
GRID = 2.0 ** -30
SHIFTS = st.sampled_from([0.0, 1e4, -1e4])


def grid_logits(rng, shape):
    return np.round(rng.uniform(-3, 3, shape) / GRID) * GRID


def central_differences(f, p, eps=1e-6):
    flat = p.values.reshape(-1)
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f().item()
        flat[i] = orig - eps
        down = f().item()
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * eps)
    return numeric.reshape(p.shape)


def assert_matches_differences(f, params):
    for p, analytic in zip(params, grads_of(f, params)[1]):
        assert np.allclose(analytic, central_differences(f, p), rtol=1e-6, atol=1e-8)


def softmax_rows(z):
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestCrossEntropyDifferential:
    @given(n=st.integers(1, 8), K=st.integers(1, 6), per_row=st.booleans(),
           shift=SHIFTS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradient(self, n, K, per_row, shift, seed):
        rng = Rng(seed)
        z0 = grid_logits(rng, (n, K))
        ids = rng.integers(0, K, n)
        if per_row:
            weights = rng.uniform(0, 2, n)
            weights[rng.random(n) < 0.3] = 0.0      # dropped rows
        else:
            weights = float(rng.uniform(0, 2))
        scale = ad.constant([rng.uniform(-2, 2)])   # the adjoint reaching the op
        z = ad.parameter(z0 + shift)

        def f():
            return ad.mul(ad.cross_entropy(z, ids, weights), scale)

        w = np.broadcast_to(weights, (n,))
        rows = np.arange(n)
        want_value = (w * (np.log(np.exp(z0).sum(axis=1)) - z0[rows, ids])).sum()
        want_grad = (softmax_rows(z0) - np.eye(K)[ids]) * w[:, None] * scale.values[0]
        assert_close(ad.cross_entropy(z, ids, weights).values, np.array([want_value]))
        (grad,) = grads_of(f, [z])[1]
        assert_close(grad, want_grad)
        assert np.all(grad[w == 0.0] == 0.0)
        if shift == 0.0:
            assert_matches_differences(f, [z])


class TestBlendDifferential:
    @given(n=st.integers(1, 6), m=st.integers(1, 6), shift=SHIFTS,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradients(self, n, m, shift, seed):
        rng = Rng(seed)
        rational = ad.parameter(rng.uniform(-2, 2, (n, m)))
        intuitive = ad.parameter(rng.uniform(-2, 2, (n, m)))
        z0 = grid_logits(rng, (n, m))
        z = ad.parameter(z0 + shift)
        adjoint = rng.uniform(-1, 1, (n, m))
        params = [rational, intuitive, z]

        def f():
            return sum_all(ad.mul(ad.blend(rational, intuitive, z), ad.constant(adjoint)))

        r = softmax_rows(z0)
        diff = rational.values - intuitive.values
        gd = adjoint * diff
        want = [adjoint * r, adjoint * (1.0 - r), r * (gd - (gd * r).sum(axis=1, keepdims=True))]
        assert_close(ad.blend(rational, intuitive, z).values, intuitive.values + r * diff)
        for got, w in zip(grads_of(f, params)[1], want):
            assert_close(got, w)
        if shift == 0.0:
            assert_matches_differences(f, params)
