import numpy as np
import pytest

from conftest import sum_all

from jointslu import autodiff as ad
from jointslu import encoder as enc
from jointslu.autodiff import Rng, ShapeError, Tape


def encode_rows(x, mask, fwd, bwd):
    """``[h_fwd, h_bwd]`` of time-major rows x [T*B, in] under a [B, T] mask,
    through ``encode_batch`` with x as the embedding table."""
    x = x if isinstance(x, ad.Tensor) else ad.constant(x)
    B, T = mask.shape
    ids = np.arange(T * B).reshape(T, B).T
    return enc.encode_batch(ids, mask, enc.EmbeddingTable(x, pad_id=0), fwd, bwd, None)


def zero_lstm(in_size, h):
    return enc.LstmParams(w_x=ad.constant(np.zeros((4 * h, in_size))),
                          w_h=ad.constant(np.zeros((4 * h, h))),
                          b=ad.constant(np.zeros(4 * h)))


class TestEmbedding:
    def test_pad_row_is_zero(self):
        table = enc.init_embedding(6, 4, Rng(0))
        out = enc.embed(np.array([0, 2]), table)
        assert np.array_equal(out.values[0], np.zeros(4))
        assert not np.array_equal(out.values[1], np.zeros(4))

    def test_repeated_token_identical_rows(self):
        table = enc.init_embedding(6, 4, Rng(0))
        out = enc.embed(np.array([3, 3]), table)
        assert np.array_equal(out.values[0], out.values[1])

    def test_out_of_range_id(self):
        table = enc.init_embedding(6, 4, Rng(0))
        with pytest.raises(IndexError):
            enc.embed(np.array([6]), table)

    def test_gradient_scatters_counts(self):
        table = enc.init_embedding(6, 4, Rng(0))
        ids = np.array([2, 2, 5])
        with Tape():
            ad.backward(sum_all(enc.embed(ids, table)))
        expected = np.zeros((6, 4))
        expected[2] = 2.0
        expected[5] = 1.0
        assert np.array_equal(table.table.grad, expected)


class TestLstmStep:
    def test_zero_params_zero_state(self):
        p = zero_lstm(3, 2)
        h, c = enc.lstm_step(ad.constant(np.ones((1, 3))), ad.constant(np.zeros((1, 2))),
                             ad.constant(np.zeros((1, 2))), p)
        assert np.array_equal(h.values, np.zeros((1, 2)))
        assert np.array_equal(c.values, np.zeros((1, 2)))

    def test_zero_params_halve_cell(self):
        p = zero_lstm(3, 2)
        c_prev = np.array([[0.4, -0.8]])
        _, c = enc.lstm_step(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((1, 2))),
                             ad.constant(c_prev), p)
        assert np.allclose(c.values, 0.5 * c_prev)

    def test_dimension_mismatch(self):
        p = zero_lstm(3, 2)
        with pytest.raises(ShapeError):
            enc.lstm_step(ad.constant(np.ones((1, 4))), ad.constant(np.zeros((1, 2))),
                          ad.constant(np.zeros((1, 2))), p)

    def test_gradient_through_three_steps(self):
        rng = Rng(1)
        p = enc.init_lstm(3, 4, rng)
        xs = ad.parameter(rng.uniform(-1, 1, (3, 3)))

        def f():
            h = ad.constant(np.zeros((1, 4)))
            c = ad.constant(np.zeros((1, 4)))
            for t in range(3):
                h, c = enc.lstm_step(ad.take_rows(xs, [t]), h, c, p)
            return sum_all(h)

        err = ad.grad_check(f, [xs, p.w_x, p.w_h, p.b], 1e-5)
        assert err <= 1e-5

    def test_forget_bias_initialized_to_one(self):
        p = enc.init_lstm(3, 4, Rng(2))
        assert np.array_equal(p.b.values[4:8], np.ones(4))
        assert np.array_equal(p.b.values[:4], np.zeros(4))


class TestBilstm:
    def test_single_token_concatenates_directions(self):
        rng = Rng(3)
        fwd, bwd = enc.init_lstm(3, 5, rng), enc.init_lstm(3, 5, rng)
        x = rng.uniform(-1, 1, (1, 3))
        H = encode_rows(x, np.ones((1, 1), dtype=bool), fwd, bwd)
        zero_h = ad.constant(np.zeros((1, 5)))
        zero_c = ad.constant(np.zeros((1, 5)))
        hf, _ = enc.lstm_step(ad.constant(x), zero_h, zero_c, fwd)
        hb, _ = enc.lstm_step(ad.constant(x), zero_h, zero_c, bwd)
        assert np.allclose(H.values, np.concatenate([hf.values, hb.values], axis=1))

    def test_reversal_swaps_halves(self):
        rng = Rng(4)
        fwd, bwd = enc.init_lstm(3, 5, rng), enc.init_lstm(3, 5, rng)
        x = rng.uniform(-1, 1, (3, 3))
        mask = np.ones((1, 3), dtype=bool)
        H = encode_rows(x, mask, fwd, bwd).values
        H_rev = encode_rows(x[::-1], mask, bwd, fwd).values
        assert np.allclose(H[:, :5], H_rev[::-1, 5:])
        assert np.allclose(H[:, 5:], H_rev[::-1, :5])

    def test_padded_rows_are_zero(self):
        rng = Rng(5)
        fwd, bwd = enc.init_lstm(3, 4, rng), enc.init_lstm(3, 4, rng)
        mask = np.array([[True, True, False], [True, True, True]])
        xs = ad.constant(np.vstack([rng.uniform(-1, 1, (2, 3)) for _ in range(3)]))
        H = encode_rows(xs, mask, fwd, bwd).values.reshape(3, 2, 8)
        assert np.array_equal(H[2, 0], np.zeros(8))
        assert not np.array_equal(H[2, 1], np.zeros(8))

    def test_empty_sequence_rejected(self):
        rng = Rng(6)
        fwd, bwd = enc.init_lstm(3, 4, rng), enc.init_lstm(3, 4, rng)
        with pytest.raises(ShapeError):
            encode_rows(np.zeros((0, 3)), np.ones((1, 0), dtype=bool), fwd, bwd)

    def test_gradient_four_tokens_hidden_six(self):
        rng = Rng(7)
        fwd, bwd = enc.init_lstm(3, 6, rng), enc.init_lstm(3, 6, rng)
        xs = ad.parameter(rng.uniform(-1, 1, (4, 3)))
        mask = np.ones((1, 4), dtype=bool)

        def f():
            return sum_all(ad.tanh(encode_rows(xs, mask, fwd, bwd)))

        err = ad.grad_check(f, [xs, fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b], 1e-5)
        assert err <= 1e-5


class TestGaussianAttention:
    def test_single_token_identity(self):
        x = ad.constant([[0.7, -1.2, 0.1]])
        c, _ = enc.gaussian_self_attention(x, np.ones(1, dtype=bool),
                                           ad.constant([1.0]), ad.constant([-0.5]))
        assert np.array_equal(c.values, x.values)

    def test_hand_fixture(self):
        # raw 0 and -inf give w = 1 and b = -0.0, so the scores for the first
        # query are [-|0| + 1, -|1| + 0] = [1, -1]
        x = ad.constant([[1.0, 0.0], [0.0, 1.0]])
        c, w = enc.gaussian_self_attention(x, np.ones(2, dtype=bool),
                                           ad.constant([0.0]), ad.constant([-np.inf]))
        assert np.allclose(w[0], [0.88080, 0.11920], atol=1e-4)
        expected = 0.8808 * x.values[0] + 0.1192 * x.values[1]
        assert np.allclose(c.values[0], expected, atol=1e-4)

    def test_limit_equals_vanilla_attention(self):
        rng = Rng(8)
        xv = rng.uniform(-1, 1, (4, 3))
        x = ad.constant(xv)
        tiny = ad.constant([np.log(1e-18)])     # w = 1e-18, b = -1e-18
        c, _ = enc.gaussian_self_attention(x, np.ones(4, dtype=bool), tiny, tiny)
        scores = xv @ xv.T
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        assert np.allclose(c.values, weights @ xv, atol=1e-12)

    def test_weights_sum_to_one_over_unmasked(self):
        rng = Rng(9)
        x = ad.constant(rng.uniform(-1, 1, (5, 4)))
        mask = np.array([True, True, True, False, False])
        _, w = enc.gaussian_self_attention(x, mask, ad.constant([1.0]), ad.constant([-0.5]))
        assert np.abs(w[:, mask].sum(axis=1) - 1.0).max() <= 1e-12
        assert np.array_equal(w[:, ~mask], np.zeros((5, 2)))

    def test_reparameterization_signs(self):
        # with x = 0 the scores are the prior alone; the weights must be the
        # softmax of -|exp(w_raw) * d^2 - exp(b_raw)| for any raw values
        p = enc.init_gaussian_attention(Rng(0))
        x = ad.constant(np.zeros((4, 2)))
        mask = np.ones(4, dtype=bool)
        d2 = (np.arange(4)[:, None] - np.arange(4)[None, :]) ** 2.0
        raws = (-50.0, -1.0, 0.0, 3.0, 50.0)
        for w_raw in raws:
            for b_raw in raws:
                p.w_raw.values[:] = w_raw
                p.b_raw.values[:] = b_raw
                _, weights = enc.gaussian_self_attention(x, mask, p.w_raw, p.b_raw)
                prior = -np.abs(np.exp(w_raw) * d2 - np.exp(b_raw))
                e = np.exp(prior - prior.max(axis=1, keepdims=True))
                assert np.abs(weights - e / e.sum(axis=1, keepdims=True)).max() <= 1e-12

        rng = Rng(1)
        x = ad.parameter(rng.uniform(-1, 1, (4, 2)))
        probe = ad.constant(rng.uniform(-1, 1, (4, 2)))
        for w_raw, b_raw in ((-1.0, 0.0), (0.5, 1.2)):
            p.w_raw.values[:] = w_raw
            p.b_raw.values[:] = b_raw

            def f():
                c, _ = enc.gaussian_self_attention(x, mask, p.w_raw, p.b_raw)
                return sum_all(ad.mul(ad.tanh(c), probe))

            assert ad.grad_check(f, [p.w_raw, p.b_raw], 1e-6) <= 1e-6


class TestEncodeBatch:
    def build(self, rng, vocab=9, emb=4, hidden=3, attention=True):
        table = enc.init_embedding(vocab, emb, rng)
        fwd = enc.init_lstm(emb, hidden, rng)
        bwd = enc.init_lstm(emb, hidden, rng)
        attn = enc.init_gaussian_attention(rng) if attention else None
        return table, fwd, bwd, attn

    def test_width_is_2h_plus_emb(self):
        rng = Rng(10)
        table, fwd, bwd, attn = self.build(rng)
        ids = np.array([[2, 3, 4]])
        out = enc.encode_batch(ids, np.ones((1, 3), dtype=bool), table, fwd, bwd, attn)
        assert out.shape == (3, 2 * 3 + 4)

    def test_snips_default_width(self):
        # hidden 256 and embedding 512 give a 1024-wide representation
        assert 2 * 256 + 512 == 1024

    def test_width_without_attention(self):
        rng = Rng(11)
        table, fwd, bwd, _ = self.build(rng, attention=False)
        ids = np.array([[2, 3]])
        out = enc.encode_batch(ids, np.ones((1, 2), dtype=bool), table, fwd, bwd, None)
        assert out.shape == (2, 6)

    def test_padding_rows_zero(self):
        rng = Rng(12)
        table, fwd, bwd, attn = self.build(rng)
        ids = np.array([[2, 3, 0], [4, 5, 6]])
        mask = np.array([[True, True, False], [True, True, True]])
        out = enc.encode_batch(ids, mask, table, fwd, bwd, attn)
        e = out.values.reshape(3, 2, out.shape[1])    # [T, B, e_width]
        assert np.array_equal(e[2, 0], np.zeros(out.shape[1]))

    def test_padded_content_is_invisible(self):
        rng = Rng(13)
        table, fwd, bwd, attn = self.build(rng)
        mask = np.array([[True, True, False], [True, True, True]])
        a = enc.encode_batch(np.array([[2, 3, 0], [4, 5, 6]]), mask, table, fwd, bwd, attn)
        b = enc.encode_batch(np.array([[2, 3, 7], [4, 5, 6]]), mask, table, fwd, bwd, attn)
        ea, eb = (out.values.reshape(3, 2, -1) for out in (a, b))   # [T, B, e_width]
        for t in range(3):
            assert np.array_equal(ea[t, 1], eb[t, 1])
        assert np.array_equal(ea[0, 0], eb[0, 0])
        assert np.array_equal(ea[1, 0], eb[1, 0])

    def test_encode_utterance_view(self):
        rng = Rng(14)
        table, fwd, bwd, attn = self.build(rng)
        ids, mask = np.array([[2, 3, 4]]), np.ones((1, 3), dtype=bool)
        out = enc.encode_batch(ids, mask, table, fwd, bwd, attn)
        # one utterance: time-major rows are its tokens in order
        h = enc.encode_batch(ids, mask, table, fwd, bwd, None)
        c, _ = enc.gaussian_self_attention(enc.embed(ids, table), mask[0], attn.w_raw,
                                           attn.b_raw)
        assert out.shape == (3, 10)
        assert np.array_equal(out.values, np.hstack([h.values, c.values]))

    def test_dropout_matches_batch_major_reference(self):
        # the mask is drawn batch-major, so the seeded stream gives the same
        # mask as gathering batch-major and permuting to time-major after
        rng = Rng(15)
        table, fwd, bwd, attn = self.build(rng, emb=5)
        ids = np.array([[2, 3, 4, 0], [5, 6, 7, 8], [1, 2, 0, 0]])
        mask = ids != 0
        B, T = ids.shape
        rate = 0.4
        out = enc.encode_batch(ids, mask, table, fwd, bwd, attn, rate, Rng(16))

        keep = (Rng(16).random((B * T, 5)) >= rate) / (1.0 - rate)
        dropped = table.table.values[ids.reshape(-1)] * keep
        x = ad.constant(dropped[np.arange(B * T).reshape(B, T).T.reshape(-1)])
        c, _ = enc.gaussian_self_attention(x, mask, attn.w_raw, attn.b_raw)
        h_fwd = ad.lstm_scan(x, fwd.w_x, fwd.w_h, fwd.b, T, mask=mask)
        h_bwd = ad.lstm_scan(x, bwd.w_x, bwd.w_h, bwd.b, T, mask=mask, reverse=True)
        assert np.array_equal(out.values, np.hstack([h_fwd.values, h_bwd.values, c.values]))
