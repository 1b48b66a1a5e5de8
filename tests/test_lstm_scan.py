"""The fused LSTM scan against finite differences and against its per-step
oracle, ``encoder.lstm_step`` composed from primitive ops."""

import numpy as np
import pytest

from jointslu import autodiff as ad
from jointslu import encoder as enc
from jointslu import interaction as inter
from jointslu.autodiff import Rng, ShapeError, Tape


def reference_scan(x, T, p, mask, reverse=False):
    """Per-step masked scan over time-major x [T*B, in]; returns [T*B, h]."""
    B = x.shape[0] // T
    h = ad.constant(np.zeros((B, p.hidden)))
    c = ad.constant(np.zeros((B, p.hidden)))
    out = {}
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        h_new, c_new = enc.lstm_step(ad.slice_rows(x, t * B, (t + 1) * B), h, c, p)
        keep = mask[:, t].astype(np.float64)
        h, c = ad.mask_rows(h_new, keep), ad.mask_rows(c_new, keep)
        out[t] = h
    return ad.concat([out[t] for t in range(T)], axis=0)


def reference_decode(e, T, p, force=None, gold=None, opposite_y=None):
    """Per-step decode; returns (h [T*B, hidden], y [T*B, K], the T step inputs)."""
    B = e.shape[0] // T
    K = p.n_labels
    h = ad.constant(np.zeros((B, p.cell.hidden)))
    c = ad.constant(np.zeros((B, p.cell.hidden)))
    hs, ys, inputs = [], [], []
    for t in range(T):
        if t == 0:
            prev = ad.constant(np.zeros((B, K)))
        elif force is None:
            prev = ys[-1]
        else:
            forced = ad.constant(gold[(t - 1) * B: t * B] * force[t][:, None])
            prev = ad.add(ad.mask_rows(ys[-1], (~force[t]).astype(np.float64)), forced)
        parts = [prev] if opposite_y is None else [prev, ad.slice_rows(opposite_y, t * B,
                                                                      (t + 1) * B)]
        x = ad.concat(parts + [ad.slice_rows(e, t * B, (t + 1) * B)], axis=1)
        inputs.append(x.values)
        h, c = enc.lstm_step(x, h, c, p.cell)
        hs.append(h)
        ys.append(ad.softmax(ad.linear(h, p.proj), axis=1))
    return ad.concat(hs, axis=0), ad.concat(ys, axis=0), inputs


def grads_of(loss_fn, params):
    for q in params:
        q.zero_grad()
    with Tape():
        loss = loss_fn()
        ad.backward(loss)
    return loss.item(), [q.grad.copy() for q in params]


PADDED_MASK = np.array([[True, True, True, True],
                        [True, True, False, False],
                        [True, False, False, False]])


def decoder_case(rng, T=4, B=3, e_width=5, K=3, K_op=2, hidden=6, rate=0.5):
    """A rational decoder reading an opposite-task input, forced at ``rate``."""
    e = ad.parameter(rng.uniform(-1, 1, (T * B, e_width)))
    y_op = ad.parameter(rng.uniform(0, 1, (T * B, K_op)))
    p = inter.init_decoder(K + K_op + e_width, hidden, K, rng)
    gold = np.eye(K)[rng.integers(0, K, T * B)]
    force = inter.TeacherForcing(rate=rate, rng=rng, gold=gold).draw(T, B)
    return e, y_op, p, gold, force


class TestLstmScanGradcheck:
    def test_encoder_scan_with_padding(self):
        rng = Rng(30)
        T, B = 4, 3
        p = enc.init_lstm(5, 6, rng)
        x = ad.parameter(rng.uniform(-1, 1, (T * B, 5)))
        w_out = ad.constant(rng.uniform(-1, 1, (T * B, 6)))
        for reverse in (False, True):
            def f():
                H = ad.lstm_scan(x, p.w_x, p.w_h, p.b, T, mask=PADDED_MASK, reverse=reverse)
                return ad.sum_all(ad.mul(ad.tanh(H), w_out))

            assert ad.grad_check(f, [x, p.w_x, p.w_h, p.b], 1e-5) <= 1e-5

    def test_decoder_scan_with_opposite_input_and_forcing(self):
        rng = Rng(31)
        e, y_op, p, gold, force = decoder_case(rng)
        assert force[1:].any() and not force[1:].all()
        w_out = ad.constant(rng.uniform(-1, 1, (12, 6 + 3)))

        def f():
            x = ad.concat([y_op, e], axis=1)
            out = ad.lstm_scan(x, p.cell.w_x, p.cell.w_h, p.cell.b, 4, proj=p.proj,
                               force=force, gold=gold)
            return ad.sum_all(ad.mul(ad.tanh(out), w_out))

        params = [e, y_op, p.cell.w_x, p.cell.w_h, p.cell.b, p.proj]
        assert ad.grad_check(f, params, 1e-5) <= 1e-5


class TestLstmScanOracle:
    def test_encoder_scan_matches_lstm_step_loop(self):
        rng = Rng(32)
        T = 4
        p = enc.init_lstm(5, 6, rng)
        x = ad.parameter(rng.uniform(-1, 1, (T * 3, 5)))
        w_out = ad.constant(rng.uniform(-1, 1, (T * 3, 6)))
        params = [x, p.w_x, p.w_h, p.b]
        for reverse in (False, True):
            fused = ad.lstm_scan(x, p.w_x, p.w_h, p.b, T, mask=PADDED_MASK, reverse=reverse)
            oracle = reference_scan(x, T, p, PADDED_MASK, reverse)
            assert np.abs(fused.values - oracle.values).max() <= 1e-12
            _, g_fused = grads_of(lambda: ad.sum_all(ad.mul(ad.lstm_scan(
                x, p.w_x, p.w_h, p.b, T, mask=PADDED_MASK, reverse=reverse), w_out)), params)
            _, g_oracle = grads_of(lambda: ad.sum_all(ad.mul(
                reference_scan(x, T, p, PADDED_MASK, reverse), w_out)), params)
            for a, b in zip(g_fused, g_oracle):
                assert np.abs(a - b).max() <= 1e-12

    def test_decoder_scan_matches_lstm_step_loop(self):
        rng = Rng(33)
        e, y_op, p, gold, force = decoder_case(rng, rate=0.5)
        tf = inter.TeacherForcing(rate=0.5, rng=None, gold=gold)
        tf.draw = lambda steps, batch: force
        w_h_out = ad.constant(rng.uniform(-1, 1, (12, 6)))
        w_y_out = ad.constant(rng.uniform(-1, 1, (12, 3)))
        params = [e, y_op, p.cell.w_x, p.cell.w_h, p.cell.b, p.proj]

        def loss(h, y):
            return ad.add(ad.sum_all(ad.mul(h, w_h_out)), ad.sum_all(ad.mul(y, w_y_out)))

        fused = inter.decode(e, 4, p, tf, opposite_y=y_op)
        h_ref, y_ref, _ = reference_decode(e, 4, p, force, gold, opposite_y=y_op)
        assert np.abs(fused.h.values - h_ref.values).max() <= 1e-12
        assert np.abs(fused.y.values - y_ref.values).max() <= 1e-12
        _, g_fused = grads_of(lambda: loss(*_hy(inter.decode(e, 4, p, tf, opposite_y=y_op))),
                              params)
        _, g_oracle = grads_of(lambda: loss(*reference_decode(e, 4, p, force, gold,
                                                              opposite_y=y_op)[:2]), params)
        for a, b in zip(g_fused, g_oracle):
            assert np.abs(a - b).max() <= 1e-12


def _hy(res):
    return res.h, res.y


class TestLstmScanShapes:
    def test_one_node_per_scan(self):
        rng = Rng(34)
        p = enc.init_lstm(5, 6, rng)
        x = ad.parameter(rng.uniform(-1, 1, (12, 5)))
        with Tape() as tape:
            ad.lstm_scan(x, p.w_x, p.w_h, p.b, 4)
        assert [n.name for n in tape.nodes] == ["lstm_scan"]

    def test_mismatched_shapes_rejected(self):
        rng = Rng(35)
        p = enc.init_lstm(5, 6, rng)
        with pytest.raises(ShapeError):
            ad.lstm_scan(ad.constant(np.ones((12, 4))), p.w_x, p.w_h, p.b, 4)
        with pytest.raises(ShapeError):
            ad.lstm_scan(ad.constant(np.ones((10, 5))), p.w_x, p.w_h, p.b, 4)
        with pytest.raises(ShapeError):
            ad.lstm_scan(ad.constant(np.ones((12, 5))), p.w_x, p.w_h, p.b, 4,
                         mask=np.ones((4, 3), dtype=bool))
