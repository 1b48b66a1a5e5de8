"""The fused LSTM scan against finite differences and against its per-step
oracle, ``encoder.lstm_step`` composed from primitive ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close, grads_of, sum_all

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
        h_new, c_new = enc.lstm_step(ad.take_rows(x, np.arange(t * B, (t + 1) * B)), h, c, p)
        keep = ad.constant(np.repeat(mask[:, t].astype(np.float64)[:, None], p.hidden, axis=1))
        h, c = ad.mul(h_new, keep), ad.mul(c_new, keep)
        out[t] = h
    return ad.concat([out[t] for t in range(T)], axis=0)


def reference_decode(e, T, p, force=None, gold=None, opposite_y=None):
    """Per-step decode; returns (h [T*B, hidden], y [T*B, K], the T step inputs)."""
    B = e.shape[0] // T
    K = p.proj.shape[0]
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
            free = np.repeat((~force[t]).astype(np.float64)[:, None], K, axis=1)
            prev = ad.add(ad.mul(ys[-1], ad.constant(free)), forced)
        rows = np.arange(t * B, (t + 1) * B)
        parts = [prev] if opposite_y is None else [prev, ad.take_rows(opposite_y, rows)]
        x = ad.concat(parts + [ad.take_rows(e, rows)], axis=1)
        inputs.append(x.values)
        h, c = enc.lstm_step(x, h, c, p.cell)
        hs.append(h)
        ys.append(ad.softmax(ad.linear(h, p.proj), axis=1))
    return ad.concat(hs, axis=0), ad.concat(ys, axis=0), inputs


def read_loss(h, y, w_out, read):
    """Weighted sums of the decoder outputs named in ``read`` ("h" and/or "y")."""
    terms = [sum_all(ad.mul(out, w_out[name]))
             for name, out in (("h", h), ("y", y)) if name in read]
    return terms[0] if len(terms) == 1 else ad.add(*terms)


PADDED_MASK = np.array([[True, True, True, True],
                        [True, True, False, False],
                        [True, False, False, False]])


def decoder_case(rng, T=4, B=3, e_width=5, K=3, K_op=2, hidden=6, rate=0.5):
    """A rational decoder reading an opposite-task input, forced at ``rate``."""
    e = ad.parameter(rng.uniform(-1, 1, (T * B, e_width)))
    y_op = ad.parameter(rng.uniform(0, 1, (T * B, K_op)))
    p = inter.init_decoder(K + K_op + e_width, hidden, K, rng)
    gold = np.eye(K)[rng.integers(0, K, T * B)]
    force = np.zeros((T, B), dtype=bool)
    force[1:] = rng.random((T - 1, B)) < rate
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
                return sum_all(ad.mul(ad.tanh(H), w_out))

            assert ad.grad_check(f, [x, p.w_x, p.w_h, p.b], 1e-5) <= 1e-5

    def test_decoder_scan_with_opposite_input_and_forcing(self):
        rng = Rng(31)
        e, y_op, p, gold, force = decoder_case(rng)
        assert force[1:].any() and not force[1:].all()
        w_out = rng.uniform(-1, 1, (12, 6 + 3))
        w_h_out, w_y_out = ad.constant(w_out[:, :6]), ad.constant(w_out[:, 6:])

        def f():
            x = ad.concat([y_op, e], axis=1)
            h, y = ad.lstm_scan(x, p.cell.w_x, p.cell.w_h, p.cell.b, 4, proj=p.proj,
                                force=force, gold=gold)
            return ad.add(sum_all(ad.mul(ad.tanh(h), w_h_out)),
                          sum_all(ad.mul(ad.tanh(y), w_y_out)))

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
            _, g_fused = grads_of(lambda: sum_all(ad.mul(ad.lstm_scan(
                x, p.w_x, p.w_h, p.b, T, mask=PADDED_MASK, reverse=reverse), w_out)), params)
            _, g_oracle = grads_of(lambda: sum_all(ad.mul(
                reference_scan(x, T, p, PADDED_MASK, reverse), w_out)), params)
            for a, b in zip(g_fused, g_oracle):
                assert np.abs(a - b).max() <= 1e-12

    def test_decoder_scan_matches_lstm_step_loop(self):
        rng = Rng(33)
        e, y_op, p, gold, force = decoder_case(rng, rate=0.5)
        w_h_out = ad.constant(rng.uniform(-1, 1, (12, 6)))
        w_y_out = ad.constant(rng.uniform(-1, 1, (12, 3)))
        params = [e, y_op, p.cell.w_x, p.cell.w_h, p.cell.b, p.proj]

        def loss(h, y):
            return ad.add(sum_all(ad.mul(h, w_h_out)), sum_all(ad.mul(y, w_y_out)))

        def fused():
            return inter.decode(e, 4, p, opposite_y=y_op, force=force, gold=gold)

        h_fused, y_fused = fused()
        h_ref, y_ref, _ = reference_decode(e, 4, p, force, gold, opposite_y=y_op)
        assert np.abs(h_fused.values - h_ref.values).max() <= 1e-12
        assert np.abs(y_fused.values - y_ref.values).max() <= 1e-12
        _, g_fused = grads_of(lambda: loss(*fused()), params)
        _, g_oracle = grads_of(lambda: loss(*reference_decode(e, 4, p, force, gold,
                                                              opposite_y=y_op)[:2]), params)
        for a, b in zip(g_fused, g_oracle):
            assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("read", [("h",), ("y",), ("h", "y")])
    def test_decoder_scan_with_adjoints_on_either_output(self, read):
        # an output that nothing reads reaches the scan's backward as None
        rng = Rng(36)
        e, y_op, p, gold, force = decoder_case(rng, rate=0.5)
        w_out = {"h": ad.constant(rng.uniform(-1, 1, (12, 6))),
                 "y": ad.constant(rng.uniform(-1, 1, (12, 3)))}
        params = [e, y_op, p.cell.w_x, p.cell.w_h, p.cell.b, p.proj]

        def loss(h, y):
            return read_loss(h, y, w_out, read)

        received = []

        def fused():
            h, y = inter.decode(e, 4, p, opposite_y=y_op, force=force, gold=gold)
            node = h.tape.nodes[h.tape_id]
            backward = node.backward

            def spy(g):
                received.append(g)
                return backward(g)

            node.backward = spy
            return loss(h, y)

        _, g_fused = grads_of(fused, params)
        assert [g is not None for g in received[0]] == [name in read for name in ("h", "y")]
        _, g_oracle = grads_of(lambda: loss(*reference_decode(e, 4, p, force, gold,
                                                              opposite_y=y_op)[:2]), params)
        for a, b in zip(g_fused, g_oracle):
            assert np.abs(a - b).max() <= 1e-12


class TestLstmScanShapes:
    def test_one_node_per_scan(self):
        rng = Rng(34)
        p = enc.init_lstm(5, 6, rng)
        x = ad.parameter(rng.uniform(-1, 1, (12, 5)))
        with Tape() as tape:
            ad.lstm_scan(x, p.w_x, p.w_h, p.b, 4)
        assert [n.name for n in tape.nodes] == ["lstm_scan"]

    def test_nonfinite_distribution_names_the_scan(self):
        # one step: the hidden states stay finite while +inf and -inf in one
        # proj column make every distribution NaN
        rng = Rng(37)
        e = ad.parameter(rng.uniform(-1, 1, (2, 4)))
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        p.proj.values[:2, 0] = [np.inf, -np.inf]
        with Tape() as tape, np.errstate(invalid="ignore"):
            x = ad.mul(e, ad.constant(np.ones((2, 4))))
            h, y = inter.decode(x, 1, p)
        assert np.isfinite(h.values).all() and np.isnan(y.values).all()
        assert tape.first_nonfinite_node() is tape.nodes[1]
        assert tape.nodes[1].name == "lstm_scan" and tape.nodes[1].out is h

    def test_reverse_decoder_rejected(self):
        # a reverse decoder would read y_{t-1} before step t - 1 ran
        rng = Rng(38)
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        with pytest.raises(ShapeError, match="forward only"):
            ad.lstm_scan(ad.constant(np.ones((4, 4))), p.cell.w_x, p.cell.w_h, p.cell.b, 2,
                         reverse=True, proj=p.proj)

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


READS = [("h",), ("y",), ("h", "y")]


class TestLstmScanDifferential:
    """Random shapes, lengths, force masks and adjoints against the per-step
    oracles: every value and every gradient within 1e-12."""

    @given(B=st.integers(1, 4), T=st.integers(1, 5), width=st.integers(1, 4),
           hidden=st.integers(1, 5), reverse=st.booleans(), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_encoder_scan(self, B, T, width, hidden, reverse, seed, data):
        lengths = data.draw(st.lists(st.integers(0, T), min_size=B, max_size=B))
        mask = np.arange(T)[None, :] < np.array(lengths)[:, None]
        rng = Rng(seed)
        p = enc.init_lstm(width, hidden, rng)
        x = ad.parameter(rng.uniform(-1, 1, (T * B, width)))
        w_out = ad.constant(rng.uniform(-1, 1, (T * B, hidden)))
        params = [x, p.w_x, p.w_h, p.b]

        def fused():
            return ad.lstm_scan(x, p.w_x, p.w_h, p.b, T, mask=mask, reverse=reverse)

        def oracle():
            return reference_scan(x, T, p, mask, reverse)

        assert_close(fused().values, oracle().values)
        _, g_fused = grads_of(lambda: sum_all(ad.mul(fused(), w_out)), params)
        _, g_oracle = grads_of(lambda: sum_all(ad.mul(oracle(), w_out)), params)
        for a, b in zip(g_fused, g_oracle):
            assert_close(a, b)

    @given(B=st.integers(1, 4), T=st.integers(1, 5), e_width=st.integers(1, 3),
           hidden=st.integers(1, 5), K=st.integers(1, 4), K_op=st.integers(0, 3),
           forced=st.booleans(), read=st.sampled_from(READS),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_decoder_scan(self, B, T, e_width, hidden, K, K_op, forced, read, seed):
        rng = Rng(seed)
        e = ad.parameter(rng.uniform(-1, 1, (T * B, e_width)))
        y_op = ad.parameter(rng.uniform(0, 1, (T * B, K_op))) if K_op else None
        p = inter.init_decoder(K + K_op + e_width, hidden, K, rng)
        gold = np.eye(K)[rng.integers(0, K, T * B)]
        force = rng.random((T, B)) < rng.random() if forced else None
        w_out = {"h": ad.constant(rng.uniform(-1, 1, (T * B, hidden))),
                 "y": ad.constant(rng.uniform(-1, 1, (T * B, K)))}
        params = [e] + ([y_op] if K_op else []) + [p.cell.w_x, p.cell.w_h, p.cell.b, p.proj]

        def loss(h, y):
            return read_loss(h, y, w_out, read)

        def fused():
            return inter.decode(e, T, p, opposite_y=y_op, force=force,
                                gold=None if force is None else gold)

        def oracle():
            return reference_decode(e, T, p, force, gold, opposite_y=y_op)[:2]

        for a, b in zip(fused(), oracle()):
            assert_close(a.values, b.values)
        _, g_fused = grads_of(lambda: loss(*fused()), params)
        _, g_oracle = grads_of(lambda: loss(*oracle()), params)
        for a, b in zip(g_fused, g_oracle):
            assert_close(a, b)
