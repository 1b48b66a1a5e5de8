import numpy as np
import pytest

from conftest import tiny_model

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu import interaction as inter
from jointslu.autodiff import Rng
from test_lstm_scan import reference_decode


def make_e(rng, T, B, width):
    """Time-major [T*B, width] encoder states."""
    return ad.constant(rng.uniform(-1, 1, (T * B, width)))


def forced_after_step_zero(T, B):
    force = np.ones((T, B), dtype=bool)
    force[0] = False
    return force


class TestTeacherForcing:
    def test_rate_bounds(self, small_synth):
        corpus, vocab = small_synth
        batch = dat.pad_batch(corpus.train[:2], vocab)
        for rate in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="teacher forcing rate"):
                tiny_model(vocab).forward(batch, training=True, tf_rate=rate, tf_rng=Rng(0))

    def test_rate_one_forces_every_prev(self, small_synth):
        rng = Rng(1)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        gold = np.vstack([np.eye(3)[[0, 1]], np.eye(3)[[1, 2]], np.eye(3)[[2, 0]]])
        force = forced_after_step_zero(3, 2)
        h, _ = inter.decode(e, 3, p, force=force, gold=gold)
        h_ref, _, inputs = reference_decode(e, 3, p, force=force, gold=gold)
        # the previous-label part of the step-2 input is the gold of step 1
        assert np.array_equal(inputs[2][:, :3], gold[2:4])
        assert np.abs(h.values - h_ref.values).max() <= 1e-12
        # at rate 1 the model forces every row after step 0, whatever the draws
        corpus, vocab = small_synth
        batch = dat.pad_batch(corpus.train[:4], vocab)
        model = tiny_model(vocab)
        a = model.forward(batch, training=True, tf_rate=1.0, tf_rng=Rng(2))
        b = model.forward(batch, training=True, tf_rate=1.0, tf_rng=Rng(3))
        assert np.array_equal(a.z_slot.values, b.z_slot.values)

    def test_rate_zero_passes_through(self, small_synth):
        corpus, vocab = small_synth
        batch = dat.pad_batch(corpus.train[:4], vocab)
        model = tiny_model(vocab)
        tf_rng = Rng(4)
        state = tf_rng.bit_generator.state
        free = model.forward(batch, training=True, tf_rate=0.0, tf_rng=tf_rng)
        assert tf_rng.bit_generator.state == state
        assert np.array_equal(free.z_slot.values, model.forward(batch).z_slot.values)


class TestDecoders:
    def test_first_step_has_zero_prev(self):
        # the first input is [0-vector, e_1]
        rng = Rng(3)
        e = make_e(rng, 2, 1, 4)
        p = inter.init_decoder(2 + 4, 5, 2, rng)
        captured = {}
        original = ad.lstm_scan

        def spy(x, *args, **kwargs):
            captured.setdefault("x", x.values.copy())
            return original(x, *args, **kwargs)

        ad.lstm_scan = spy
        try:
            first = inter.intuitive_slot_decode(e, 2, p)
        finally:
            ad.lstm_scan = original
        # the previous-label columns of w_x do not reach step 0
        p.cell.w_x.values[:, :2] = rng.uniform(-1, 1, (20, 2))
        moved = inter.intuitive_slot_decode(e, 2, p)
        for a, b in zip(first, moved):        # hidden states, then distributions
            assert np.array_equal(a.values[:1], b.values[:1])
            assert not np.array_equal(a.values[1:], b.values[1:])
        assert np.array_equal(captured["x"][:1], e.values[:1])

    def test_rows_are_distributions(self):
        rng = Rng(4)
        e = make_e(rng, 4, 3, 6)
        p = inter.init_decoder(3 + 6, 5, 3, rng)
        h, y = inter.intuitive_intent_decode(e, 4, p)
        assert h.shape == (12, 5) and y.shape == (12, 3)
        assert np.abs(y.values.sum(axis=1) - 1.0).max() <= 1e-12

    def test_intuitive_decoders_are_symmetric(self):
        # same parameters and label count -> identical traces
        rng = Rng(5)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 4, 5, 3, Rng(6))
        slot = inter.intuitive_slot_decode(e, 3, p)
        intent = inter.intuitive_intent_decode(e, 3, p)
        for a, b in zip(slot, intent):
            assert np.array_equal(a.values, b.values)

    def test_rational_input_width(self):
        rng = Rng(7)
        n_intents, n_slots, e_width = 3, 4, 5
        p = inter.init_decoder(n_intents + n_slots + e_width, 6, n_intents, rng)
        assert p.cell.input_size == n_intents + n_slots + e_width

    def test_rational_depends_on_intuitive_output(self):
        rng = Rng(8)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 2 + 4, 5, 3, rng)
        y_op = ad.constant(rng.uniform(0, 1, (6, 2)))
        _, y_a = inter.rational_intent_decode(e, 3, p, opposite_y=y_op)
        _, y_b = inter.rational_intent_decode(e, 3, p, opposite_y=ad.constant(np.zeros((6, 2))))
        assert np.abs(y_a.values - y_b.values).max() > 0.0

    def test_eval_decode_is_deterministic(self):
        rng = Rng(9)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        for a, b in zip(inter.intuitive_slot_decode(e, 3, p), inter.intuitive_slot_decode(e, 3, p)):
            assert np.array_equal(a.values, b.values)

    def test_gradient_through_three_token_decode(self):
        rng = Rng(10)
        e_param = ad.parameter(rng.uniform(-1, 1, (3, 4)))
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        gold = np.array([0, 2, 1])

        def f():
            _, y = inter.intuitive_slot_decode(e_param, 3, p)
            return ad.cross_entropy(y, gold)

        err = ad.grad_check(f, [e_param, p.cell.w_x, p.cell.w_h, p.cell.b, p.proj], 1e-4)
        assert err <= 1e-5

    def test_teacher_forced_gradient(self):
        rng = Rng(11)
        e_param = ad.parameter(rng.uniform(-1, 1, (3, 4)))
        p = inter.init_decoder(2 + 4, 5, 2, rng)
        gold = np.vstack([np.eye(2)[[1]], np.eye(2)[[0]], np.eye(2)[[1]]])
        gold_ids = np.array([1, 0, 1])

        def f():
            _, y = inter.intuitive_slot_decode(e_param, 3, p, force=forced_after_step_zero(3, 1),
                                               gold=gold)
            return ad.cross_entropy(y, gold_ids)

        assert ad.grad_check(f, [e_param, p.cell.w_x, p.proj], 1e-4) <= 1e-5


class TestGoldOnehots:
    def test_slot_onehots_with_sentinel(self):
        ids = np.array([[0, 2, -1], [1, -1, -1]])
        oh = inter.gold_onehots(ids, 3)          # time-major [T*B, 3]
        assert np.array_equal(oh[0:2], [[1, 0, 0], [0, 1, 0]])
        assert np.array_equal(oh[4:6], np.zeros((2, 3)))

    def test_intent_onehots_repeat(self):
        # the utterance intent repeated over T = 3 steps
        oh = inter.gold_onehots(np.repeat(np.array([[1], [0]]), 3, axis=1), 2)
        assert oh.shape == (6, 2)
        assert np.array_equal(oh[0:2], [[0, 1], [1, 0]])
        assert np.array_equal(oh[0:2], oh[4:6])
