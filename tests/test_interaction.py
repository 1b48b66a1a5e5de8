import numpy as np
import pytest

from jointslu import autodiff as ad
from jointslu import interaction as inter
from jointslu.autodiff import Rng
from test_lstm_scan import reference_decode


def make_e(rng, T, B, width):
    """Time-major [T*B, width] encoder states."""
    return ad.constant(rng.uniform(-1, 1, (T * B, width)))


class TestTeacherForcing:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            inter.TeacherForcing(rate=1.5, rng=Rng(0), gold=None)

    def test_rate_one_forces_every_prev(self):
        rng = Rng(1)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        gold = np.vstack([np.eye(3)[[0, 1]], np.eye(3)[[1, 2]], np.eye(3)[[2, 0]]])
        tf = inter.TeacherForcing(rate=1.0, rng=Rng(2), gold=gold)
        force = tf.draw(3, 2)
        assert not force[0].any() and force[1:].all()
        res = inter.decode(e, 3, p, inter.TeacherForcing(rate=1.0, rng=Rng(2), gold=gold))
        h_ref, _, inputs = reference_decode(e, 3, p, force=force, gold=gold)
        # the previous-label part of the step-2 input is the gold of step 1
        assert np.array_equal(inputs[2][:, :3], gold[2:4])
        assert np.abs(res.h.values - h_ref.values).max() <= 1e-12

    def test_rate_zero_passes_through(self):
        tf = inter.disabled_teacher_forcing()
        assert tf.draw(4, 2) is None


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
            first = inter.intuitive_slot_decode(e, 2, p, inter.disabled_teacher_forcing())
        finally:
            ad.lstm_scan = original
        # the previous-label columns of w_x do not reach step 0
        p.cell.w_x.values[:, :2] = rng.uniform(-1, 1, (20, 2))
        moved = inter.intuitive_slot_decode(e, 2, p, inter.disabled_teacher_forcing())
        assert np.array_equal(first.h.values[:1], moved.h.values[:1])
        assert not np.array_equal(first.h.values[1:], moved.h.values[1:])
        assert np.array_equal(captured["x"][:1], e.values[:1])

    def test_rows_are_distributions(self):
        rng = Rng(4)
        e = make_e(rng, 4, 3, 6)
        p = inter.init_decoder(3 + 6, 5, 3, rng)
        res = inter.intuitive_intent_decode(e, 4, p, inter.disabled_teacher_forcing())
        assert res.y.shape == (12, 3)
        assert np.abs(res.y.values.sum(axis=1) - 1.0).max() <= 1e-12

    def test_intuitive_decoders_are_symmetric(self):
        # same parameters and label count -> identical traces
        rng = Rng(5)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 4, 5, 3, Rng(6))
        tf = inter.disabled_teacher_forcing()
        slot = inter.intuitive_slot_decode(e, 3, p, tf)
        intent = inter.intuitive_intent_decode(e, 3, p, tf)
        assert np.array_equal(slot.y.values, intent.y.values)

    def test_rational_input_width(self):
        rng = Rng(7)
        n_intents, n_slots, e_width = 3, 4, 5
        p = inter.init_decoder(n_intents + n_slots + e_width, 6, n_intents, rng)
        assert p.cell.input_size == n_intents + n_slots + e_width

    def test_rational_depends_on_intuitive_output(self):
        rng = Rng(8)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 2 + 4, 5, 3, rng)
        tf = inter.disabled_teacher_forcing()
        y_op = ad.constant(rng.uniform(0, 1, (6, 2)))
        res_a = inter.rational_intent_decode(e, 3, y_op, p, tf)
        res_b = inter.rational_intent_decode(e, 3, ad.constant(np.zeros((6, 2))), p, tf)
        assert np.abs(res_a.y.values - res_b.y.values).max() > 0.0

    def test_eval_decode_is_deterministic(self):
        rng = Rng(9)
        e = make_e(rng, 3, 2, 4)
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        tf = inter.disabled_teacher_forcing()
        a = inter.intuitive_slot_decode(e, 3, p, tf)
        b = inter.intuitive_slot_decode(e, 3, p, tf)
        assert np.array_equal(a.y.values, b.y.values)

    def test_gradient_through_three_token_decode(self):
        rng = Rng(10)
        e_param = ad.parameter(rng.uniform(-1, 1, (3, 4)))
        p = inter.init_decoder(3 + 4, 5, 3, rng)
        gold = np.array([0, 2, 1])

        def f():
            res = inter.intuitive_slot_decode(e_param, 3, p, inter.disabled_teacher_forcing())
            return ad.neg(ad.sum_all(ad.log(ad.pick_cols(res.y, gold))))

        err = ad.grad_check(f, [e_param, p.cell.w_x, p.cell.w_h, p.cell.b, p.proj], 1e-4)
        assert err <= 1e-5

    def test_teacher_forced_gradient(self):
        rng = Rng(11)
        e_param = ad.parameter(rng.uniform(-1, 1, (3, 4)))
        p = inter.init_decoder(2 + 4, 5, 2, rng)
        gold = np.vstack([np.eye(2)[[1]], np.eye(2)[[0]], np.eye(2)[[1]]])
        gold_ids = np.array([1, 0, 1])

        def f():
            tf = inter.TeacherForcing(rate=1.0, rng=Rng(12), gold=gold)
            res = inter.intuitive_slot_decode(e_param, 3, p, tf)
            return ad.neg(ad.sum_all(ad.log(ad.pick_cols(res.y, gold_ids))))

        assert ad.grad_check(f, [e_param, p.cell.w_x, p.proj], 1e-4) <= 1e-5


class TestGoldOnehots:
    def test_slot_onehots_with_sentinel(self):
        ids = np.array([[0, 2, -1], [1, -1, -1]])
        oh = inter.slot_gold_onehots(ids, 3)          # time-major [T*B, 3]
        assert np.array_equal(oh[0:2], [[1, 0, 0], [0, 1, 0]])
        assert np.array_equal(oh[4:6], np.zeros((2, 3)))

    def test_intent_onehots_repeat(self):
        oh = inter.intent_gold_onehots(np.array([1, 0]), 2, T=3)
        assert oh.shape == (6, 2)
        assert np.array_equal(oh[0:2], [[0, 1], [1, 0]])
        assert np.array_equal(oh[0:2], oh[4:6])
