import numpy as np
import pytest

from conftest import sum_all, tiny_model

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu import encoder as enc
from jointslu.autodiff import Rng, ShapeError, Tape


def param(values):
    return ad.parameter(values)


def rand_param(rng, shape, lo=-1.0, hi=1.0):
    return ad.parameter(rng.uniform(lo, hi, shape))


class TestTensor:
    def test_buffer_lengths_match(self):
        t = ad.parameter(np.arange(12.0).reshape(3, 4))
        assert np.prod(t.shape) == t.values.size == t.grad.size

    def test_grad_starts_zero(self):
        t = ad.parameter([[1.0, 2.0]])
        assert np.array_equal(t.grad, np.zeros((1, 2)))

    def test_zero_grad_resets(self):
        x = param([2.0])
        with Tape():
            ad.backward(ad.mul(x, x))
        x.zero_grad()
        assert np.array_equal(x.grad, [0.0])


class TestMatmul:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).values, b.values)

    def test_selector_row(self):
        out = ad.matmul(ad.constant([[1.0, 0.0]]), ad.constant([[2.0], [5.0]]))
        assert np.array_equal(out.values, [[2.0]])

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_grad_of_sum_is_column_sums(self):
        # d sum(A @ B) / dA broadcasts the column sums of B across rows of A
        rng = Rng(0)
        a = rand_param(rng, (3, 4))
        b = ad.constant(rng.uniform(-1, 1, (4, 2)))
        with Tape():
            ad.backward(sum_all(ad.matmul(a, b)))
        expected = np.tile(b.values.sum(axis=1), (3, 1))
        assert np.allclose(a.grad, expected)
        err = ad.grad_check(lambda: sum_all(ad.matmul(a, b)), [a], 1e-5)
        assert err <= 1e-6


class TestElementwise:
    def test_add(self):
        out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
        assert np.array_equal(out.values, [4.0, 6.0])

    def test_mul_identity(self):
        x = ad.constant([[0.3, -2.0]])
        assert np.array_equal(ad.mul(x, ad.constant([[1.0, 1.0]])).values, x.values)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(ad.constant([1.0]), ad.constant([1.0, 2.0]))

    def test_mul_gradient(self):
        rng = Rng(1)
        a = rand_param(rng, (3, 3))
        b = rand_param(rng, (3, 3))
        err = ad.grad_check(lambda: sum_all(ad.mul(a, b)), [a, b], 1e-5)
        assert err <= 1e-6


class TestConcat:
    def test_flattens_parts(self):
        out = ad.concat([ad.constant([1.0]), ad.constant([2.0])], axis=0)
        assert np.array_equal(out.values, [1.0, 2.0])

    def test_width_doubles(self):
        h_fwd = ad.constant(np.ones((4, 3)))
        h_bwd = ad.constant(np.ones((4, 3)))
        assert ad.concat([h_fwd, h_bwd], axis=1).shape == (4, 6)

    def test_inconsistent_shapes(self):
        with pytest.raises(ShapeError):
            ad.concat([ad.constant(np.ones((2, 2))), ad.constant(np.ones((3, 3)))], axis=1)

    def test_backward_routes_slices(self):
        rng = Rng(2)
        a = rand_param(rng, (2, 2))
        b = rand_param(rng, (2, 3))
        w = ad.constant(rng.uniform(-1, 1, (5, 1)))

        def f():
            return sum_all(ad.matmul(ad.concat([a, b], axis=1), w))

        assert ad.grad_check(f, [a, b], 1e-5) <= 1e-6


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant([0.0])).values[0] == 0.5

    def test_tanh_at_zero(self):
        assert ad.tanh(ad.constant([0.0])).values[0] == 0.0

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    def test_gradient(self, kind):
        x = rand_param(Rng(3), (5,), -2, 2)
        err = ad.grad_check(lambda: sum_all(getattr(ad, kind)(x)), [x], 1e-5)
        assert err <= 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(ad.constant([0.0, 0.0]), axis=0)
        assert np.allclose(out.values, [0.5, 0.5])

    def test_hand_value(self):
        out = ad.softmax(ad.constant([1.0, -1.0]), axis=0)
        assert np.allclose(out.values, [0.88080, 0.11920], atol=1e-4)

    def test_overflow_guard(self):
        out = ad.softmax(ad.constant([1000.0, 0.0]), axis=0)
        assert np.isfinite(out.values).all()

    def test_rows_sum_to_one(self):
        rng = Rng(4)
        for _ in range(10):
            x = ad.constant(rng.uniform(-30, 30, (4, 7)))
            y = ad.softmax(x, axis=1).values
            assert np.all((y > 0) & (y < 1))
            assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-12

    def test_gradient(self):
        rng = Rng(5)
        x = rand_param(rng, (3, 4))
        w = ad.constant(rng.uniform(-1, 1, (4, 1)))

        def f():
            return sum_all(ad.matmul(ad.softmax(x, axis=1), w))

        assert ad.grad_check(f, [x], 1e-5) <= 1e-6


def composed_blend(rational, intuitive, logits):
    """``ad.blend`` as primitive ops, recorded in the order the cooperation
    layer used to record them; ``a - b`` is ``a + b * -1``, which is exact."""
    r = ad.softmax(logits, axis=1)
    minus_one = ad.constant(np.full(intuitive.shape, -1.0))
    return ad.add(intuitive, ad.mul(r, ad.add(rational, ad.mul(intuitive, minus_one))))


class TestBlend:
    @pytest.mark.parametrize("recorded_inputs", [False, True])
    @pytest.mark.parametrize("logits_from_rational", [False, True])
    def test_matches_composition_bit_for_bit(self, recorded_inputs, logits_from_rational):
        # with the logits a linear of the rational input, that input's adjoint
        # sums the blend's contribution and the linear's, in that order
        rng = Rng(40)
        x_r, x_i = rand_param(rng, (5, 4), -2, 2), rand_param(rng, (5, 4), -2, 2)
        z, w, b = rand_param(rng, (5, 4), -3, 3), rand_param(rng, (4, 4)), rand_param(rng, (4,))
        probe = ad.constant(rng.uniform(-1, 1, (5, 4)))
        leaves = [x_r, x_i, z, w, b]

        def run(op):
            for p in leaves:
                p.zero_grad()
            with Tape():
                rational, intuitive = ((ad.tanh(x_r), ad.tanh(x_i)) if recorded_inputs
                                       else (x_r, x_i))
                logits = ad.linear(rational, w, b) if logits_from_rational else z
                out = op(rational, intuitive, logits)
                ad.backward(sum_all(ad.mul(out, probe)))
            return [out.values] + [p.grad.copy() for p in leaves]

        for got, want in zip(run(ad.blend), run(composed_blend)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shift", [0.0, 1e4, -1e4])
    def test_grad_check_at_random_shapes(self, shift):
        for trial in range(5):
            rng = Rng(50 + trial)
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            rational, intuitive = rand_param(rng, (n, m), -2, 2), rand_param(rng, (n, m), -2, 2)
            z = param(rng.uniform(-3, 3, (n, m)) + shift)
            probe = ad.constant(rng.uniform(-1, 1, (n, m)))

            def f():
                return sum_all(ad.mul(ad.blend(rational, intuitive, z), probe))

            assert ad.grad_check(f, [rational, intuitive, z], 1e-5) <= 1e-6

    def test_one_node(self):
        a = rand_param(Rng(41), (2, 3))
        with Tape() as tape:
            ad.blend(a, a, a)
        assert [n.name for n in tape.nodes] == ["blend"]

    def test_shape_errors(self):
        a = ad.constant(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            ad.blend(a, ad.constant(np.ones((2, 2))), a)
        with pytest.raises(ShapeError):
            ad.blend(a, a, ad.constant(np.ones((3, 2))))


def encode_with_dropout(rate, rng, tokens=4, emb=3):
    """Encode one utterance of ``tokens`` ids at dropout ``rate``."""
    init = Rng(0)
    table = enc.init_embedding(tokens + 1, emb, init)
    fwd, bwd = enc.init_lstm(emb, 2, init), enc.init_lstm(emb, 2, init)
    ids = np.arange(1, tokens + 1)[None, :]
    return enc.encode_batch(ids, ids > 0, table, fwd, bwd, None, rate, rng)


class TestDropout:
    def test_rate_zero_is_identity(self):
        rng = Rng(0)
        with Tape() as tape:
            out = encode_with_dropout(0.0, rng)
        assert np.array_equal(out.values, encode_with_dropout(0.0, None).values)
        assert not any(n.name == "mul" for n in tape.nodes)
        assert rng.random() == Rng(0).random()

    def test_eval_mode_is_identity(self, small_synth):
        # an unrecorded forward applies no dropout and draws nothing
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        batch = dat.pad_batch(corpus.train[:4], vocab)
        plain = model.forward(batch)
        rng = Rng(0)
        evaluated = model.forward(batch, training=False, dropout_rate=0.9, dropout_rng=rng)
        assert np.array_equal(plain.z_slot.values, evaluated.z_slot.values)
        assert np.array_equal(plain.z_intent.values, evaluated.z_intent.values)
        assert rng.random() == Rng(0).random()

    def test_invalid_rate(self):
        for rate in (1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="dropout rate"):
                encode_with_dropout(rate, Rng(0))

    def test_empirical_zero_fraction(self):
        rate = 0.4
        with Tape() as tape:
            encode_with_dropout(rate, Rng(123), tokens=100, emb=1000)
        (node,) = [n for n in tape.nodes if n.name == "mul"]
        keep = node.inputs[1].values
        assert keep.shape == (100, 1000)
        zero_fraction = (keep == 0.0).mean()
        assert abs(zero_fraction - rate) <= 0.01
        # survivors are scaled by 1/(1-rate)
        assert np.all(keep[keep != 0] == 1.0 / (1.0 - rate))


class TestBackward:
    def test_square_gradient(self):
        x = param([3.0])
        with Tape():
            ad.backward(ad.mul(x, x))
        assert np.allclose(x.grad, [6.0])

    def test_sigmoid_sum_matches_fd(self):
        x = rand_param(Rng(7), (6,), -2, 2)
        err = ad.grad_check(lambda: sum_all(ad.sigmoid(x)), [x], 1e-5)
        assert err <= 1e-5

    def test_two_calls_accumulate(self):
        x = param([3.0])
        with Tape():
            loss = ad.mul(x, x)
            ad.backward(loss)
            ad.backward(loss)
        assert np.allclose(x.grad, [12.0])

    def test_zero_grad_then_backward_is_fresh(self):
        x = param([2.0])
        with Tape():
            loss = ad.mul(x, x)
            ad.backward(loss)
            first = x.grad.copy()
            x.zero_grad()
            ad.backward(loss)
        assert np.array_equal(x.grad, first)

    def test_non_scalar_rejected(self):
        x = param([1.0, 2.0])
        with Tape():
            y = ad.mul(x, x)
            with pytest.raises(ShapeError):
                ad.backward(y)

    def test_detached_loss_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(ad.constant([1.0]))


class TestLeafGradients:
    """Backward adopts a leaf's first gradient without copying it only when no
    other tensor, adjoint or view can reach that array."""

    def test_intermediate_grad_stays_zero(self):
        x = param([1.0, 2.0])
        with Tape():
            y = ad.mul(x, x)
            ad.backward(sum_all(y))
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert not y.grad.any()

    def test_add_same_leaf_twice(self):
        p = param([1.0, 2.0])
        with Tape():
            ad.backward(sum_all(ad.mul(ad.add(p, p), ad.constant([3.0, 5.0]))))
        assert np.array_equal(p.grad, [6.0, 10.0])

    def test_add_two_leaves_do_not_share(self):
        p, q = param([1.0, 2.0]), param([3.0, 4.0])
        with Tape():
            ad.backward(sum_all(ad.mul(ad.add(p, q), ad.constant([3.0, 5.0]))))
        p.grad[:] += 100.0
        assert np.array_equal(q.grad, [3.0, 5.0])

    def test_leaf_read_by_two_nodes(self):
        # add passes its incoming adjoint to p, and that adjoint is also h's;
        # p * 5 adds into p's gradient before h's node reads it
        p, q = param([1.0, 2.0]), param([0.5, 0.5])
        with Tape():
            h = ad.mul(q, ad.constant([3.0, 3.0]))
            z = ad.mul(p, ad.constant([5.0, 5.0]))
            y = ad.add(ad.add(ad.add(p, ad.constant([0.0, 0.0])), h), z)
            ad.backward(sum_all(ad.mul(y, ad.constant([3.0, 5.0]))))
        assert np.array_equal(p.grad, [18.0, 30.0])
        assert np.array_equal(q.grad, [9.0, 15.0])

    def test_leaf_reached_only_through_concat(self):
        p, q = param([[1.0, 2.0]]), param([[3.0]])
        with Tape():
            c = ad.concat([p, q], axis=1)
            ad.backward(sum_all(ad.mul(c, ad.constant([[3.0, 5.0, 7.0]]))))
        assert np.array_equal(p.grad, [[3.0, 5.0]])
        assert np.array_equal(q.grad, [[7.0]])
        assert p.grad.flags.owndata and q.grad.flags.owndata

    def test_one_array_returned_for_two_leaves(self):
        p, q = param([1.0]), param([2.0])
        with Tape():
            both = ad._record("pair", p.values + q.values, (p, q),
                              lambda g: (lambda d: (d, d))(g * 2.0))
            ad.backward(sum_all(both))
        p.grad[:] = 7.0
        assert np.array_equal(q.grad, [2.0])

    def test_leaf_handed_an_incoming_adjoint_of_a_two_output_node(self):
        # the node's backward gets (None, adjoint of b) and passes the second
        # one straight to the leaf, which must copy it
        p = param([1.0, 2.0])
        received = []

        def bk(gs):
            received.append(gs)
            return (gs[1],)

        with Tape() as tape:
            a, b = ad._record("split", (p.values * 2.0, p.values * 3.0), (p,), bk)
            assert len(tape.nodes) == 1 and tape.nodes[0].outs == (a, b)
            ad.backward(sum_all(b))
        (g_a, g_b), = received
        assert g_a is None and np.array_equal(g_b, [1.0, 1.0])
        assert p.grad is not g_b and not np.shares_memory(p.grad, g_b)
        g_b[:] = 9.0
        assert np.array_equal(p.grad, [1.0, 1.0])


class TestGradCheck:
    def test_square(self):
        x = param([3.0])
        assert ad.grad_check(lambda: ad.mul(x, x), [x], 1e-4) <= 1e-6

    def test_constant_function_is_exact(self):
        x = param([1.0])
        c = ad.constant([5.0])
        assert ad.grad_check(lambda: ad.add(ad.mul(x, ad.constant([0.0])), c), [x]) == 0.0

    def test_invalid_epsilon(self):
        x = param([1.0])
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.mul(x, x), [x], 0.0)

    def test_nan_backward_is_a_nan_error(self):
        x = param([1.0, 2.0])

        def f():
            y = ad._record("nan_grad", x.values * 2.0, (x,), lambda g: (g * np.nan,))
            return sum_all(y)

        assert np.isnan(ad.grad_check(f, [x]))


class TestGatherScatterOps:
    def test_take_rows_values_and_grad(self):
        rng = Rng(8)
        x = rand_param(rng, (5, 3))
        idx = np.array([1, 1, 4])
        out = ad.take_rows(x, idx)
        assert np.array_equal(out.values, x.values[idx])
        with Tape():
            ad.backward(sum_all(ad.take_rows(x, idx)))
        expected = np.zeros((5, 3))
        expected[1] = 2.0
        expected[4] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_take_rows_out_of_range(self):
        with pytest.raises(IndexError):
            ad.take_rows(ad.constant(np.ones((2, 2))), np.array([2]))

    def test_slices_and_mask(self):
        rng = Rng(10)
        x = rand_param(rng, (4, 6))
        col = ad.constant(np.array([1.0, 0.0, 1.0, 0.0])[:, None] * np.ones((4, 3)))

        def f():
            a = ad.take_rows(x, np.arange(1, 3))
            b = ad.slice_cols(x, 2, 5)
            return ad.add(sum_all(a), sum_all(ad.mul(b, col)))

        assert ad.grad_check(f, [x], 1e-5) <= 1e-6


class TestCrossEntropy:
    def test_value_and_gradient_of_picked_entries(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
        z = param(np.log(probs))
        with Tape():
            loss = ad.cross_entropy(z, np.array([0, 2]), np.array([1.0, 0.5]))
            ad.backward(loss)
        assert loss.item() == pytest.approx(-(np.log(0.5) + 0.5 * np.log(0.8)), abs=1e-15)
        want = probs - np.eye(3)[[0, 2]]
        want[1] *= 0.5
        assert np.abs(z.grad - want).max() <= 1e-15

    def test_grad_check_with_zero_weight_row(self):
        x = rand_param(Rng(9), (4, 3))
        ids = np.array([0, 2, 1, 1])
        w = np.array([1.0, 0.0, 2.0, 1.0])
        assert ad.grad_check(lambda: ad.cross_entropy(x, ids, w), [x], 1e-5) <= 1e-6
        x.zero_grad()
        with Tape():
            ad.backward(ad.cross_entropy(x, ids, w))
        assert np.array_equal(x.grad[1], np.zeros(3))

    def test_bad_ids_and_weights(self):
        z = ad.constant(np.zeros((2, 3)))
        with pytest.raises(IndexError):
            ad.cross_entropy(z, np.array([0, 3]))
        with pytest.raises(IndexError):
            ad.cross_entropy(z, np.array([-1, 0]))
        with pytest.raises(ShapeError):
            ad.cross_entropy(z, np.array([0]))
        with pytest.raises(ShapeError):
            ad.cross_entropy(z, np.array([0, 1]), np.ones(3))


class TestLinear:
    def test_matches_matmul_transpose(self):
        rng = Rng(11)
        x = ad.constant(rng.uniform(-1, 1, (3, 4)))
        w = ad.constant(rng.uniform(-1, 1, (2, 4)))
        b = ad.constant(rng.uniform(-1, 1, 2))
        out = ad.linear(x, w, b)
        assert np.allclose(out.values, x.values @ w.values.T + b.values)

    def test_gradients(self):
        rng = Rng(12)
        x = rand_param(rng, (3, 4))
        w = rand_param(rng, (2, 4))
        b = rand_param(rng, (2,))
        assert ad.grad_check(lambda: sum_all(ad.tanh(ad.linear(x, w, b))),
                             [x, w, b], 1e-5) <= 1e-6


class TestDeterminism:
    def test_forward_replay_bit_identical(self):
        rng = Rng(13)
        x = ad.constant(rng.uniform(-1, 1, (4, 4)))
        w = ad.constant(rng.uniform(-1, 1, (4, 4)))

        def run():
            return sum_all(ad.softmax(ad.matmul(ad.tanh(x), w), axis=1)).values.copy()

        assert np.array_equal(run(), run())


class TestTape:
    def test_nodes_are_topologically_ordered(self):
        rng = Rng(14)
        a = rand_param(rng, (3, 3))
        b = rand_param(rng, (3, 3))
        with Tape() as tape:
            out = ad.softmax(ad.matmul(ad.add(a, b), ad.tanh(a)), axis=1)
            sum_all(out)
        assert tape.nodes
        for idx, node in enumerate(tape.nodes):
            assert node.out.tape_id == idx
            for inp in node.inputs:
                assert inp.tape_id is None or inp.tape_id < idx

    def test_nothing_recorded_without_tape(self):
        a = rand_param(Rng(15), (2, 2))
        out = ad.tanh(a)
        assert out.tape is None and not out.requires_grad


class TestRng:
    def test_identical_seeds_identical_draws(self):
        a, b = Rng(42), Rng(42)
        assert np.array_equal(a.random(10), b.random(10))
        assert np.array_equal(a.permutation(20), b.permutation(20))
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_split_streams_are_stable(self):
        a = Rng(7).split(3)
        b = Rng(7).split(3)
        for s, t in zip(a, b):
            assert np.array_equal(s.random(5), t.random(5))
        assert not np.array_equal(a[0].random(5), a[1].random(5))


def test_every_op_grad_check_small_random():
    # ten fixed-seed trials per differentiable op, dimensions <= 8
    for trial in range(10):
        rng = Rng(1000 + trial)
        n, m, k = (int(rng.integers(1, 9)) for _ in range(3))
        a = rand_param(rng, (n, m))
        b = rand_param(rng, (n, m))
        c = rand_param(rng, (m, k))
        w = ad.constant(rng.uniform(-1, 1, (k, 1)))
        ids = rng.integers(0, m, n)
        weights = rng.uniform(0, 2, n)
        cases = {
            "matmul": lambda: sum_all(ad.matmul(a, c)),
            "add": lambda: sum_all(ad.add(a, b)),
            "mul": lambda: sum_all(ad.mul(a, b)),
            "concat": lambda: sum_all(ad.concat([a, b], axis=0)),
            "sigmoid": lambda: sum_all(ad.sigmoid(a)),
            "tanh": lambda: sum_all(ad.tanh(a)),
            "softmax": lambda: sum_all(ad.matmul(ad.matmul(ad.softmax(a, axis=1), c), w)),
            "blend": lambda: sum_all(ad.mul(ad.blend(a, b, ad.tanh(b)), b)),
            "cross_entropy": lambda: ad.cross_entropy(a, ids, weights),
        }
        for name, f in cases.items():
            err = ad.grad_check(f, [a, b, c], 1e-5)
            assert err <= 1e-5, f"{name} trial {trial}: {err}"
