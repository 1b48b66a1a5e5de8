import gc
import io
import math
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import overfit_corpus, sum_all, tiny_model

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu import metrics as met
from jointslu import training as tr
from jointslu.autodiff import Rng, Tape
from jointslu.model import AblationFlags, ForwardResult, ModelDims, build_model
from jointslu.training import Adam, TrainConfig, TrainingDiverged


def logit_steps(rows_per_step):
    """Time-major [T*B, K] logits from the per-step [B, K] rows."""
    return ad.constant(np.vstack([np.asarray(r) for r in rows_per_step]))


class TestSlotLoss:
    def test_perfect_onehot_is_zero(self):
        z = logit_steps([[[0.0, 1000.0]], [[1000.0, 0.0]]])
        ids = np.array([[1, 0]])
        mask = np.ones((1, 2), dtype=bool)
        assert tr.slot_loss(z, ids, mask).item() == 0.0

    def test_uniform_is_m_log_k(self):
        K, M = 5, 3
        z = logit_steps([np.log(np.full((1, K), 1.0 / K))] * M)
        ids = np.zeros((1, M), dtype=np.int64)
        mask = np.ones((1, M), dtype=bool)
        assert tr.slot_loss(z, ids, mask).item() == pytest.approx(M * np.log(K), abs=1e-12)

    def test_hand_computed_two_tokens(self):
        z = logit_steps([np.log([[0.7, 0.3]]), np.log([[0.2, 0.8]])])
        ids = np.array([[0, 1]])
        mask = np.ones((1, 2), dtype=bool)
        expected = -(np.log(0.7) + np.log(0.8))
        assert abs(tr.slot_loss(z, ids, mask).item() - expected) <= 1e-12

    def test_masked_tokens_excluded(self):
        z = logit_steps([np.log([[0.5, 0.5]]), np.log([[0.9, 0.1]])])
        ids = np.array([[0, dat.PAD_SLOT_ID]])
        mask = np.array([[True, False]])
        assert tr.slot_loss(z, ids, mask).item() == pytest.approx(-np.log(0.5))

    def test_bad_gold_id(self):
        z = logit_steps([np.log([[0.5, 0.5]])])
        with pytest.raises(IndexError):
            tr.slot_loss(z, np.array([[7]]), np.ones((1, 1), dtype=bool))


class TestIntentLoss:
    def test_uniform_single(self):
        z = ad.constant(np.log(np.full((1, 4), 0.25)))
        assert tr.intent_loss(z, np.array([2])).item() == pytest.approx(np.log(4), abs=1e-12)

    def test_perfect_is_zero(self):
        z = ad.constant([[0.0, 1000.0]])
        assert tr.intent_loss(z, np.array([1])).item() == 0.0

    def test_batch_is_sum_of_singletons(self):
        rows = np.log([[0.6, 0.4], [0.1, 0.9]])
        ids = np.array([0, 1])
        batched = tr.intent_loss(ad.constant(rows), ids).item()
        singles = sum(tr.intent_loss(ad.constant(rows[i: i + 1]), ids[i: i + 1]).item()
                      for i in range(2))
        assert batched == pytest.approx(singles, abs=1e-12)

    def test_bad_gold_id(self):
        with pytest.raises(IndexError):
            tr.intent_loss(ad.constant([[1.0, 0.0]]), np.array([2]))


def test_saturated_heads_give_finite_loss_and_gradients(tiny_corpus):
    # head logits of order 1e4 put many probabilities below the smallest double
    corpus, vocab = tiny_corpus
    model = tiny_model(vocab)
    for head in (model.head_slot, model.head_intent):
        head.values *= 1e4
    batch = dat.pad_batch(corpus.train, vocab)
    with Tape():
        loss = tr.batch_loss(model.forward(batch), batch, 0.5)
        ad.backward(loss)
    assert np.isfinite(loss.item())
    for name, p in model.parameters():
        assert np.all(np.isfinite(p.grad)), name


def forward_result(slot_rows, intent_rows):
    """A one-utterance ForwardResult over the given logit rows, and its batch:
    gold slot 0 at every step and gold intent 0."""
    T = len(slot_rows)
    batch = dat.UtteranceBatch(token_ids=np.zeros((1, T), dtype=np.int64),
                               slot_ids=np.zeros((1, T), dtype=np.int64),
                               intent_ids=np.array([0]), mask=np.ones((1, T), dtype=bool))
    result = ForwardResult(z_slot=ad.constant(slot_rows), z_intent=ad.constant([intent_rows]),
                           mask=batch.mask)
    return result, batch


class TestJointLoss:
    SLOT, INTENT = [[0.3, -1.0, 2.0], [1.5, 0.0, -0.5]], [-0.2, 1.1]

    def parts(self):
        result, batch = forward_result(self.SLOT, self.INTENT)
        return (result, batch, tr.slot_loss(result.z_slot, batch.slot_ids, batch.mask).item(),
                tr.intent_loss(result.z_intent, batch.intent_ids).item())

    def test_lambda_extremes(self):
        result, batch, l_slot, l_intent = self.parts()
        assert tr.batch_loss(result, batch, 1.0).item() == l_slot
        assert tr.batch_loss(result, batch, 0.0).item() == l_intent

    def test_midpoint(self):
        result, batch, l_slot, l_intent = self.parts()
        assert tr.batch_loss(result, batch, 0.5).item() == 0.5 * l_slot + 0.5 * l_intent

    def test_monotone_in_components(self):
        base = tr.batch_loss(*forward_result(self.SLOT, self.INTENT), 0.3).item()
        worse_slot = [[0.0, -1.0, 2.0], self.SLOT[1]]       # gold slot 0 less likely
        worse_intent = [-0.5, 1.1]                           # gold intent 0 less likely
        assert tr.batch_loss(*forward_result(worse_slot, self.INTENT), 0.3).item() > base
        assert tr.batch_loss(*forward_result(self.SLOT, worse_intent), 0.3).item() > base

    def test_invalid_lambda(self):
        for lam in (1.5, -0.1):
            with pytest.raises(ValueError, match="lambda must be in"):
                tr.batch_loss(*forward_result(self.SLOT, self.INTENT), lam)

    @pytest.mark.parametrize("lam", [0.3, 0.5])
    def test_gradients_equal_the_scaled_sum(self, tiny_corpus, lam):
        # lambda rides in the cross-entropy weights; the gradients must equal
        # those of lambda * slot + (1 - lambda) * intent built from muls by
        # constants, bit for bit, and the loss may round differently only
        # when lambda or 1 - lambda is not a power of two
        corpus, vocab = tiny_corpus
        model = tiny_model(vocab)
        batch = dat.pad_batch(corpus.train, vocab)

        def grads(loss_of):
            model.zero_grad()
            with Tape():
                result = model.forward(batch)
                loss = loss_of(result)
                ad.backward(loss)
            return loss.item(), {name: p.grad.copy() for name, p in model.parameters()}

        def scaled_sum(result):
            return ad.add(
                ad.mul(tr.slot_loss(result.z_slot, batch.slot_ids, batch.mask),
                       ad.constant([lam])),
                ad.mul(tr.intent_loss(result.z_intent, batch.intent_ids),
                       ad.constant([1.0 - lam])))

        loss, got = grads(lambda result: tr.batch_loss(result, batch, lam))
        want_loss, want = grads(scaled_sum)
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        if lam == 0.5:
            assert loss == want_loss
        assert abs(loss - want_loss) <= 1e-15 * abs(want_loss)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = ad.parameter([1.0, -2.0, 3.0])
        p.grad[:] = [0.5, -0.1, 2.0]
        before = p.values.copy()
        Adam([("p", p)], lr=0.01).step()
        assert np.allclose(before - p.values, 0.01 * np.sign([0.5, -0.1, 2.0]), atol=1e-6)

    def test_zero_gradient_no_motion(self):
        p = ad.parameter([1.0, 2.0])
        before = p.values.copy()
        Adam([("p", p)], lr=0.1, l2_decay=0.0).step()
        assert np.array_equal(p.values, before)

    def test_quadratic_descent_matches_scalar_simulation(self):
        # independent scalar Adam on f(x) = x^2 from x = 1
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x, m, v = 1.0, 0.0, 0.0
        trajectory = []
        for t in range(1, 101):
            g = 2 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            trajectory.append(x)
        assert abs(trajectory[-1]) < 0.05

        p = ad.parameter([1.0])
        opt = Adam([("p", p)], lr=lr)
        for _ in range(100):
            p.zero_grad()
            with Tape():
                ad.backward(ad.mul(p, p))
            opt.step()
        assert p.values[0] == pytest.approx(trajectory[-1], abs=1e-12)

    def test_one_step_decreases_norm(self):
        p = ad.parameter([0.5, -0.7, 0.2])
        with Tape():
            ad.backward(sum_all(ad.mul(p, p)))
        before = (p.values ** 2).sum()
        Adam([("p", p)], lr=0.01).step()
        assert (p.values ** 2).sum() < before

    def test_l2_decay_moves_parameters(self):
        p = ad.parameter([1.0])
        Adam([("p", p)], lr=0.01, l2_decay=0.1).step()
        assert p.values[0] < 1.0

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_one_step_matches_textbook(self, l2):
        rng = Rng(40)
        values = rng.uniform(-1, 1, (3, 4))
        grad = rng.uniform(-1, 1, (3, 4))
        p = ad.parameter(values.copy())
        q = ad.parameter(rng.uniform(-1, 1, 5))     # a second, smaller parameter
        p.grad[:] = grad
        q.grad[:] = 1.0
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        Adam([("p", p), ("q", q)], lr=lr, l2_decay=l2).step()
        g = grad + l2 * values
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        want = values - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        assert np.abs(p.values - want).max() <= 1e-12
        assert np.array_equal(p.grad, grad), "the optimizer wrote into a gradient"

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_blocked_update_equals_whole_array_update(self, l2):
        # the efficient-form update over whole arrays, in the same order of
        # operations: p -= a_t * m / (sqrt(v) + eps_t)
        def whole_array_step(values, grad, m, v, t, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
            root_bc2 = math.sqrt(1.0 - b2 ** t)
            step_size = lr * root_bc2 / (1.0 - b1 ** t)
            g = np.add(grad, np.multiply(values, l2)) if l2 else grad
            m *= b1
            m += np.multiply(g, 1.0 - b1)
            v *= b2
            g2 = np.multiply(g, g)
            g2 *= 1.0 - b2
            v += g2
            denom = np.sqrt(v)
            denom += eps * root_bc2
            step = np.multiply(m, step_size)
            step /= denom
            values -= step

        rng = Rng(41)
        shapes = {"big": (2 * tr._ADAM_BLOCK + 17,), "small": (5, 3)}
        params = {n: ad.parameter(rng.uniform(-1, 1, s)) for n, s in shapes.items()}
        params["small"].values[0] = 0.0
        ref = {n: [p.values.copy(), np.zeros(s), np.zeros(s)]
               for (n, p), s in zip(params.items(), shapes.values())}
        opt = Adam(list(params.items()), lr=0.01, l2_decay=l2,
                   frozen_rows=[(params["small"], 0)])
        for t in range(1, 4):
            grads = {n: rng.uniform(-1, 1, s) for n, s in shapes.items()}
            for n, p in params.items():
                p.zero_grad()
                p.grad[...] = grads[n]
                values, m, v = ref[n]
                whole_array_step(values, grads[n].copy(), m, v, t)
            ref["small"][0][0] = 0.0
            opt.step()
            for n, p in params.items():
                assert np.array_equal(p.values, ref[n][0]), f"{n} at step {t}"
                assert np.array_equal(p.grad, grads[n]), "the optimizer wrote into a gradient"

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_fifty_blocked_steps_match_algorithm_1(self, l2):
        # Algorithm 1 of Kingma & Ba written out literally, in float64
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        rng = Rng(42)
        shapes = {"big": (2 * tr._ADAM_BLOCK + 17,), "small": (5, 3)}
        params = {n: ad.parameter(rng.uniform(-1, 1, s)) for n, s in shapes.items()}
        params["small"].values[0] = 0.0
        ref = {n: [p.values.copy(), np.zeros(s), np.zeros(s)]
               for (n, p), s in zip(params.items(), shapes.values())}
        opt = Adam(list(params.items()), lr=lr, l2_decay=l2,
                   frozen_rows=[(params["small"], 0)])
        for t in range(1, 51):
            for n, p in params.items():
                p.zero_grad()
                p.grad[...] = rng.uniform(-1, 1, shapes[n])
                theta, m, v = ref[n]
                g = p.grad + l2 * theta
                m[...] = b1 * m + (1 - b1) * g
                v[...] = b2 * v + (1 - b2) * g * g
                m_hat = m / (1 - b1 ** t)
                v_hat = v / (1 - b2 ** t)
                theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
            ref["small"][0][0] = 0.0
            opt.step()
        for n, p in params.items():
            theta, m, v = ref[n]
            np.testing.assert_allclose(p.values, theta, rtol=1e-12, atol=0, err_msg=n)
            # a moment can cancel to near zero, so its tolerance is relative
            # to the moment's largest entry
            for got, want in ((opt.m[n], m), (opt.v[n], v)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n
        assert np.array_equal(params["small"].values[0], np.zeros(3))

    def test_frozen_row_stays_zero(self):
        p = ad.parameter(np.ones((3, 2)))
        p.values[0, :] = 0.0
        p.grad[:] = 1.0
        Adam([("p", p)], lr=0.5, frozen_rows=[(p, 0)]).step()
        assert np.array_equal(p.values[0], [0.0, 0.0])
        assert (p.values[1:] != 1.0).all()


class TestTrainLoop:
    def run(self, cfg, corpus=None, vocab=None, hidden=12, emb=10):
        corpus = corpus or overfit_corpus()
        vocab = vocab or dat.build_vocabs(corpus)
        dims = ModelDims(vocab_size=vocab.n_words, emb_dim=emb, hidden=hidden,
                         n_slots=vocab.n_slots, n_intents=vocab.n_intents)
        init, shuffle, tf, drop = tr.derive_streams(cfg.seed)
        model = build_model(dims, cfg.flags(), init)
        result = tr.train(model, corpus, vocab, cfg, shuffle, tf, drop)
        return model, result

    def test_identical_seeds_identical_history(self):
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=4, seed=5)
        _, a = self.run(cfg)
        _, b = self.run(cfg)
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]
        assert [r.dev_report.to_text() for r in a.history] == \
               [r.dev_report.to_text() for r in b.history]

    def test_overfits_four_utterances(self):
        cfg = TrainConfig(learning_rate=0.05, l2_decay=0.0, dropout_rate=0.0,
                          teacher_forcing_rate=0.0, batch_size=4,
                          max_epochs=200, patience=200, seed=3)
        _, result = self.run(cfg, hidden=16, emb=12)
        assert min(r.train_loss for r in result.history) < 0.01

    def test_patience_zero_stops_after_first_plateau(self):
        # constant dev accuracy: epoch 1 improves over -inf, epoch 2 does not
        corpus = overfit_corpus()
        cfg = TrainConfig(learning_rate=1e-9, max_epochs=50, patience=0,
                          batch_size=4, dropout_rate=0.0, seed=1)
        _, result = self.run(cfg, corpus=corpus)
        assert len(result.history) == 2

    def test_best_snapshot_matches_history_max(self):
        cfg = TrainConfig(max_epochs=4, patience=4, batch_size=4, seed=2,
                          learning_rate=0.02, dropout_rate=0.0)
        corpus = overfit_corpus()
        vocab = dat.build_vocabs(corpus)
        model, result = self.run(cfg, corpus=corpus, vocab=vocab)
        best_in_history = max(r.dev_report.sentence_accuracy for r in result.history)
        assert result.best_dev_accuracy == best_in_history
        restored = tr.evaluate_model(model, corpus.dev, vocab, cfg.batch_size)
        assert restored.sentence_accuracy == best_in_history

    def test_nan_abort_names_culprit(self):
        corpus = overfit_corpus()
        vocab = dat.build_vocabs(corpus)
        cfg = TrainConfig(max_epochs=1, batch_size=4, seed=1)
        dims = ModelDims(vocab_size=vocab.n_words, emb_dim=8, hidden=8,
                         n_slots=vocab.n_slots, n_intents=vocab.n_intents)
        init, shuffle, tf, drop = tr.derive_streams(cfg.seed)
        model = build_model(dims, cfg.flags(), init)
        model.params["encoder.fwd.w_x"].values[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="encoder.fwd.w_x"):
            tr.train(model, corpus, vocab, cfg, shuffle, tf, drop)

    def test_empty_corpus_rejected(self):
        corpus = overfit_corpus()
        vocab = dat.build_vocabs(corpus)
        empty = dat.Corpus(train=[], dev=corpus.dev, test=corpus.test)
        model = tiny_model(vocab)
        with pytest.raises(ValueError):
            tr.train(model, empty, vocab, TrainConfig(), Rng(0), Rng(1), Rng(2))

    def test_pad_embedding_row_stays_zero_through_training(self):
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=4, seed=6,
                          learning_rate=0.01)
        model, _ = self.run(cfg)
        assert np.array_equal(model.embedding.table.values[dat.PAD_ID],
                              np.zeros(model.dims.emb_dim))

    def test_early_stop_best_accuracy_non_decreasing(self):
        cfg = TrainConfig(max_epochs=5, patience=5, batch_size=4, seed=4,
                          learning_rate=0.02, dropout_rate=0.0)
        _, result = self.run(cfg)
        best = -1.0
        for r in result.history:
            best = max(best, r.dev_report.sentence_accuracy)
        assert result.best_dev_accuracy == best


class TestTrainStep:
    CFG = TrainConfig(learning_rate=0.01, l2_decay=1e-4, dropout_rate=0.4,
                      teacher_forcing_rate=0.9, loss_lambda=0.3)

    @staticmethod
    def inline_step(model, batch, optimizer, cfg, tf_rng, dropout_rng):
        """The step as ``train`` wrote it out before ``train_step`` existed."""
        with Tape() as tape:
            result = model.forward(batch, training=True,
                                   tf_rate=cfg.teacher_forcing_rate, tf_rng=tf_rng,
                                   dropout_rate=cfg.dropout_rate, dropout_rng=dropout_rng)
            loss = tr.batch_loss(result, batch, cfg.loss_lambda)
            tr._check_finite(loss, tape, model)
            ad.backward(loss)
        value = loss.item()
        optimizer.step()
        optimizer.zero_grad()
        return value

    def setup(self, vocab):
        model = tiny_model(vocab)
        optimizer = Adam(model.parameters(), lr=self.CFG.learning_rate,
                         l2_decay=self.CFG.l2_decay,
                         frozen_rows=[(model.embedding.table, model.embedding.pad_id)])
        return model, optimizer, Rng(3), Rng(4)

    def test_matches_the_inline_step_bit_for_bit(self, small_synth):
        corpus, vocab = small_synth
        batches = [dat.pad_batch(corpus.train[lo: lo + 8], vocab) for lo in (0, 8, 16)]
        runs = []
        for step in (tr.train_step, self.inline_step):
            model, optimizer, tf, drop = self.setup(vocab)
            losses = [step(model, batch, optimizer, self.CFG, tf, drop) for batch in batches]
            assert optimizer.step_count == 3
            runs.append((losses, {name: p.values.tobytes()
                                  for name, p in model.parameters(active_only=False)}))
        assert runs[0] == runs[1]

    def test_diverging_step_leaves_adam_untouched(self, small_synth):
        corpus, vocab = small_synth
        model, optimizer, tf, drop = self.setup(vocab)
        model.params["encoder.fwd.w_x"].values[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="encoder.fwd.w_x"):
            tr.train_step(model, dat.pad_batch(corpus.train[:8], vocab), optimizer,
                          self.CFG, tf, drop)
        assert optimizer.step_count == 0
        for name, _ in model.parameters():
            assert not optimizer.m[name].any() and not optimizer.v[name].any(), name


class TestEpochBatches:
    @pytest.mark.parametrize("batch_size", [1, 5, 32, 40])
    def test_one_permutation_cut_into_batches(self, small_synth, batch_size):
        corpus, vocab = small_synth
        samples = corpus.train
        rng, twin = Rng(7), Rng(7)
        batches = tr.epoch_batches(samples, vocab, batch_size, rng)
        assert rng.bit_generator.state == twin.bit_generator.state, "drew before iterating"
        batches = list(batches)
        order = twin.permutation(len(samples))
        assert rng.bit_generator.state == twin.bit_generator.state
        chunks = [order[lo: lo + batch_size] for lo in range(0, len(samples), batch_size)]
        assert len(batches) == len(chunks) == -(-len(samples) // batch_size)
        assert sorted(np.concatenate(chunks)) == list(range(len(samples)))
        for batch, rows in zip(batches, chunks):
            want = dat.pad_batch([samples[i] for i in rows], vocab)
            for field in ("token_ids", "slot_ids", "intent_ids", "mask"):
                assert np.array_equal(getattr(batch, field), getattr(want, field)), field


class TestEvaluateModel:
    @pytest.mark.parametrize("batch_size", [1, 5, 16, 40])
    def test_batches_are_chunks_of_the_stable_length_order(self, small_synth, monkeypatch,
                                                           batch_size):
        corpus, vocab = small_synth
        samples = corpus.train
        model = tiny_model(vocab)
        batches = []
        forward = model.forward

        def spy(batch, **kwargs):
            batches.append(batch)
            return forward(batch, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
        tr.evaluate_model(model, samples, vocab, batch_size)
        by_length = sorted(samples, key=lambda s: len(s.tokens))
        chunks = [by_length[lo: lo + batch_size] for lo in range(0, len(samples), batch_size)]
        assert len(batches) == len(chunks) == -(-len(samples) // batch_size)
        for batch, chunk in zip(batches, chunks):
            assert batch.token_ids.shape == (len(chunk), max(len(s.tokens) for s in chunk))
            assert np.array_equal(batch.token_ids, dat.pad_batch(chunk, vocab).token_ids)

    def test_report_is_that_of_input_order(self, small_synth):
        corpus, vocab = small_synth
        samples = corpus.train
        model = tiny_model(vocab)
        # oracle: one unpadded forward per utterance, in input order
        pred_intents, pred_tags = [], []
        for s in samples:
            result = model.forward(dat.pad_batch([s], vocab), training=False)
            pred_intents.append(vocab.intents[result.intent_predictions()[0]])
            pred_tags.append([vocab.slot_tags[j] for j in result.slot_predictions()[0]])
        want = met.compute_report([s.intent for s in samples], pred_intents,
                                  [list(s.slot_tags) for s in samples], pred_tags)
        assert tr.evaluate_model(model, samples, vocab, 16) == want
        assert tr.evaluate_model(model, samples, vocab, 1) == want
        assert tr.evaluate_model(model, samples[::-1], vocab, 16) == want

    def test_empty_sample_list_rejected(self, small_synth):
        _, vocab = small_synth
        with pytest.raises(ValueError, match="no samples to evaluate"):
            tr.evaluate_model(tiny_model(vocab), [], vocab)


class TestTapeLifetime:
    def test_step_tape_freed_without_garbage_collection(self, small_synth):
        # tensors hold their tape weakly, so a step's tape (and the activations
        # its nodes keep for backward) goes as soon as the step's names do
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        batch = dat.pad_batch(corpus.train[:8], vocab)
        gc.disable()
        try:
            with Tape() as tape:
                result = model.forward(batch, training=True, tf_rate=0.9, tf_rng=Rng(0),
                                       dropout_rate=0.1, dropout_rng=Rng(1))
                loss = tr.batch_loss(result, batch, 0.5)
                ad.backward(loss)
            freed = weakref.ref(tape)
            assert loss.tape is tape
            del tape, result, loss
            assert freed() is None
        finally:
            gc.enable()


    def test_train_step_keeps_no_tape_and_no_gradient(self, small_synth, monkeypatch):
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        optimizer = Adam(model.parameters(), lr=0.01)
        tapes = []

        class WatchedTape(Tape):
            def __enter__(self):
                tapes.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(tr, "Tape", WatchedTape)
        gc.disable()
        try:
            tr.train_step(model, dat.pad_batch(corpus.train[:8], vocab), optimizer,
                          TrainConfig(), Rng(0), Rng(1))
            assert len(tapes) == 1 and tapes[0]() is None
            for name, p in model.parameters(active_only=False):
                assert p._grad is None, name
        finally:
            gc.enable()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, small_synth):
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        path = tmp_path / "model.ckpt"
        config = {"seed": 11, "hidden": 12, "note": "unit"}
        tr.save_checkpoint(str(path), model, config, vocab)
        ckpt = tr.load_checkpoint(str(path))
        assert ckpt.config == config
        assert ckpt.vocab.words == vocab.words
        for name, tensor in model.parameters(active_only=True):
            assert np.array_equal(ckpt.tensors[name], tensor.values)
        # write the loaded state again: byte-identical files
        rebuilt = ckpt.build_model()
        path2 = tmp_path / "model2.ckpt"
        tr.save_checkpoint(str(path2), rebuilt, config, ckpt.vocab)
        assert path.read_bytes() == path2.read_bytes()

    def test_ablated_checkpoint_omits_disabled_params(self, tmp_path, small_synth):
        _, vocab = small_synth
        model = tiny_model(vocab, flags=AblationFlags(intent2slot=False))
        path = tmp_path / "ablated.ckpt"
        tr.save_checkpoint(str(path), model, {"seed": 1}, vocab)
        ckpt = tr.load_checkpoint(str(path))
        assert not any(n.startswith("decoder.slot_rational") for n in ckpt.tensors)
        assert not any(n.startswith("coop.") for n in ckpt.tensors)
        rebuilt = ckpt.build_model()
        assert rebuilt.flags.intent2slot is False

    @pytest.mark.parametrize("flag", [None, "no_slot2intent", "no_intent2slot",
                                      "no_gaussian_attention", "no_cooperation"])
    def test_build_adopts_arrays_and_matches_a_seeded_build(self, tmp_path, small_synth, flag):
        corpus, vocab = small_synth
        model = tiny_model(vocab, flags=TrainConfig(**({flag: True} if flag else {})).flags())
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(str(path), model, {"seed": 11}, vocab)
        ckpt = tr.load_checkpoint(str(path))
        served = ckpt.build_model()
        # oracle: a seeded random initialisation with the loaded values copied in
        seeded = build_model(ckpt.dims, ckpt.flags, Rng(11))
        for name, arr in ckpt.tensors.items():
            seeded.params[name].values[...] = arr
        seeded.embedding.zero_pad_row()
        batch = dat.pad_batch(corpus.dev, vocab)
        got, want = served.forward(batch), seeded.forward(batch)
        assert got.z_slot.values.tobytes() == want.z_slot.values.tobytes()
        assert got.z_intent.values.tobytes() == want.z_intent.values.tobytes()
        active = served.active_param_names()
        assert sorted(active) == sorted(ckpt.tensors)
        for name, tensor in served.params.items():
            if name in ckpt.tensors:
                assert np.shares_memory(tensor.values, ckpt.tensors[name]), name
            else:
                assert not tensor.values.any(), name

    def test_tensors_are_views_of_one_arena(self, tmp_path, small_synth):
        _, vocab = small_synth
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(str(path), tiny_model(vocab), {"seed": 11}, vocab)
        tensors = tr.load_checkpoint(str(path)).tensors
        for name, arr in tensors.items():
            assert arr.dtype == np.float64, name
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable, name
        bases = {id(arr.base) for arr in tensors.values()}
        assert len(bases) == 1 and next(iter(tensors.values())).base is not None

    def test_served_model_takes_an_adam_step(self, tmp_path, small_synth):
        corpus, vocab = small_synth
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(str(path), tiny_model(vocab), {"seed": 11}, vocab)
        ckpt = tr.load_checkpoint(str(path))
        served = ckpt.build_model()
        before = {name: arr.copy() for name, arr in ckpt.tensors.items()}
        batch = dat.pad_batch(corpus.train[:8], vocab)
        with Tape():
            ad.backward(tr.batch_loss(served.forward(batch), batch, 0.5))
        Adam(served.parameters(), lr=0.01).step()
        for name, tensor in served.parameters():
            assert np.isfinite(tensor.values).all(), name
            assert np.shares_memory(tensor.values, ckpt.tensors[name]), name
        assert any(not np.array_equal(before[n], a) for n, a in ckpt.tensors.items())

    def test_short_read_is_a_truncation(self, tmp_path, small_synth, monkeypatch):
        path = tmp_path / "model.ckpt"
        path.write_bytes(self.saved(tmp_path, small_synth))

        class ShortReads(io.BufferedReader):
            def readinto(self, buffer):
                return super().readinto(buffer) - 1

        monkeypatch.setattr(tr, "open", lambda file, mode: ShortReads(io.FileIO(file, mode)),
                            raising=False)
        with pytest.raises(ValueError, match="truncated or corrupt") as info:
            tr.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @staticmethod
    def saved(tmp_path, small_synth) -> bytes:
        _, vocab = small_synth
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(str(path), tiny_model(vocab), {"seed": 11}, vocab)
        return path.read_bytes()

    def test_huge_header_length_rejected_before_reading(self, tmp_path, small_synth):
        data = bytearray(self.saved(tmp_path, small_synth))
        data[8:16] = struct.pack("<Q", 10 ** 12)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated or corrupt") as info:
                tr.load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(info.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize("cut", [1, 13, 8 * 3 + 1])
    def test_truncated_file_names_the_file(self, tmp_path, small_synth, cut):
        data = self.saved(tmp_path, small_synth)
        path = tmp_path / "short.ckpt"
        path.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match="truncated or corrupt") as info:
            tr.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_unrepresentable_shape_names_the_file(self, tmp_path, small_synth):
        data = self.saved(tmp_path, small_synth)
        (header_len,) = struct.unpack("<Q", data[8:16])
        (name_len,) = struct.unpack("<H", data[20 + header_len:22 + header_len])
        shape_at = 23 + header_len + name_len
        assert data[shape_at - 1] == 2    # the first tensor is a matrix
        path = tmp_path / "shape.ckpt"
        # 0 values to read, but no array can have this shape
        path.write_bytes(data[:shape_at] + struct.pack("<2Q", 0, 2 ** 63) + data[shape_at + 16:])
        with pytest.raises(ValueError, match="corrupt checkpoint: shape") as info:
            tr.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_trailing_bytes_rejected(self, tmp_path, small_synth):
        path = tmp_path / "long.ckpt"
        path.write_bytes(self.saved(tmp_path, small_synth) + b"\0")
        with pytest.raises(ValueError, match="1 bytes after the last tensor"):
            tr.load_checkpoint(str(path))

    def test_header_with_wrong_fields_rejected(self, tmp_path, small_synth):
        data = self.saved(tmp_path, small_synth)
        (header_len,) = struct.unpack("<Q", data[8:16])
        header = data[16:16 + header_len].replace(b'"dims"', b'"eims"')
        path = tmp_path / "renamed.ckpt"
        path.write_bytes(data[:16] + header + data[16 + header_len:])
        with pytest.raises(ValueError, match="corrupt checkpoint header"):
            tr.load_checkpoint(str(path))

    def test_failed_save_keeps_the_old_file(self, tmp_path, small_synth):
        _, vocab = small_synth
        model = tiny_model(vocab)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(str(path), model, {"seed": 11}, vocab)
        before = path.read_bytes()

        class Unwritable:
            values = ["not a number"]

        items = model.parameters(active_only=True)
        model.parameters = lambda active_only=True: items + [("bad", Unwritable())]
        with pytest.raises(ValueError):
            tr.save_checkpoint(str(path), model, {"seed": 11}, vocab)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            tr.load_checkpoint(str(path))
