import gc
import weakref

import numpy as np
import pytest

from conftest import overfit_corpus, tiny_model

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu import training as tr
from jointslu.autodiff import Rng, Tape
from jointslu.model import AblationFlags, ModelDims, build_model
from jointslu.training import Adam, TrainConfig, TrainingDiverged


def dist_steps(rows_per_step):
    """Time-major [T*B, K] distributions from the per-step [B, K] rows."""
    return ad.constant(np.vstack([np.asarray(r) for r in rows_per_step]))


class TestSlotLoss:
    def test_perfect_onehot_is_zero(self):
        y = dist_steps([[[0.0, 1.0]], [[1.0, 0.0]]])
        ids = np.array([[1, 0]])
        mask = np.ones((1, 2), dtype=bool)
        assert tr.slot_loss(y, ids, mask).item() == 0.0

    def test_uniform_is_m_log_k(self):
        K, M = 5, 3
        y = dist_steps([np.full((1, K), 1.0 / K)] * M)
        ids = np.zeros((1, M), dtype=np.int64)
        mask = np.ones((1, M), dtype=bool)
        assert tr.slot_loss(y, ids, mask).item() == pytest.approx(M * np.log(K), abs=1e-12)

    def test_hand_computed_two_tokens(self):
        y = dist_steps([[[0.7, 0.3]], [[0.2, 0.8]]])
        ids = np.array([[0, 1]])
        mask = np.ones((1, 2), dtype=bool)
        expected = -(np.log(0.7) + np.log(0.8))
        assert abs(tr.slot_loss(y, ids, mask).item() - expected) <= 1e-12

    def test_masked_tokens_excluded(self):
        y = dist_steps([[[0.5, 0.5]], [[0.9, 0.1]]])
        ids = np.array([[0, dat.PAD_SLOT_ID]])
        mask = np.array([[True, False]])
        assert tr.slot_loss(y, ids, mask).item() == pytest.approx(-np.log(0.5))

    def test_bad_gold_id(self):
        y = dist_steps([[[0.5, 0.5]]])
        with pytest.raises(IndexError):
            tr.slot_loss(y, np.array([[7]]), np.ones((1, 1), dtype=bool))


class TestIntentLoss:
    def test_uniform_single(self):
        y = ad.constant(np.full((1, 4), 0.25))
        assert tr.intent_loss(y, np.array([2])).item() == pytest.approx(np.log(4), abs=1e-12)

    def test_perfect_is_zero(self):
        y = ad.constant([[0.0, 1.0]])
        assert tr.intent_loss(y, np.array([1])).item() == 0.0

    def test_batch_is_sum_of_singletons(self):
        rows = np.array([[0.6, 0.4], [0.1, 0.9]])
        ids = np.array([0, 1])
        batched = tr.intent_loss(ad.constant(rows), ids).item()
        singles = sum(tr.intent_loss(ad.constant(rows[i: i + 1]), ids[i: i + 1]).item()
                      for i in range(2))
        assert batched == pytest.approx(singles, abs=1e-12)

    def test_bad_gold_id(self):
        with pytest.raises(IndexError):
            tr.intent_loss(ad.constant([[1.0, 0.0]]), np.array([2]))


class TestJointLoss:
    def test_lambda_extremes(self):
        s, i = ad.constant([2.0]), ad.constant([4.0])
        assert tr.joint_loss(s, i, 1.0).item() == 2.0
        assert tr.joint_loss(s, i, 0.0).item() == 4.0

    def test_midpoint(self):
        assert tr.joint_loss(ad.constant([2.0]), ad.constant([4.0]), 0.5).item() == 3.0

    def test_monotone_in_components(self):
        base = tr.joint_loss(ad.constant([2.0]), ad.constant([4.0]), 0.3).item()
        assert tr.joint_loss(ad.constant([2.5]), ad.constant([4.0]), 0.3).item() > base
        assert tr.joint_loss(ad.constant([2.0]), ad.constant([4.5]), 0.3).item() > base

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            tr.joint_loss(ad.constant([1.0]), ad.constant([1.0]), 1.5)


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
            ad.backward(ad.sum_all(ad.mul(p, p)))
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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            tr.load_checkpoint(str(path))
