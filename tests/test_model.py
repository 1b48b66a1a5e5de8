import numpy as np
import pytest

from conftest import tiny_model

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu import interaction as inter
from jointslu import training as tr
from jointslu.autodiff import Rng, Tape
from jointslu.model import AblationFlags, ModelDims, build_model


# Every parameter in checkpoint order; changing it changes the checkpoint bytes.
PARAM_NAMES = [
    "embedding.table",
    "encoder.fwd.w_x", "encoder.fwd.w_h", "encoder.fwd.b",
    "encoder.bwd.w_x", "encoder.bwd.w_h", "encoder.bwd.b",
    "attention.w_raw", "attention.b_raw",
    *(f"decoder.{role}.{t}"
      for role in ("slot_intuitive", "intent_rational", "intent_intuitive", "slot_rational")
      for t in ("w_x", "w_h", "b", "proj")),
    *(f"coop.{gate}.{t}" for gate in ("slot_gate", "intent_gate")
      for t in ("w1", "b1", "w2", "b2")),
    "head.slot", "head.intent",
]
DECODE_ROLES = ("intuitive_slot_decode", "rational_intent_decode",
                "intuitive_intent_decode", "rational_slot_decode")


def grads_after_backward(model, batch, training=False, **kw):
    model.zero_grad()
    with Tape():
        result = model.forward(batch, training=training, **kw)
        ad.backward(tr.batch_loss(result, batch, 0.5))
    return {n: t.grad.copy() for n, t in model.parameters(active_only=False)}


class TestAblationStructure:
    def test_both_directions_off_rejected(self):
        with pytest.raises(ValueError):
            AblationFlags(slot2intent=False, intent2slot=False)

    @pytest.mark.parametrize("flags,dead_prefixes", [
        (AblationFlags(slot2intent=False),
         ("decoder.slot_intuitive", "decoder.intent_rational", "coop.")),
        (AblationFlags(intent2slot=False),
         ("decoder.intent_intuitive", "decoder.slot_rational", "coop.")),
        (AblationFlags(gaussian_attention=False), ("attention.",)),
        (AblationFlags(cooperation=False), ("coop.",)),
    ])
    def test_disabled_path_gradients_are_zero(self, small_synth, flags, dead_prefixes):
        corpus, vocab = small_synth
        model = tiny_model(vocab, flags=flags)
        batch = dat.pad_batch(corpus.train[:6], vocab)
        grads = grads_after_backward(model, batch)
        for name, g in grads.items():
            if name.startswith(dead_prefixes):
                assert not g.any(), f"{name} should have zero grad"
            else:
                assert g.any(), f"{name} unexpectedly has zero grad"

    def test_active_set_excludes_disabled(self, small_synth):
        _, vocab = small_synth
        model = tiny_model(vocab, flags=AblationFlags(intent2slot=False))
        active = model.active_param_names()
        assert not any(n.startswith("decoder.slot_rational") for n in active)
        assert not any(n.startswith("coop.") for n in active)
        assert any(n.startswith("decoder.slot_intuitive") for n in active)

    @pytest.mark.parametrize("flags,inactive_prefixes", [
        (AblationFlags(), ()),
        (AblationFlags(slot2intent=False),
         ("decoder.slot_intuitive.", "decoder.intent_rational.", "coop.")),
        (AblationFlags(intent2slot=False),
         ("decoder.intent_intuitive.", "decoder.slot_rational.", "coop.")),
        (AblationFlags(gaussian_attention=False), ("attention.",)),
        (AblationFlags(cooperation=False), ("coop.",)),
    ])
    def test_parameter_names_and_active_set(self, small_synth, flags, inactive_prefixes):
        _, vocab = small_synth
        model = tiny_model(vocab, flags=flags)
        assert len(PARAM_NAMES) == 35
        assert [n for n, _ in model.parameters(active_only=False)] == PARAM_NAMES
        assert model.active_param_names() == [
            n for n in PARAM_NAMES if not n.startswith(inactive_prefixes)]

    @pytest.mark.parametrize("flags,roles", [
        (AblationFlags(), DECODE_ROLES),
        (AblationFlags(cooperation=False), DECODE_ROLES),
        (AblationFlags(slot2intent=False), ("intuitive_intent_decode", "rational_slot_decode")),
        (AblationFlags(intent2slot=False), ("intuitive_slot_decode", "rational_intent_decode")),
    ])
    def test_forward_calls_each_decode_role_once(self, small_synth, monkeypatch, flags, roles):
        # the benchmark's tracer times each role by wrapping these names
        corpus, vocab = small_synth
        model = tiny_model(vocab, flags=flags)
        calls = {}
        for role in DECODE_ROLES:
            def counted(*args, role=role, fn=getattr(inter, role), **kw):
                calls[role] = calls.get(role, 0) + 1
                return fn(*args, **kw)
            monkeypatch.setattr(inter, role, counted)
        model.forward(dat.pad_batch(corpus.train[:3], vocab), training=True, tf_rate=0.9,
                      tf_rng=Rng(0))
        assert calls == {role: 1 for role in roles}

    def test_flag_roundtrip_identical_outputs(self, small_synth):
        # the flags only reroute computation; toggling them on a fresh model
        # with the same seed must reproduce the full model's outputs exactly
        corpus, vocab = small_synth
        batch = dat.pad_batch(corpus.train[:4], vocab)
        a = tiny_model(vocab, seed=3).forward(batch)
        b = tiny_model(vocab, seed=3, flags=AblationFlags()).forward(batch)
        assert np.array_equal(a.z_intent.values, b.z_intent.values)
        assert np.array_equal(a.z_slot.values, b.z_slot.values)

    @pytest.mark.parametrize("flags", [
        AblationFlags(),
        AblationFlags(slot2intent=False),
        AblationFlags(intent2slot=False),
        AblationFlags(gaussian_attention=False),
        AblationFlags(cooperation=False),
    ])
    def test_loss_finite_over_seeds(self, small_synth, flags):
        corpus, vocab = small_synth
        batch = dat.pad_batch(corpus.train[:4], vocab)
        for seed in range(10):
            model = tiny_model(vocab, seed=seed, flags=flags)
            loss = tr.batch_loss(model.forward(batch), batch, 0.5)
            assert np.isfinite(loss.item())


class TestForward:
    def test_distributions_and_argmax_ties(self, small_synth):
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        batch = dat.pad_batch(corpus.train[:5], vocab)
        result = model.forward(batch)
        for z in (result.z_intent, result.z_slot):
            y = ad.softmax(z, axis=1).values
            assert np.abs(y.sum(axis=1) - 1).max() <= 1e-12
            assert np.array_equal(y.argmax(axis=1), z.values.argmax(axis=1))
        assert result.slot_predictions().shape == batch.token_ids.shape

    def test_eval_forward_is_deterministic(self, small_synth):
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        batch = dat.pad_batch(corpus.train[:5], vocab)
        a = model.forward(batch)
        b = model.forward(batch)
        assert np.array_equal(a.z_intent.values, b.z_intent.values)
        assert np.array_equal(a.z_slot.values, b.z_slot.values)

    def test_padding_invariance_of_loss(self, small_synth):
        corpus, vocab = small_synth
        rng = Rng(17)
        for trial in range(20):
            model = tiny_model(vocab, seed=100 + trial)
            idx = rng.permutation(len(corpus.train))[:5]
            samples = [corpus.train[i] for i in idx]
            batch = dat.pad_batch(samples, vocab)
            padded = tr.batch_loss(model.forward(batch), batch, 0.5).item()
            singles = sum(
                tr.batch_loss(model.forward(b), b, 0.5).item()
                for b in (dat.pad_batch([s], vocab) for s in samples))
            assert abs(padded - singles) <= 1e-10

    def test_padded_content_changes_nothing(self, small_synth):
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        samples = sorted(corpus.train[:6], key=lambda s: len(s.tokens))
        batch = dat.pad_batch(samples, vocab)
        assert not batch.mask.all(), "fixture needs mixed lengths"
        g1 = grads_after_backward(model, batch)
        tampered = dat.UtteranceBatch(batch.token_ids.copy(), batch.slot_ids,
                                      batch.intent_ids, batch.mask)
        tampered.token_ids[~tampered.mask] = 3
        g2 = grads_after_backward(model, tampered)
        for name in g1:
            assert np.array_equal(g1[name], g2[name]), name

    def test_teacher_forcing_changes_training_path(self, small_synth):
        corpus, vocab = small_synth
        model = tiny_model(vocab)
        batch = dat.pad_batch(corpus.train[:4], vocab)
        free = model.forward(batch, training=True, tf_rate=0.0)
        forced = model.forward(batch, training=True, tf_rate=1.0, tf_rng=Rng(0))
        diff = np.abs(free.z_slot.values - forced.z_slot.values).max()
        assert diff > 0

    @pytest.mark.parametrize("flags,n_decoders", [
        (AblationFlags(), 4),
        (AblationFlags(slot2intent=False), 2),
        (AblationFlags(intent2slot=False), 2),
    ])
    def test_teacher_forcing_draws_one_double_per_row_step_and_decoder(
            self, small_synth, flags, n_decoders):
        # steps 1..T-1 of each running decoder draw one double per batch row
        corpus, vocab = small_synth
        batch = dat.pad_batch(corpus.train[:5], vocab)
        B, T = batch.token_ids.shape
        drawn, expected = Rng(4), Rng(4)
        tiny_model(vocab, flags=flags).forward(batch, training=True, tf_rate=0.9,
                                               tf_rng=drawn)
        expected.random(n_decoders * (T - 1) * B)
        assert drawn.bit_generator.state == expected.bit_generator.state

    def test_training_step_node_budget(self):
        # one recorded node per LSTM scan, one for the batch's self-attention,
        # and one pass of the cooperation layer and losses over all rows
        corpus = dat.generate_synthetic(dat.SynthSpec(train_samples=64, seed=5))
        vocab = dat.build_vocabs(corpus)
        samples = sorted(corpus.train, key=lambda s: -len(s.tokens))[:16]
        batch = dat.pad_batch(samples, vocab)
        assert batch.token_ids.shape == (16, 9)
        model = tiny_model(vocab)
        with Tape() as tape:
            result = model.forward(batch, training=True, tf_rate=0.9, tf_rng=Rng(0),
                                   dropout_rate=0.1, dropout_rng=Rng(1))
            tr.batch_loss(result, batch, 0.5)
        assert len(tape.nodes) <= 26
        # the locality reparametrization runs inside gaussian_attention and
        # lambda rides in the cross-entropy weights: no scalar glue nodes
        assert sum(n.name in ("exp", "scale") for n in tape.nodes) == 0
        # one embedding gather; the encoder's features and the two rational
        # decoders' inputs are the concats; dropout is a mul by a constant mask
        assert sum(n.name == "take_rows" for n in tape.nodes) == 1
        assert sum(n.name == "concat" for n in tape.nodes) == 3
        assert sum(n.name == "dropout" for n in tape.nodes) == 0
        # each decoder's hidden states and distributions are two outputs of its scan
        assert sum(n.name == "slice_cols" for n in tape.nodes) == 0
        assert sum(n.name == "lstm_scan" and len(n.outs) == 2 for n in tape.nodes) == 4
        # each loss reads a head's logits, each fuse is one blend that applies
        # its gate's softmax, and the one mul is dropout's
        assert sum(n.name == "cross_entropy" for n in tape.nodes) == 2
        assert sum(n.name == "nll" for n in tape.nodes) == 0
        assert sum(n.name == "blend" for n in tape.nodes) == 2
        assert sum(n.name in ("softmax", "sub") for n in tape.nodes) == 0
        assert sum(n.name == "mul" for n in tape.nodes) == 1
        assert sum(n.name == "lstm_scan" for n in tape.nodes) == 6
        assert sum(n.name == "gaussian_attention" for n in tape.nodes) == 1

    def test_full_model_gradient_matches_fd(self, tiny_corpus):
        corpus, vocab = tiny_corpus
        dims = ModelDims(vocab_size=vocab.n_words, emb_dim=8, hidden=8,
                         n_slots=vocab.n_slots, n_intents=vocab.n_intents)
        model = build_model(dims, AblationFlags(), Rng(7))
        batch = dat.pad_batch(corpus.train[:2], vocab)

        def f():
            return tr.batch_loss(model.forward(batch), batch, 0.5)

        spot = [model.params["attention.w_raw"], model.params["attention.b_raw"],
                model.params["head.intent"], model.params["coop.slot_gate.b1"],
                model.params["encoder.fwd.b"]]
        assert ad.grad_check(f, spot, 1e-4) <= 1e-4


class TestLoadValues:
    @pytest.mark.parametrize("bad", [lambda a: a.astype(np.float32), np.asfortranarray])
    def test_rejects_arrays_adam_cannot_update_and_loads_nothing(self, small_synth, bad):
        _, vocab = small_synth
        model = tiny_model(vocab)
        values = {n: v + 1.0 for n, v in model.snapshot().items()}
        before = model.snapshot()
        values["encoder.fwd.w_x"] = bad(values["encoder.fwd.w_x"])
        with pytest.raises(ValueError, match="encoder.fwd.w_x must be a C-contiguous float64"):
            model.load_values(values)
        assert all(np.array_equal(model.params[n].values, v) for n, v in before.items())
