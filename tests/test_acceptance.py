"""Acceptance gate: every criterion asserted at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. The synthetic end-to-end and ablation criteria share one set of
training runs (three seeds each for the full model and the two
single-direction ablations), so this module takes several minutes.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import overfit_corpus

from jointslu import autodiff as ad
from jointslu import cli
from jointslu import cooperation as coop
from jointslu import data as dat
from jointslu import encoder as enc
from jointslu import metrics as met
from jointslu import training as tr
from jointslu.autodiff import Rng, Tape
from jointslu.model import AblationFlags, ModelDims, build_model
from test_metrics import brute_force_chunks

SEEDS = (1, 2, 3)
VARIANTS = {
    "full": {},
    "w/o slot2intent": {"no_slot2intent": True},
    "w/o intent2slot": {"no_intent2slot": True},
}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


@pytest.fixture(scope="module")
def synth_corpus():
    spec = dat.SynthSpec(n_intents=5, slot_types_per_intent=3, purity=1.0,
                         train_samples=2000, dev_samples=200, test_samples=200, seed=0)
    corpus = dat.generate_synthetic(spec)
    return corpus, dat.build_vocabs(corpus)


@pytest.fixture(scope="module")
def synth_runs(synth_corpus):
    """model variant -> seed -> (best dev accuracy over history, best dev report,
    wall-clock seconds)."""
    corpus, vocab = synth_corpus
    dims = ModelDims(vocab_size=vocab.n_words, emb_dim=32, hidden=48,
                     n_slots=vocab.n_slots, n_intents=vocab.n_intents)
    runs = {}
    for variant, overrides in VARIANTS.items():
        runs[variant] = {}
        for seed in SEEDS:
            cfg = tr.TrainConfig(learning_rate=0.004, dropout_rate=0.1,
                                 max_epochs=30, patience=4, seed=seed, **overrides)
            init, shuffle, tf_rng, drop = tr.derive_streams(seed)
            model = build_model(dims, cfg.flags(), init)
            start = time.monotonic()
            result = tr.train(model, corpus, vocab, cfg, shuffle, tf_rng, drop)
            elapsed = time.monotonic() - start
            best = max(r.dev_report.sentence_accuracy for r in result.history)
            report = result.history[result.best_epoch - 1].dev_report
            runs[variant][seed] = (best, report, elapsed)
    return runs


def test_full_configuration_runs_unchanged(tmp_path):
    # benchmark corpora are not bundled; the gate is that the default
    # configuration (embedding 512, hidden 256, stated hyperparameters)
    # trains end to end on any supplied three-file corpus
    with criterion("full default configuration runs on a supplied corpus"):
        corpus = dat.generate_synthetic(
            dat.SynthSpec(train_samples=8, dev_samples=4, test_samples=4, seed=2))
        dat.write_corpus(corpus, tmp_path / "corpus")
        cfg = cli.RunConfig()
        assert (cfg.emb_dim, cfg.hidden) == (512, 256)
        assert (cfg.learning_rate, cfg.l2_decay) == (0.001, 1e-6)
        assert (cfg.batch_size, cfg.teacher_forcing_rate) == (16, 0.9)
        assert (cfg.dropout_rate, cfg.loss_lambda) == (0.4, 0.5)
        rc = cli.main(["train", "--data", str(tmp_path / "corpus"),
                       "--out", str(tmp_path / "run"), "--max-epochs", "1",
                       "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "run" / "checkpoint.bin").is_file()


def test_gradient_fidelity():
    with criterion("cmd_gradcheck: every group <= 1e-4 within 2 minutes"):
        start = time.monotonic()
        report = cli.run_gradcheck(AblationFlags())
        elapsed = time.monotonic() - start
        checked = {k: v for k, v in report.items() if v is not None}
        assert checked, "no active parameter groups"
        worst = max(checked.values())
        print(f"  worst group error {worst:.3e} over {len(checked)} groups "
              f"in {elapsed:.0f}s")
        assert worst <= 1e-4
        assert elapsed <= 120


def test_gradcheck_reports_unused_groups_per_flag():
    with criterion("cmd_gradcheck flags mark disabled groups unused"):
        report = cli.run_gradcheck(AblationFlags(cooperation=False))
        gate_groups = [k for k in report if k.startswith("coop.")]
        assert gate_groups and all(report[k] is None for k in gate_groups)
        assert max(v for v in report.values() if v is not None) <= 1e-4


def test_analytic_unit_oracles():
    with criterion("softmax([1,-1]) = [0.88080, 0.11920] +- 1e-4"):
        out = ad.softmax(ad.constant([1.0, -1.0]), axis=0).values
        assert np.abs(out - [0.88080, 0.11920]).max() <= 1e-4

    with criterion("gaussian attention T=1 identity exact"):
        x = ad.constant([[0.3, -0.8, 2.0]])
        c, _ = enc.gaussian_self_attention(x, np.ones(1, dtype=bool),
                                           ad.constant([1.0]), ad.constant([-0.5]))
        assert np.array_equal(c.values, x.values)

    with criterion("zero-weight LSTM produces zero hidden states"):
        p = enc.LstmParams(w_x=ad.constant(np.zeros((8, 3))),
                           w_h=ad.constant(np.zeros((8, 2))),
                           b=ad.constant(np.zeros(8)))
        h = ad.constant(np.zeros((1, 2)))
        c = ad.constant(np.zeros((1, 2)))
        for v in ([1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]):
            h, c = enc.lstm_step(ad.constant([v]), h, c, p)
            assert np.array_equal(h.values, np.zeros((1, 2)))

    with criterion("uniform-prediction cross-entropy equals ln K +- 1e-12"):
        for K in (2, 5, 31):
            y = ad.constant(np.full((1, K), 1.0 / K))
            loss = tr.intent_loss(y, np.array([K - 1])).item()
            assert abs(loss - np.log(K)) <= 1e-12

    with criterion("fusion convexity bound on 1000 random triples"):
        rng = Rng(99)
        p = coop.init_mlp(6, rng)
        for _ in range(1000):
            h_rs = ad.constant(rng.uniform(-3, 3, (1, 6)))
            h_is = ad.constant(rng.uniform(-3, 3, (1, 6)))
            out = coop.fuse(h_rs, h_is, coop.gate(h_rs, p)).values
            lo = np.minimum(h_rs.values, h_is.values)
            hi = np.maximum(h_rs.values, h_is.values)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_metric_oracles():
    with criterion("slot_f1 matches brute-force matcher on 200 random pairs"):
        rng = Rng(7)
        tags = ["O"] + [f"{p}-{t}" for p in "BI" for t in ("a", "b", "c")]
        for _ in range(200):
            n = int(rng.integers(1, 11))
            gold = [tags[i] for i in rng.integers(0, len(tags), n)]
            pred = [tags[i] for i in rng.integers(0, len(tags), n)]
            got = met.extract_chunks(gold)
            want = {met.Chunk(t, s, e) for t, s, e in brute_force_chunks(gold)}
            assert got == want
            g_chunks = {met.Chunk(t, s, e) for t, s, e in brute_force_chunks(gold)}
            p_chunks = {met.Chunk(t, s, e) for t, s, e in brute_force_chunks(pred)}
            matched = len(g_chunks & p_chunks)
            bp = matched / len(p_chunks) if p_chunks else 0.0
            br = matched / len(g_chunks) if g_chunks else 0.0
            bf = 2 * bp * br / (bp + br) if bp + br else 0.0
            assert met.slot_f1([gold], [pred]) == (bp, br, bf)

    with criterion("hand fixture P=0.5 R=1.0 F1=2/3"):
        gold = [["O", "B-artist", "I-artist", "O", "O"]]
        pred = [["O", "B-artist", "I-artist", "O", "B-album"]]
        p, r, f1 = met.slot_f1(gold, pred)
        assert (p, r) == (0.5, 1.0) and abs(f1 - 2 / 3) <= 1e-12

    with criterion("intent error rate and sentence accuracy identities, 100 corpora"):
        rng = Rng(8)
        tags = ["O", "B-a", "B-b"]
        for _ in range(100):
            n = int(rng.integers(1, 25))
            gold, pred = [], []
            for _ in range(n):
                m = int(rng.integers(1, 6))
                gold.append((int(rng.integers(0, 3)),
                             [tags[i] for i in rng.integers(0, 3, m)]))
                # half the time copy gold to exercise the perfect branch
                if rng.random() < 0.5:
                    pred.append(gold[-1])
                else:
                    pred.append((int(rng.integers(0, 3)),
                                 [tags[i] for i in rng.integers(0, 3, m)]))
            g_int = [g[0] for g in gold]
            p_int = [p_[0] for p_ in pred]
            rate = met.intent_error_rate(g_int, p_int)
            acc = sum(a == b for a, b in zip(g_int, p_int)) / n
            assert abs(rate + acc - 1.0) <= 1e-12
            s_acc = met.sentence_accuracy(gold, pred)
            slots_acc = sum(g[1] == p_[1] for g, p_ in zip(gold, pred)) / n
            assert s_acc <= min(acc, slots_acc) + 1e-12
            if s_acc == 1.0:
                assert rate == 0.0
                assert met.slot_f1([g[1] for g in gold], [p_[1] for p_ in pred])[2] \
                    in (1.0, 0.0)  # 0.0 only when there are no chunks at all


def test_overfit_capability():
    with criterion("4-utterance corpus: joint loss < 0.01 within 200 epochs, <= 1 min"):
        corpus = overfit_corpus()
        vocab = dat.build_vocabs(corpus)
        dims = ModelDims(vocab_size=vocab.n_words, emb_dim=12, hidden=16,
                         n_slots=vocab.n_slots, n_intents=vocab.n_intents)
        cfg = tr.TrainConfig(learning_rate=0.05, l2_decay=0.0, dropout_rate=0.0,
                             teacher_forcing_rate=0.0, batch_size=4,
                             max_epochs=200, patience=200, seed=3)
        init, shuffle, tf_rng, drop = tr.derive_streams(cfg.seed)
        model = build_model(dims, cfg.flags(), init)
        start = time.monotonic()
        result = tr.train(model, corpus, vocab, cfg, shuffle, tf_rng, drop)
        elapsed = time.monotonic() - start
        best = min(r.train_loss for r in result.history)
        print(f"  min joint loss {best:.5f} in {elapsed:.0f}s")
        assert best < 0.01
        assert elapsed <= 60


def test_synthetic_end_to_end(synth_runs):
    with criterion("purity-1 synthetic: dev sentence accuracy >= 0.95 within 30 "
                   "epochs for seeds 1,2,3; <= 10 min per run"):
        for seed in SEEDS:
            best, _, elapsed = synth_runs["full"][seed]
            print(f"  seed {seed}: best dev accuracy {best:.4f} in {elapsed:.0f}s")
            assert best >= 0.95, f"seed {seed} only reached {best}"
            assert elapsed <= 600


def test_ablation_non_inferiority(synth_runs, tmp_path):
    rows = []
    for variant in VARIANTS:
        accs = [synth_runs[variant][s][0] for s in SEEDS]
        reports = [synth_runs[variant][s][1] for s in SEEDS]
        rows.append((variant,
                     float(np.mean([r.intent_error_rate for r in reports])),
                     float(np.mean([r.slot_f1 for r in reports])),
                     float(np.mean(accs))))
    lines = [f"{'model':<22}{'intent_err':>12}{'slot_f1':>10}{'overall_acc':>13}"]
    for name, err, f1, acc in rows:
        lines.append(f"{name:<22}{err:>12.4f}{f1:>10.4f}{acc:>13.4f}")
    table = "\n".join(lines)
    (tmp_path / "ablation_report.txt").write_text(table + "\n")
    print("\n" + table)  # emitted regardless of the assertion outcome
    with criterion("full model within 1pp of single-direction ablations (mean of 3 seeds)"):
        full_acc = rows[0][3]
        for name, _, _, acc in rows[1:]:
            assert full_acc >= acc - 0.01, f"full {full_acc:.4f} vs {name} {acc:.4f}"


def test_ablation_structural_zero_grads(synth_corpus):
    with criterion("disabled-path parameter gradients identically zero (all four flags)"):
        corpus, vocab = synth_corpus
        dims = ModelDims(vocab_size=vocab.n_words, emb_dim=10, hidden=12,
                         n_slots=vocab.n_slots, n_intents=vocab.n_intents)
        batch = dat.pad_batch(corpus.train[:6], vocab)
        cases = [
            (AblationFlags(slot2intent=False),
             ("decoder.slot_intuitive", "decoder.intent_rational", "coop.")),
            (AblationFlags(intent2slot=False),
             ("decoder.intent_intuitive", "decoder.slot_rational", "coop.")),
            (AblationFlags(gaussian_attention=False), ("attention.",)),
            (AblationFlags(cooperation=False), ("coop.",)),
        ]
        for flags, dead in cases:
            model = build_model(dims, flags, Rng(13))
            model.zero_grad()
            with Tape():
                ad.backward(tr.batch_loss(model.forward(batch, training=True,
                                                        tf_rate=0.9, tf_rng=Rng(1)),
                                          batch, 0.5))
            for name, tensor in model.parameters(active_only=False):
                if name.startswith(dead):
                    assert not tensor.grad.any(), f"{flags}: {name}"
                else:
                    assert tensor.grad.any(), f"{flags}: {name}"


def test_determinism(tmp_path):
    with criterion("identical seeds: byte-identical loss history and metric files"):
        corpus = dat.generate_synthetic(
            dat.SynthSpec(train_samples=32, dev_samples=8, test_samples=8, seed=4))
        root = tmp_path / "corpus"
        dat.write_corpus(corpus, root)
        args = ["train", "--data", str(root), "--emb-dim", "8", "--hidden", "8",
                "--max-epochs", "2", "--patience", "2", "--batch-size", "8",
                "--seed", "1"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("history.txt", "dev_metrics.txt", "test_metrics.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    with criterion("corpus round trip synth -> load -> serialize byte-identical"):
        reloaded = dat.load_corpus(root)
        dat.write_corpus(reloaded, tmp_path / "again")
        for split in ("train", "valid", "test"):
            for name in ("seq.in", "seq.out", "label"):
                assert (root / split / name).read_bytes() == \
                       (tmp_path / "again" / split / name).read_bytes()


def test_padding_invariance(synth_corpus):
    with criterion("padded batch loss equals sum of unpadded losses (20 batches, 1e-10)"):
        corpus, vocab = synth_corpus
        dims = ModelDims(vocab_size=vocab.n_words, emb_dim=10, hidden=12,
                         n_slots=vocab.n_slots, n_intents=vocab.n_intents)
        rng = Rng(55)
        for trial in range(20):
            model = build_model(dims, AblationFlags(), Rng(200 + trial))
            idx = rng.permutation(len(corpus.train))[: int(rng.integers(2, 7))]
            samples = [corpus.train[i] for i in idx]
            batch = dat.pad_batch(samples, vocab)
            padded = tr.batch_loss(model.forward(batch), batch, 0.5).item()
            singles = sum(tr.batch_loss(model.forward(b), b, 0.5).item()
                          for b in (dat.pad_batch([s], vocab) for s in samples))
            assert abs(padded - singles) <= 1e-10
