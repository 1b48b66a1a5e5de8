"""``tools/compare_runs.py`` records short training runs and compares two
records key by key; the bit-identity claims of refactors rest on it."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu import training as tr
from jointslu.model import ModelDims, build_model

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
TINY = (8, 8, 0.01, 3)    # emb, hidden, learning rate, Adam steps


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    with pytest.MonkeyPatch.context() as mp:
        module = load_tool()
        mp.setattr(module, "SIZES", {"tiny": TINY})
        yield module


@pytest.fixture(scope="module")
def corpus_vocab():
    corpus = dat.generate_synthetic(
        dat.SynthSpec(train_samples=48, dev_samples=8, test_samples=8, seed=21))
    return corpus, dat.build_vocabs(corpus)


@pytest.fixture(scope="module")
def records(tool, corpus_vocab):
    return {flag_set: tool.record_run(*corpus_vocab, "tiny", flag_set, 0.5, f"tiny/{flag_set}/")
            for flag_set in ("default", "no_intent2slot")}


def test_record_keys(tool, corpus_vocab, records):
    _, vocab = corpus_vocab
    for flag_set, record in records.items():
        prefix = f"tiny/{flag_set}/"
        cfg = tr.TrainConfig(**({} if flag_set == "default" else {flag_set: True}))
        model = build_model(ModelDims(vocab.n_words, 8, 8, vocab.n_slots, vocab.n_intents),
                            cfg.flags(), ad.Rng(0))
        names = [name for name, _ in model.parameters(active_only=False)]
        want = {prefix + k for k in ("y_slot", "y_intent", "losses", "dev_report",
                                     "test_report", "served_dev_report")}
        assert set(record) == want | {prefix + "grad/" + name for name in names}
        assert record[prefix + "losses"].shape == (TINY[3],)
        assert np.isfinite(record[prefix + "losses"]).all()
        active = set(model.active_param_names())
        assert (active == set(names)) == (flag_set == "default")
        for name in names:
            # an ablated parameter is recorded, with an all-zero gradient
            grad = record[prefix + "grad/" + name]
            assert grad.any() if name in active else not grad.any(), name


def test_probe_equals_a_hand_written_first_step(tool, corpus_vocab, records):
    corpus, vocab = corpus_vocab
    record = records["default"]
    cfg = tr.TrainConfig(dropout_rate=0.4, teacher_forcing_rate=0.9)
    init_rng, shuffle_rng, tf_rng, dropout_rng = tr.derive_streams(tool.SEED)
    model = build_model(ModelDims(vocab.n_words, 8, 8, vocab.n_slots, vocab.n_intents),
                        cfg.flags(), init_rng)
    rows = shuffle_rng.permutation(len(corpus.train))[:cfg.batch_size]
    batch = dat.pad_batch([corpus.train[i] for i in rows], vocab)
    with ad.Tape():
        result = model.forward(batch, training=True, tf_rate=0.9, tf_rng=tf_rng,
                               dropout_rate=0.4, dropout_rng=dropout_rng)
        loss = tr.batch_loss(result, batch, 0.5)
        ad.backward(loss)
    for name, p in model.parameters(active_only=False):
        assert record["tiny/default/grad/" + name].tobytes() == p.grad.tobytes(), name
    assert record["tiny/default/losses"][0] == loss.item()
    for key, z in (("y_slot", result.z_slot), ("y_intent", result.z_intent)):
        assert record["tiny/default/" + key].tobytes() == ad.softmax(z, axis=1).values.tobytes()


def test_compare_reports_each_differing_key(tool, records, tmp_path, capsys):
    record = records["default"]
    same, other, short = (str(tmp_path / f"{n}.npz") for n in ("same", "other", "short"))
    np.savez(same, **record)
    assert tool.compare(same, same) == 0
    assert capsys.readouterr().out == f"0 of {len(record)} keys differ\n"

    key = "tiny/default/grad/head.slot"
    perturbed = dict(record)
    perturbed[key] = record[key].copy()
    perturbed[key].flat[0] += 1e-3
    np.savez(other, **perturbed)
    assert tool.compare(other, same) == 1
    rel = tool.relative_difference(perturbed[key], record[key])
    assert rel > 0
    assert capsys.readouterr().out == (f"{key}: max relative difference {rel:.3e}\n"
                                       f"1 of {len(record)} keys differ\n")

    missing = "tiny/default/losses"
    np.savez(short, **{k: v for k, v in record.items() if k != missing})
    assert tool.compare(short, same) == 1
    assert capsys.readouterr().out == (f"{missing}: only in {same}\n"
                                       f"1 of {len(record)} keys differ\n")
