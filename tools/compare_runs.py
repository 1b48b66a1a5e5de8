"""Record a fixed set of short training runs, and compare two such records.

Record each tree with its own copy of this tool, e.g. the parent's from a ``git worktree``
in ../parent: older trees lack ``training.train_step``. Every copy writes the same keys:

    PYTHONPATH=src python tools/compare_runs.py after.npz
    cd ../parent && PYTHONPATH=src python tools/compare_runs.py /tmp/before.npz
    PYTHONPATH=src python tools/compare_runs.py after.npz --against /tmp/before.npz

The first form writes an ``.npz`` with, for each size and each flag set, the
step-1 label distributions ``y_slot`` / ``y_intent`` (the softmax of the
heads' logits, taken here, since the model returns logits) and every parameter
gradient (inactive ones included), the loss of every step, and three reports
after the last step: dev and test from the trained model, and dev again from
the model that a ``save_checkpoint`` / ``load_checkpoint`` round trip serves.
Sizes: emb 32 / hidden 48 for 30 Adam steps, and emb 512 / hidden 256 for 2.
Flag sets: the defaults and each ablation switch alone, at lambda 0.5. One
more run, keyed ``small/lambda_0.3/``, trains the small defaults at lambda 0.3:
0.3 and 0.7 are not powers of two, so a change in how the loss applies lambda
shows there. Every run trains with dropout 0.4 and teacher forcing 0.9 on the
default synthetic corpus.

With ``--against`` it reads both files instead, prints each key that differs
with its relative difference (max |a - b| over the larger of max |a| and
max |b|), and exits 1 if any key differs.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import tempfile

import numpy as np

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu import training as tr
from jointslu.model import ModelDims, build_model

SIZES = {"small": (32, 48, 0.004, 30), "paper": (512, 256, 0.001, 2)}
FLAG_SETS = ["default", "no_slot2intent", "no_intent2slot", "no_gaussian_attention",
             "no_cooperation"]
# (size, flag set, lambda, key prefix) of every recorded run
RUNS = ([(size, flag_set, 0.5, f"{size}/{flag_set}/") for size in SIZES for flag_set in FLAG_SETS]
        + [("small", "default", 0.3, "small/lambda_0.3/")])
SEED = 1


def record_run(corpus: dat.Corpus, vocab: dat.Vocab, size: str, flag_set: str,
               lam: float, prefix: str) -> dict:
    emb, hidden, lr, steps = SIZES[size]
    switches = {} if flag_set == "default" else {flag_set: True}
    cfg = tr.TrainConfig(learning_rate=lr, dropout_rate=0.4, teacher_forcing_rate=0.9,
                         loss_lambda=lam, seed=SEED, **switches)
    dims = ModelDims(vocab_size=vocab.n_words, emb_dim=emb, hidden=hidden,
                     n_slots=vocab.n_slots, n_intents=vocab.n_intents)
    init_rng, shuffle_rng, tf_rng, dropout_rng = tr.derive_streams(SEED)
    model = build_model(dims, cfg.flags(), init_rng)
    batches = tr.epoch_batches(corpus.train, vocab, cfg.batch_size, shuffle_rng)
    first = next(batches)
    # step 1 probed on the fresh model; its tf and dropout streams are still unread
    _, _, tf_probe, dropout_probe = tr.derive_streams(SEED)
    with ad.Tape():
        result = model.forward(first, training=True, tf_rate=cfg.teacher_forcing_rate,
                               tf_rng=tf_probe, dropout_rate=cfg.dropout_rate,
                               dropout_rng=dropout_probe)
        ad.backward(tr.batch_loss(result, first, cfg.loss_lambda))
    # taken after the tape closed, so nothing is recorded
    out = {prefix + "y_slot": ad.softmax(result.z_slot, axis=1).values,
           prefix + "y_intent": ad.softmax(result.z_intent, axis=1).values}
    for name, p in model.parameters(active_only=False):
        out[prefix + "grad/" + name] = p.grad.copy()
    model.zero_grad()
    optimizer = tr.Adam(model.parameters(), lr=cfg.learning_rate, l2_decay=cfg.l2_decay,
                        frozen_rows=[(model.embedding.table, model.embedding.pad_id)])
    losses = [tr.train_step(model, batch, optimizer, cfg, tf_rng, dropout_rng)
              for batch in itertools.chain([first], itertools.islice(batches, steps - 1))]
    out[prefix + "losses"] = np.array(losses)
    for split in ("dev", "test"):
        report = tr.evaluate_model(model, corpus.split(split), vocab, cfg.batch_size)
        out[prefix + split + "_report"] = np.array(report.to_text())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.bin")
        tr.save_checkpoint(path, model, {"seed": SEED}, vocab)
        served = tr.load_checkpoint(path).build_model()
    report = tr.evaluate_model(served, corpus.dev, vocab, cfg.batch_size)
    out[prefix + "served_dev_report"] = np.array(report.to_text())
    return out


def record(path: str) -> None:
    corpus = dat.generate_synthetic(dat.SynthSpec())
    vocab = dat.build_vocabs(corpus)
    arrays = {}
    for run in RUNS:
        arrays.update(record_run(corpus, vocab, *run))
    np.savez(path, **arrays)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    diff = np.abs(a - b).max(initial=0.0)
    return diff / scale if scale else diff


def compare(path: str, against: str) -> int:
    with np.load(path) as new, np.load(against) as old:
        keys = sorted(set(new.files) | set(old.files))
        differing = 0
        for key in keys:
            if key not in new.files or key not in old.files:
                print(f"{key}: only in {path if key in new.files else against}")
                differing += 1
                continue
            a, b = new[key], old[key]
            if np.array_equal(a, b):
                continue
            if a.dtype.kind != "f" or a.shape != b.shape:
                print(f"{key}: differs")
            else:
                print(f"{key}: max relative difference {relative_difference(a, b):.3e}")
            differing += 1
    print(f"{differing} of {len(keys)} keys differ")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", help="the .npz to write, or with --against to compare")
    parser.add_argument("--against", help="compare PATH with this earlier record")
    args = parser.parse_args(argv)
    if args.against:
        return compare(args.path, args.against)
    record(args.path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
