"""The three workloads, each a closed loop with one client.

Every workload builds its inputs from the seed alone: the synthetic corpus
(``SynthSpec`` defaults, 2000/200/200 utterances at purity 1.0) and the model
initialisation. Each alternates its primary operation (a training step, or a
cold ``predict`` request) with batched evaluation passes until the time is up.
The first operations and the first evaluation pass of a run are checked but
not timed. At the paper size, tapes are reference cycles that only a full
garbage collection frees, so memory grows for the first ten or so training
steps before the process reuses it; those steps stay out of the figures.

Set-up is repeated every few seconds between episodes and its products are
dropped, so ``setup_s`` samples the same stretch of machine time as the other
figures rather than only the first second of the run.

With a tracer, episodes alternate untraced and traced, so the traced run can
state its own overhead against untraced operations of the same process.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from jointslu import autodiff as ad
from jointslu import cli
from jointslu import data as dat
from jointslu import training as tr
from jointslu.autodiff import Tape
from jointslu.model import AblationFlags, ModelDims, build_model

from tracer import Tracer, tape_stats

SETUP_INTERVAL_S = 3.0
WARMUP_STEPS = 12
WARMUP_PREDICTS = 2
BATCH_SIZE = 16
TEACHER_FORCING = 0.9
PAPER_EMB, PAPER_HIDDEN = 512, 256
PREDICTS_PER_EVAL = 16


@dataclass(frozen=True)
class TrainShape:
    emb_dim: int
    hidden: int
    learning_rate: float
    dropout_rate: float
    steps_per_eval: int   # training steps between dev evaluations


TRAIN_SHAPES = {
    # the acceptance gate's model and hyperparameters
    "train_small": TrainShape(32, 48, 0.004, 0.1, steps_per_eval=25),
    # the paper default configuration
    "train_paper": TrainShape(PAPER_EMB, PAPER_HIDDEN, 0.001, 0.4, steps_per_eval=8),
}


@dataclass
class Record:
    """What one run measured and what its checks found."""

    op_name: str                   # "step" or "predict"
    op_utts: int                   # utterances per primary operation
    eval_utts: int = 0             # utterances per evaluation pass
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)        # timed, untraced
    traced_op_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)      # timed, untraced
    traced_units: set[str] = field(default_factory=set)
    traced_eval_units: set[str] = field(default_factory=set)
    tape: list[dict] = field(default_factory=list)         # per traced step
    losses: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add_op(self, seconds: float, unit: str, traced: bool) -> None:
        if traced:
            self.traced_op_s.append(seconds)
            self.traced_units.add(unit)
        else:
            self.op_s.append(seconds)

    def add_eval(self, seconds: float, unit: str, traced: bool) -> None:
        if traced:
            self.traced_eval_units.add(unit)
        else:
            self.eval_s.append(seconds)

    def loss_digest(self, steps: int | None = None) -> str:
        raw = np.asarray(self.losses[:steps], dtype="<f8").tobytes()
        return hashlib.sha256(raw).hexdigest()[:16]


def timed_setup(rec: Record, setup: Callable[[], object]):
    start = perf_counter()
    state = setup()
    rec.setup_s.append(perf_counter() - start)
    return state


class Clock:
    """Runs episodes until the run has measured long enough."""

    def __init__(self, seconds: float, tracer: Tracer | None, rec: Record,
                 setup: Callable[[], object]):
        self.deadline = perf_counter() + seconds
        self.tracer = tracer
        self.rec = rec
        self.setup = setup
        self.last_setup = perf_counter()
        self.episode = 0

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.episode % 2 == 1

    def expired(self) -> bool:
        return perf_counter() >= self.deadline

    def done(self) -> bool:
        rec = self.rec
        enough = rec.op_s and rec.eval_s and (self.tracer is None or rec.traced_op_s)
        return bool(enough) and self.expired()

    @contextlib.contextmanager
    def episode_scope(self):
        if perf_counter() - self.last_setup >= SETUP_INTERVAL_S:
            timed_setup(self.rec, self.setup)
            self.last_setup = perf_counter()
        if self.traced:
            self.tracer.install()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            self.episode += 1

    def unit(self, name: str) -> str:
        if self.tracer is not None:
            self.tracer.unit = name if self.traced else None
        return name


def make_corpus(seed: int) -> tuple[dat.Corpus, dat.Vocab]:
    corpus = dat.generate_synthetic(dat.SynthSpec(seed=seed))
    return corpus, dat.build_vocabs(corpus)


def gold_chunk_count(samples: list[dat.Sample]) -> int:
    # generated tags are well-formed BIO, so every chunk opens with one B- tag
    return sum(tag.startswith("B-") for s in samples for tag in s.slot_tags)


def report_is_sane(report, samples: list[dat.Sample]) -> bool:
    rates = (report.intent_error_rate, report.slot_precision, report.slot_recall,
             report.slot_f1, report.sentence_accuracy)
    return (report.utterances == len(samples)
            and report.gold_chunks == gold_chunk_count(samples)
            and all(0.0 <= r <= 1.0 for r in rates))


def epoch_batches(samples: list[dat.Sample], shuffle_rng, batch_size: int):
    """Endless minibatches, reshuffled every epoch as ``training.train`` does."""
    while True:
        order = shuffle_rng.permutation(len(samples))
        for start in range(0, len(order), batch_size):
            yield [samples[i] for i in order[start: start + batch_size]]


def train_setup(shape: TrainShape, seed: int) -> tuple:
    corpus, vocab = make_corpus(seed)
    cfg = tr.TrainConfig(learning_rate=shape.learning_rate, dropout_rate=shape.dropout_rate,
                         teacher_forcing_rate=TEACHER_FORCING, batch_size=BATCH_SIZE, seed=seed)
    cfg.validate()
    init_rng, shuffle_rng, tf_rng, dropout_rng = tr.derive_streams(seed)
    dims = ModelDims(vocab_size=vocab.n_words, emb_dim=shape.emb_dim, hidden=shape.hidden,
                     n_slots=vocab.n_slots, n_intents=vocab.n_intents)
    model = build_model(dims, cfg.flags(), init_rng)
    optimizer = tr.Adam(model.parameters(), lr=cfg.learning_rate, l2_decay=cfg.l2_decay,
                        frozen_rows=[(model.embedding.table, model.embedding.pad_id)])
    return corpus, vocab, cfg, model, optimizer, shuffle_rng, tf_rng, dropout_rng


def run_train(shape: TrainShape, seed: int, seconds: float, tracer: Tracer | None) -> Record:
    rec = Record(op_name="step", op_utts=BATCH_SIZE)
    setup = functools.partial(train_setup, shape, seed)
    corpus, vocab, cfg, model, optimizer, shuffle_rng, tf_rng, dropout_rng = \
        timed_setup(rec, setup)
    rec.eval_utts = len(corpus.dev)
    batches = epoch_batches(corpus.train, shuffle_rng, cfg.batch_size)

    clock = Clock(seconds, tracer, rec, setup)
    n_evals = 0
    while not clock.done():
        with clock.episode_scope():
            for _ in range(shape.steps_per_eval):
                step = len(rec.losses)
                unit = clock.unit(f"step:{step}")
                samples = next(batches)
                start = perf_counter()
                batch = dat.pad_batch(samples, vocab)
                with Tape() as tape:
                    if tracer is not None:
                        tracer.tape = tape
                    result = model.forward(batch, training=True,
                                           tf_rate=cfg.teacher_forcing_rate, tf_rng=tf_rng,
                                           dropout_rate=cfg.dropout_rate,
                                           dropout_rng=dropout_rng)
                    loss = tr.batch_loss(result, batch, cfg.loss_lambda)
                    ad.backward(loss)
                value = loss.item()
                optimizer.step()
                optimizer.zero_grad()
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.tape = None
                rec.losses.append(value)
                rec.check(math.isfinite(value), f"step {step}: loss {value!r} is not finite")
                if step >= WARMUP_STEPS:
                    rec.add_op(elapsed, unit, clock.traced)
                    if clock.traced:
                        rec.tape.append({"batch": list(batch.token_ids.shape),
                                         **tape_stats(tape)})
                if clock.expired() and rec.op_s:
                    break

            unit = clock.unit(f"eval:{n_evals}")
            start = perf_counter()
            report = tr.evaluate_model(model, corpus.dev, vocab, cfg.batch_size)
            elapsed = perf_counter() - start
            rec.check(report_is_sane(report, corpus.dev), f"eval {n_evals}: bad dev report")
            if n_evals > 0:
                rec.add_eval(elapsed, unit, clock.traced)
            n_evals += 1
    return rec


@dataclass
class Expected:
    text: str
    tags: list[str]
    intent: str


def batched_predictions(model, samples: list[dat.Sample], vocab: dat.Vocab) -> list[Expected]:
    """Predictions from unrecorded batched forwards, chunked as evaluate_model chunks."""
    out = []
    for start in range(0, len(samples), BATCH_SIZE):
        chunk = samples[start: start + BATCH_SIZE]
        result = model.forward(dat.pad_batch(chunk, vocab), training=False)
        slots, intents = result.slot_predictions(), result.intent_predictions()
        for i, s in enumerate(chunk):
            out.append(Expected(" ".join(s.tokens),
                                [vocab.slot_tags[j] for j in slots[i, : len(s.tokens)]],
                                vocab.intents[intents[i]]))
    return out


def reference_rates(samples: list[dat.Sample], expected: list[Expected]) -> tuple[float, float]:
    """Intent error rate and sentence accuracy, counted here, not by the program."""
    wrong = sum(s.intent != e.intent for s, e in zip(samples, expected))
    exact = sum(s.intent == e.intent and list(s.slot_tags) == e.tags
                for s, e in zip(samples, expected))
    return wrong / len(samples), exact / len(samples)


def same_tensors(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[n].dtype == b[n].dtype and a[n].shape == b[n].shape and a[n].tobytes() == b[n].tobytes()
        for n in a)


def infer_setup(seed: int, path: str) -> tuple:
    corpus, vocab = make_corpus(seed)
    config = cli.RunConfig(emb_dim=PAPER_EMB, hidden=PAPER_HIDDEN, seed=seed)
    dims = ModelDims(vocab_size=vocab.n_words, emb_dim=config.emb_dim, hidden=config.hidden,
                     n_slots=vocab.n_slots, n_intents=vocab.n_intents)
    model = build_model(dims, AblationFlags(), tr.derive_streams(seed)[0])
    tr.save_checkpoint(path, model, asdict(config), vocab)
    return corpus, vocab, dims, model


def run_infer(seed: int, seconds: float, tracer: Tracer | None, workdir: str) -> Record:
    rec = Record(op_name="predict", op_utts=1)
    path = os.path.join(workdir, "checkpoint.bin")
    corpus, vocab, dims, model = timed_setup(rec, functools.partial(infer_setup, seed, path))

    ckpt = tr.load_checkpoint(path)
    served = ckpt.build_model()
    saved = model.snapshot()
    rec.check(same_tensors(ckpt.tensors, saved) and same_tensors(served.snapshot(), saved)
              and ckpt.vocab.words == vocab.words and ckpt.dims == dims,
              "checkpoint round trip is not bitwise")
    splits = (corpus.dev, corpus.test)
    expected = [batched_predictions(served, s, ckpt.vocab) for s in splits]
    rates = [reference_rates(s, e) for s, e in zip(splits, expected)]
    requests = [e for split in expected for e in split]
    rec.eval_utts = sum(len(s) for s in splits)

    # later set-ups write their own file, so the served checkpoint stays as it was checked
    setup = functools.partial(infer_setup, seed, os.path.join(workdir, "setup.bin"))
    clock = Clock(seconds, tracer, rec, setup)
    n_predicts = n_evals = 0
    first_reports = None
    while not clock.done():
        with clock.episode_scope():
            for _ in range(PREDICTS_PER_EVAL):
                want = requests[n_predicts % len(requests)]
                unit = clock.unit(f"predict:{n_predicts}")
                out, err = io.StringIO(), io.StringIO()
                start = perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["predict", "--checkpoint", path, "--text", want.text])
                elapsed = perf_counter() - start
                rec.check(code == 0 and out.getvalue() == f"tags = {' '.join(want.tags)}\n"
                                                          f"intent = {want.intent}\n",
                          f"predict {n_predicts}: {want.text!r} gave {out.getvalue()!r} "
                          f"{err.getvalue()!r}")
                if n_predicts >= WARMUP_PREDICTS:
                    rec.add_op(elapsed, unit, clock.traced)
                n_predicts += 1
                if clock.expired() and rec.op_s:
                    break

            unit = clock.unit(f"eval:{n_evals}")
            start = perf_counter()
            reports = [tr.evaluate_model(served, s, ckpt.vocab, BATCH_SIZE) for s in splits]
            elapsed = perf_counter() - start
            first_reports = first_reports or reports
            rec.check(reports == first_reports and all(
                report_is_sane(r, s) and (r.intent_error_rate, r.sentence_accuracy) == want
                for r, s, want in zip(reports, splits, rates)),
                f"eval {n_evals}: reports disagree with the batched predictions")
            if n_evals > 0:
                rec.add_eval(elapsed, unit, clock.traced)
            n_evals += 1
    return rec


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer | None,
                 workdir: str) -> Record:
    if name in TRAIN_SHAPES:
        return run_train(TRAIN_SHAPES[name], seed, seconds, tracer)
    return run_infer(seed, seconds, tracer, workdir)

