"""Joint loss, Adam with L2 decay, the epoch loop, and checkpoint files.

Losses are negative log-likelihoods summed (not averaged) over tokens and
utterances; the joint objective is ``lambda * slot + (1 - lambda) * intent``.
Training shuffles each epoch from a seeded stream, early-stops on dev
sentence accuracy, and aborts on a non-finite loss instead of skipping.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import metrics as met
from .autodiff import Rng, Tape, Tensor
from .data import PAD_TOKEN, UNK_TOKEN, Corpus, Sample, UtteranceBatch, Vocab, pad_batch
from .model import AblationFlags, ForwardResult, JointModel, ModelDims, build_model


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    l2_decay: float = 1e-6
    batch_size: int = 16
    teacher_forcing_rate: float = 0.9
    dropout_rate: float = 0.4
    loss_lambda: float = 0.5
    max_epochs: int = 50
    patience: int = 10
    seed: int = 1
    no_slot2intent: bool = False
    no_intent2slot: bool = False
    no_gaussian_attention: bool = False
    no_cooperation: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.loss_lambda <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.loss_lambda}")
        if not 0.0 <= self.teacher_forcing_rate <= 1.0:
            raise ValueError(f"teacher_forcing_rate must be in [0, 1], "
                             f"got {self.teacher_forcing_rate}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.l2_decay < math.inf:
            raise ValueError(f"l2_decay must be finite and >= 0, got {self.l2_decay}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ValueError("batch_size and max_epochs must be >= 1, patience >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.flags()    # AblationFlags rejects disabling both interaction directions

    def flags(self) -> AblationFlags:
        return AblationFlags(
            slot2intent=not self.no_slot2intent,
            intent2slot=not self.no_intent2slot,
            gaussian_attention=not self.no_gaussian_attention,
            cooperation=not self.no_cooperation,
        )


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; names the first offending tensor."""


def slot_loss(z_slot: Tensor, slot_ids: np.ndarray, mask: np.ndarray,
              weight: float = 1.0) -> Tensor:
    """``weight`` times the sum of -log p(gold slot) over unmasked tokens of the
    whole batch; the logits z_slot are time-major [T*B, n_slots], slot_ids and
    mask are [B, T]."""
    n_slots = z_slot.shape[1]
    ids = slot_ids.T.reshape(-1)
    valid = mask.T.reshape(-1)
    bad = np.flatnonzero(valid & ((ids < 0) | (ids >= n_slots)))
    if bad.size:
        raise IndexError(f"gold slot id out of range at step {bad[0] // slot_ids.shape[0]}")
    return ad.cross_entropy(z_slot, np.where(valid, ids, 0), weight * valid)


def intent_loss(z_intent: Tensor, intent_ids: np.ndarray, weight: float = 1.0) -> Tensor:
    """``weight`` times the sum of -log p(gold intent) over the batch, from the
    logits [B, n_intents]."""
    return ad.cross_entropy(z_intent, intent_ids, weight)


def batch_loss(result: ForwardResult, batch: UtteranceBatch, lam: float) -> Tensor:
    """The joint objective; lambda and 1 - lambda ride in each loss's row
    weights, so the add hands both losses an adjoint of exactly 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return ad.add(slot_loss(result.z_slot, batch.slot_ids, batch.mask, lam),
                  intent_loss(result.z_intent, batch.intent_ids, 1.0 - lam))


# Elements per Adam update block: a block of each of the parameter, its
# gradient, both moments and the two scratch buffers (6 x 256 KiB) stays in L2.
_ADAM_BLOCK = 32768


class Adam:
    """Adam with bias correction; L2 decay is added to the raw gradient before
    the moment updates. Rows listed in ``frozen_rows`` (the pad embedding row)
    are re-zeroed after every step.

    The update is the efficient form of Kingma & Ba (arXiv:1412.6980, section
    2): both bias corrections fold into the step size
    ``a_t = lr * sqrt(1 - b2^t) / (1 - b1^t)`` and the offset
    ``eps_t = eps * sqrt(1 - b2^t)``, so ``p -= a_t * m / (sqrt(v) + eps_t)``
    equals the textbook ``lr * m_hat / (sqrt(v_hat) + eps)`` up to rounding.
    ``m`` and ``v`` are the textbook (uncorrected) moments.

    The update walks each parameter's flat view in blocks of ``_ADAM_BLOCK``
    elements and runs the whole elementwise update on one block before the
    next, through two block-sized scratch buffers: 14 ufunc passes per block,
    one of them a divide and one a square root. Every element takes the same
    operations in the same order, so the result is bit-identical to the same
    update over whole arrays, and no gradient buffer is written."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[tuple[str, Tensor]], lr: float, l2_decay: float = 0.0,
                 frozen_rows: list[tuple[Tensor, int]] | None = None):
        for name, t in params:
            if not t.values.flags.c_contiguous:
                raise ValueError(f"Adam updates parameters in place through flat views; "
                                 f"{name} is not C-contiguous")
        self.params = params
        self.lr = lr
        self.l2_decay = l2_decay
        self.step_count = 0
        self.m = {name: np.zeros(t.values.shape) for name, t in params}
        self.v = {name: np.zeros(t.values.shape) for name, t in params}
        self.frozen_rows = frozen_rows or []
        self._scratch = (np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK))

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        root_bc2 = math.sqrt(1.0 - self.BETA2 ** t)
        step_size = self.lr * root_bc2 / (1.0 - self.BETA1 ** t)
        eps = self.EPS * root_bc2
        for name, p in self.params:
            flat = (p.values.reshape(-1), p.grad.reshape(-1),
                    self.m[name].reshape(-1), self.v[name].reshape(-1))
            for lo in range(0, p.values.size, _ADAM_BLOCK):
                self._update(*(a[lo:lo + _ADAM_BLOCK] for a in flat), step_size, eps)
        for tensor, row in self.frozen_rows:
            tensor.values[row, :] = 0.0

    def _update(self, p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                step_size: float, eps: float) -> None:
        s1, s2 = (buf[:g.size] for buf in self._scratch)
        if self.l2_decay:
            np.multiply(p, self.l2_decay, out=s1)
            g = np.add(g, s1, out=s1)
        m *= self.BETA1
        m += np.multiply(g, 1.0 - self.BETA1, out=s2)
        v *= self.BETA2
        np.multiply(g, g, out=s2)
        s2 *= 1.0 - self.BETA2
        v += s2
        # p -= step_size * m / (sqrt(v) + eps)
        denom = np.sqrt(v, out=s2)
        denom += eps
        step = np.multiply(m, step_size, out=s1)
        step /= denom
        p -= step

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()


def _check_finite(loss: Tensor, tape: Tape, model: JointModel) -> None:
    if np.isfinite(loss.values).all():
        return
    for name, p in model.parameters(active_only=False):
        if not np.isfinite(p.values).all():
            raise TrainingDiverged(f"non-finite loss; first non-finite tensor: parameter {name}")
    node = tape.first_nonfinite_node()
    where = f"operation '{node.name}' (tape node {tape.nodes.index(node)})" if node else "loss"
    raise TrainingDiverged(f"non-finite loss; first non-finite tensor: {where}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_report: met.MetricsReport


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int
    best_dev_accuracy: float


def derive_streams(seed: int) -> tuple[Rng, Rng, Rng, Rng]:
    """(init, shuffle, teacher-forcing, dropout) streams from one run seed."""
    return tuple(Rng(seed).split(4))


def evaluate_model(model: JointModel, samples: list[Sample], vocab: Vocab,
                   batch_size: int = 16) -> met.MetricsReport:
    """Deterministic evaluation: no dropout, no teacher forcing, no recording.

    The samples are stably sorted by token count and that order is cut into
    forwards of at most ``batch_size`` utterances, so utterances of similar
    length share a batch and little padding is run. Each prediction is
    written back to its sample's
    position, and the report is computed in input order. An empty sample list
    is a ValueError."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if not samples:
        raise ValueError("no samples to evaluate")
    order = sorted(range(len(samples)), key=lambda i: len(samples[i].tokens))
    pred_intents: list[str] = [""] * len(samples)
    pred_tags: list[list[str]] = [[] for _ in samples]
    for start in range(0, len(order), batch_size):
        rows = order[start: start + batch_size]
        result = model.forward(pad_batch([samples[i] for i in rows], vocab), training=False)
        slot_pred = result.slot_predictions()
        intent_pred = result.intent_predictions()
        for k, i in enumerate(rows):
            pred_intents[i] = vocab.intents[intent_pred[k]]
            pred_tags[i] = [vocab.slot_tags[j] for j in slot_pred[k, : len(samples[i].tokens)]]
    return met.compute_report([s.intent for s in samples], pred_intents,
                              [list(s.slot_tags) for s in samples], pred_tags)


def epoch_batches(samples: list[Sample], vocab: Vocab, batch_size: int,
                  shuffle_rng: Rng) -> Iterator[UtteranceBatch]:
    """One epoch of padded batches cut from one ``shuffle_rng.permutation(len(samples))``."""
    order = shuffle_rng.permutation(len(samples))
    for start in range(0, len(order), batch_size):
        yield pad_batch([samples[i] for i in order[start: start + batch_size]], vocab)


def train_step(model: JointModel, batch: UtteranceBatch, optimizer: Adam, cfg: TrainConfig,
               tf_rng: Rng, dropout_rng: Rng) -> float:
    """One Adam step on ``batch`` under ``cfg``; returns its loss and keeps no tape or gradient."""
    with Tape() as tape:
        result = model.forward(batch, training=True, tf_rate=cfg.teacher_forcing_rate,
                               tf_rng=tf_rng, dropout_rate=cfg.dropout_rate,
                               dropout_rng=dropout_rng)
        loss = batch_loss(result, batch, cfg.loss_lambda)
        _check_finite(loss, tape, model)
        ad.backward(loss)
    optimizer.step()
    optimizer.zero_grad()
    return loss.item()


def train(model: JointModel, corpus: Corpus, vocab: Vocab, cfg: TrainConfig,
          shuffle_rng: Rng, tf_rng: Rng, dropout_rng: Rng) -> TrainResult:
    cfg.validate()
    if not corpus.train:
        raise ValueError("training split is empty")
    optimizer = Adam(model.parameters(), lr=cfg.learning_rate, l2_decay=cfg.l2_decay,
                     frozen_rows=[(model.embedding.table, model.embedding.pad_id)])
    best_accuracy, best_epoch, best_snapshot, since_best = -1.0, -1, None, 0
    history: list[EpochRecord] = []
    for epoch in range(1, cfg.max_epochs + 1):
        epoch_loss = 0.0
        for batch in epoch_batches(corpus.train, vocab, cfg.batch_size, shuffle_rng):
            epoch_loss += train_step(model, batch, optimizer, cfg, tf_rng, dropout_rng)
        dev_report = evaluate_model(model, corpus.dev, vocab, cfg.batch_size)
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss, dev_report=dev_report))
        if dev_report.sentence_accuracy > best_accuracy:
            best_accuracy, best_epoch = dev_report.sentence_accuracy, epoch
            best_snapshot, since_best = model.snapshot(), 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    model.load_values(best_snapshot)    # max_epochs >= 1 and accuracy >= 0: always set
    return TrainResult(history=history, best_epoch=best_epoch, best_dev_accuracy=best_accuracy)


# ---------------------------------------------------------------------------
# checkpoint files: a small binary container of named float64 tensors with a
# JSON header holding the resolved config, seed, and vocabulary.

_MAGIC = b"SLUCKPT1"


def save_checkpoint(path: str, model: JointModel, config: dict, vocab: Vocab) -> None:
    """Write the checkpoint to a temporary file beside ``path`` and move it
    into place, so a reader sees the old file or the whole new one."""
    header = {
        "config": config,
        "dims": asdict(model.dims),
        "flags": asdict(model.flags),
        "vocab": {"words": vocab.words, "slot_tags": vocab.slot_tags,
                  "intents": vocab.intents},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    items = model.parameters(active_only=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<Q", len(header_bytes)))
            f.write(header_bytes)
            f.write(struct.pack("<I", len(items)))
            for name, tensor in items:
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                arr = np.ascontiguousarray(tensor.values, dtype=np.float64)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@dataclass
class Checkpoint:
    path: str
    config: dict
    dims: ModelDims
    flags: AblationFlags
    vocab: Vocab
    tensors: dict[str, np.ndarray]

    def build_model(self) -> JointModel:
        """The model these tensors describe. Nothing is drawn: the model is
        built all zeros and adopts the checkpoint's arrays without a copy, so
        it shares memory with ``tensors``; inactive parameters stay zero. A
        missing, extra or misshapen tensor raises a ValueError naming the file."""
        model = build_model(self.dims, self.flags, rng=None)
        try:
            model.load_values(self.tensors)
        except ValueError as e:
            raise ValueError(f"{self.path}: checkpoint does not fit its model: {e}") from None
        model.embedding.zero_pad_row()
        return model


def _parse_header(raw: bytes, path: str) -> tuple[dict, ModelDims, AblationFlags, Vocab]:
    """The header's config, dims, flags and vocabulary, checked for the fields,
    types and sizes that building a model relies on."""
    def corrupt(why: str) -> ValueError:
        return ValueError(f"{path}: corrupt checkpoint header: {why}")

    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as e:
        raise corrupt(str(e)) from None
    parts = [header.get(k) if isinstance(header, dict) else None
             for k in ("config", "dims", "flags", "vocab")]
    if not all(isinstance(part, dict) for part in parts):
        raise corrupt("expected the objects config, dims, flags and vocab")
    config, dims, flags, vocab = parts
    if (set(dims) != {f.name for f in fields(ModelDims)}
            or not all(type(n) is int and n >= 1 for n in dims.values())):
        raise corrupt(f"dims {dims} are not one positive integer per model dimension")
    if (set(flags) != {f.name for f in fields(AblationFlags)}
            or not all(type(b) is bool for b in flags.values())):
        raise corrupt(f"flags {flags} are not one boolean per ablation flag")
    if not (flags["slot2intent"] or flags["intent2slot"]):
        raise corrupt("flags disable both interaction directions")
    lists = [vocab.get(k) for k in ("words", "slot_tags", "intents")]
    if not all(isinstance(xs, list) and all(isinstance(x, str) for x in xs) for xs in lists):
        raise corrupt("vocab needs string lists words, slot_tags and intents")
    if [len(xs) for xs in lists] != [dims["vocab_size"], dims["n_slots"], dims["n_intents"]]:
        raise corrupt("vocabulary sizes do not match dims")
    if lists[0][:2] != [PAD_TOKEN, UNK_TOKEN]:
        raise corrupt(f"words 0 and 1 must be {PAD_TOKEN} and {UNK_TOKEN}, got {lists[0][:2]}")
    for word in lists[0]:   # Vocab.word_id case-folds every token it looks up
        if word != word.casefold():
            raise corrupt(f"vocab word {word!r} is not case-folded")
    for kind, xs in zip(("words", "slot_tags", "intents"), lists):
        if len(set(xs)) != len(xs):    # Vocab maps a repeated entry to its last id
            raise corrupt(f"vocab {kind} repeats an entry")
    return config, ModelDims(**dims), AblationFlags(**flags), Vocab(*lists)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint. Every length field is checked against the bytes left
    in the file before it is used, so a truncated or corrupt file raises a
    ValueError naming the file and nothing is allocated from a bad length.

    Once the header and the tensor count are read, one float64 arena as large
    as the rest of the file is allocated, and each tensor is read straight
    into the next contiguous slice of it. The tensors are C-contiguous,
    aligned, writable views of that one buffer. numpy advises an allocation
    of 4 MiB or more for transparent huge pages, so where the kernel honours
    that advice a large checkpoint takes a few hundred page faults to load,
    not one per 4 KiB page."""
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def truncated(what: str, n: int, got: int) -> ValueError:
            # a misread shape can multiply out to more digits than str() allows
            need = n if n < 2 ** 64 else "more than 2**64"
            return ValueError(f"{path}: truncated or corrupt checkpoint: {what} needs "
                              f"{need} bytes, {got} left in the file")

        def take(n: int, what: str) -> None:
            nonlocal left
            if n > left:
                raise truncated(what, n, left)
            left -= n

        def read(n: int, what: str) -> bytes:
            take(n, what)
            data = f.read(n)
            if len(data) != n:
                raise truncated(what, n, len(data))
            return data

        magic = read(len(_MAGIC), "the magic")
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic {magic!r})")
        (header_len,) = struct.unpack("<Q", read(8, "the header length"))
        config, dims, flags, vocab = _parse_header(read(header_len, "the header"), path)
        (n_items,) = struct.unpack("<I", read(4, "the tensor count"))
        # every tensor's values fit in the bytes left, so no slice runs past the end
        arena = np.empty(left // 8)
        used = 0
        tensors: dict[str, np.ndarray] = {}
        for i in range(n_items):
            (name_len,) = struct.unpack("<H", read(2, f"the name length of tensor {i}"))
            name = read(name_len, f"the name of tensor {i}").decode("utf-8", "replace")
            (ndim,) = struct.unpack("<B", read(1, f"the rank of {name!r}"))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim, f"the shape of {name!r}"))
            what = f"the values of {name!r}"
            count = math.prod(shape)
            n = 8 * count
            take(n, what)
            try:
                arr = arena[used: used + count].reshape(shape)
            except ValueError as e:    # e.g. a zero next to a huge dimension
                raise ValueError(f"{path}: corrupt checkpoint: shape {shape} of {name!r}: "
                                 f"{e}") from None
            used += count
            got = f.readinto(arr)
            if got != n:
                raise truncated(what, n, got)
            tensors[name] = arr
        if left:
            raise ValueError(f"{path}: corrupt checkpoint: {left} bytes after the last tensor")
    return Checkpoint(path=path, config=config, dims=dims, flags=flags, vocab=vocab,
                      tensors=tensors)
