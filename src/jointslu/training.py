"""Joint loss, Adam with L2 decay, the epoch loop, and checkpoint files.

Losses are negative log-likelihoods summed (not averaged) over tokens and
utterances; the joint objective is ``lambda * slot + (1 - lambda) * intent``.
Training shuffles each epoch from a seeded stream, early-stops on dev
sentence accuracy, and aborts on a non-finite loss instead of skipping.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import metrics as met
from .autodiff import Rng, Tape, Tensor
from .data import Corpus, Sample, UtteranceBatch, Vocab, pad_batch
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ValueError("batch_size and max_epochs must be >= 1, patience >= 0")

    def flags(self) -> AblationFlags:
        return AblationFlags(
            slot2intent=not self.no_slot2intent,
            intent2slot=not self.no_intent2slot,
            gaussian_attention=not self.no_gaussian_attention,
            cooperation=not self.no_cooperation,
        )


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; names the first offending tensor."""


def slot_loss(y_slot: Tensor, slot_ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """Sum of -log p(gold slot) over unmasked tokens of the whole batch; y_slot
    is time-major [T*B, n_slots], slot_ids and mask are [B, T]."""
    n_slots = y_slot.shape[1]
    ids = slot_ids.T.reshape(-1)
    valid = mask.T.reshape(-1)
    bad = np.flatnonzero(valid & ((ids < 0) | (ids >= n_slots)))
    if bad.size:
        raise IndexError(f"gold slot id out of range at step {bad[0] // slot_ids.shape[0]}")
    logp = ad.log(ad.pick_cols(y_slot, np.where(valid, ids, 0)))
    return ad.neg(ad.sum_all(ad.mask_rows(logp, valid.astype(np.float64))))


def intent_loss(y_intent: Tensor, intent_ids: np.ndarray) -> Tensor:
    """Sum of -log p(gold intent) over the utterances of the batch."""
    n_intents = y_intent.shape[1]
    if (intent_ids < 0).any() or (intent_ids >= n_intents).any():
        raise IndexError("gold intent id out of range")
    return ad.neg(ad.sum_all(ad.log(ad.pick_cols(y_intent, intent_ids))))


def joint_loss(l_slot: Tensor, l_intent: Tensor, lam: float) -> Tensor:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return ad.add(ad.scale(l_slot, lam), ad.scale(l_intent, 1.0 - lam))


def batch_loss(result: ForwardResult, batch: UtteranceBatch, lam: float) -> Tensor:
    return joint_loss(slot_loss(result.y_slot, batch.slot_ids, batch.mask),
                      intent_loss(result.y_intent, batch.intent_ids), lam)


class Adam:
    """Adam with bias correction; L2 decay is added to the raw gradient before
    the moment updates. Rows listed in ``frozen_rows`` (the pad embedding row)
    are re-zeroed after every step.

    The update arithmetic runs in two scratch buffers sized for the largest
    parameter, in the same order of operations as the textbook expression, and
    never writes into a gradient buffer."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float, l2_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 frozen_rows: list[tuple[Tensor, int]] | None = None):
        self.params = params
        self.lr = lr
        self.l2_decay = l2_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {name: np.zeros(t.values.shape) for name, t in params}
        self.v = {name: np.zeros(t.values.shape) for name, t in params}
        self.frozen_rows = frozen_rows or []
        size = max((t.values.size for _, t in params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params:
            g = p.grad
            s1, s2 = (buf[:g.size].reshape(g.shape) for buf in self._scratch)
            if self.l2_decay:
                np.multiply(p.values, self.l2_decay, out=s1)
                g = np.add(g, s1, out=s1)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=s2)
            v *= self.beta2
            np.multiply(g, g, out=s2)
            s2 *= 1.0 - self.beta2
            v += s2
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            step = np.divide(m, bc1, out=s1)
            step *= self.lr
            denom = np.divide(v, bc2, out=s2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.values -= step
        for tensor, row in self.frozen_rows:
            tensor.values[row, :] = 0.0

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
class EarlyStopState:
    best_accuracy: float = -1.0
    best_epoch: int = -1
    epochs_since_improvement: int = 0
    best_snapshot: dict[str, np.ndarray] | None = None

    def update(self, epoch: int, accuracy: float, model: JointModel) -> bool:
        if accuracy > self.best_accuracy:
            self.best_accuracy = accuracy
            self.best_epoch = epoch
            self.best_snapshot = model.snapshot()
            self.epochs_since_improvement = 0
            return True
        self.epochs_since_improvement += 1
        return False


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int
    best_dev_accuracy: float


def derive_streams(seed: int) -> tuple[Rng, Rng, Rng, Rng]:
    """(init, shuffle, teacher-forcing, dropout) streams from one run seed."""
    init, shuffle, tf, drop = Rng(seed).split(4)
    return init, shuffle, tf, drop


def evaluate_model(model: JointModel, samples: list[Sample], vocab: Vocab,
                   batch_size: int = 16) -> met.MetricsReport:
    """Deterministic evaluation: no dropout, no teacher forcing, no recording."""
    gold_intents, pred_intents, gold_tags, pred_tags = [], [], [], []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start: start + batch_size]
        batch = pad_batch(chunk, vocab)
        result = model.forward(batch, training=False)
        slot_pred = result.slot_predictions()
        intent_pred = result.intent_predictions()
        for i, s in enumerate(chunk):
            gold_intents.append(s.intent)
            pred_intents.append(vocab.intents[intent_pred[i]])
            gold_tags.append(list(s.slot_tags))
            pred_tags.append([vocab.slot_tags[j] for j in slot_pred[i, : len(s.tokens)]])
    return met.compute_report(gold_intents, pred_intents, gold_tags, pred_tags)


def train(model: JointModel, corpus: Corpus, vocab: Vocab, cfg: TrainConfig,
          shuffle_rng: Rng, tf_rng: Rng, dropout_rng: Rng) -> TrainResult:
    cfg.validate()
    if not corpus.train:
        raise ValueError("training split is empty")
    optimizer = Adam(model.parameters(), lr=cfg.learning_rate, l2_decay=cfg.l2_decay,
                     frozen_rows=[(model.embedding.table, model.embedding.pad_id)])
    stop = EarlyStopState()
    history: list[EpochRecord] = []
    train_samples = corpus.train
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_samples))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = pad_batch([train_samples[i] for i in order[start: start + cfg.batch_size]],
                              vocab)
            with Tape() as tape:
                result = model.forward(batch, training=True,
                                       tf_rate=cfg.teacher_forcing_rate, tf_rng=tf_rng,
                                       dropout_rate=cfg.dropout_rate, dropout_rng=dropout_rng)
                loss = batch_loss(result, batch, cfg.loss_lambda)
                _check_finite(loss, tape, model)
                ad.backward(loss)
            epoch_loss += loss.item()
            optimizer.step()
            optimizer.zero_grad()
        dev_report = evaluate_model(model, corpus.dev, vocab, cfg.batch_size)
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss, dev_report=dev_report))
        stop.update(epoch, dev_report.sentence_accuracy, model)
        if stop.epochs_since_improvement > cfg.patience:
            break
    if stop.best_snapshot is not None:
        model.load_values(stop.best_snapshot)
    return TrainResult(history=history, best_epoch=stop.best_epoch,
                       best_dev_accuracy=stop.best_accuracy)


# ---------------------------------------------------------------------------
# checkpoint files: a small binary container of named float64 tensors with a
# JSON header holding the resolved config, seed, and vocabulary.

_MAGIC = b"SLUCKPT1"


def save_checkpoint(path: str, model: JointModel, config: dict, vocab: Vocab) -> None:
    header = {
        "config": config,
        "dims": asdict(model.dims),
        "flags": asdict(model.flags),
        "vocab": {"words": vocab.words, "slot_tags": vocab.slot_tags,
                  "intents": vocab.intents},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    items = model.parameters(active_only=True)
    with open(path, "wb") as f:
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


@dataclass
class Checkpoint:
    config: dict
    dims: ModelDims
    flags: AblationFlags
    vocab: Vocab
    tensors: dict[str, np.ndarray]

    def build_model(self) -> JointModel:
        model = build_model(self.dims, self.flags, Rng(int(self.config.get("seed", 0))))
        model.load_values(self.tensors)
        model.embedding.zero_pad_row()
        return model


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic {magic!r})")
        (header_len,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(header_len).decode("utf-8"))
        (n_items,) = struct.unpack("<I", f.read(4))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_items):
            (name_len,) = struct.unpack("<H", f.read(2))
            name = f.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", f.read(1))
            shape = struct.unpack(f"<{ndim}Q", f.read(8 * ndim))
            count = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(f.read(8 * count), dtype="<f8").reshape(shape).copy()
            tensors[name] = arr
    v = header["vocab"]
    return Checkpoint(
        config=header["config"],
        dims=ModelDims(**header["dims"]),
        flags=AblationFlags(**header["flags"]),
        vocab=Vocab(words=v["words"], slot_tags=v["slot_tags"], intents=v["intents"]),
        tensors=tensors,
    )
