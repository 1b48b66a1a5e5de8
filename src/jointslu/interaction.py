"""Bidirectional task interaction: two decoder chains over the encoded utterance.

The slot-to-intent chain runs an intuitive slot decoder whose per-token label
distributions feed a rational intent decoder; the intent-to-slot chain mirrors
it (intuitive intent decoder feeding a rational slot decoder). All four are
unidirectional LSTMs consuming the aligned encoder state each step, with the
previous step's output distribution (optionally teacher-forced to the gold
one-hot) prepended to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .encoder import LstmParams, init_lstm


@dataclass
class DecoderParams:
    cell: LstmParams
    proj: Tensor   # [n_labels, hidden]

    @property
    def n_labels(self) -> int:
        return self.proj.shape[0]


@dataclass
class TeacherForcing:
    """Per-step substitution of gold one-hots for previous output distributions.

    ``gold`` is the time-major [T*B, K] one-hot of the gold label at each step
    (the utterance intent repeated every step for intent decoders). Each step
    t >= 1 draws one Bernoulli per batch row from the stream; rate 0
    (evaluation) draws nothing.
    """

    rate: float
    rng: Rng | None
    gold: np.ndarray | None

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"teacher forcing rate must be in [0, 1], got {self.rate}")

    def draw(self, steps: int, batch: int) -> np.ndarray | None:
        """[T, B] bool: which rows read the gold label at each step (row 0 is
        all False); None when forcing is off."""
        if self.rate == 0.0:
            return None
        force = np.zeros((steps, batch), dtype=bool)
        for t in range(1, steps):
            force[t] = self.rng.random(batch) < self.rate
        return force


def disabled_teacher_forcing() -> TeacherForcing:
    return TeacherForcing(rate=0.0, rng=None, gold=None)


@dataclass
class DecodeResult:
    """Time-major: row ``t * B + b`` is utterance b at step t."""

    h: Tensor   # [T*B, hidden]
    y: Tensor   # [T*B, n_labels], each row a distribution


def init_decoder(input_size: int, hidden: int, n_labels: int, rng: Rng) -> DecoderParams:
    bound = 1.0 / np.sqrt(hidden)
    return DecoderParams(
        cell=init_lstm(input_size, hidden, rng),
        proj=ad.parameter(rng.uniform(-bound, bound, (n_labels, hidden))),
    )


def decode(e: Tensor, steps: int, p: DecoderParams, tf: TeacherForcing,
           opposite_y: Tensor | None = None) -> DecodeResult:
    """Left-to-right decode of the time-major encoder states e [T*B, e_width].

    Step input is [prev distribution (+ opposite task's distribution) +
    encoder state]. The previous distribution at t = 0 is the zero vector, so
    the first step carries no label prior.
    """
    x = e if opposite_y is None else ad.concat([opposite_y, e], axis=1)
    force = tf.draw(steps, e.shape[0] // steps)
    cell = p.cell
    out = ad.lstm_scan(x, cell.w_x, cell.w_h, cell.b, steps, proj=p.proj, force=force,
                       gold=tf.gold)
    return DecodeResult(h=ad.slice_cols(out, 0, cell.hidden),
                        y=ad.slice_cols(out, cell.hidden, cell.hidden + p.n_labels))


# One name per decoder role, so that each can be timed on its own
# (perfbench/tracer.py wraps these names).

def intuitive_slot_decode(e: Tensor, steps: int, p: DecoderParams,
                          tf: TeacherForcing) -> DecodeResult:
    return decode(e, steps, p, tf)


def rational_intent_decode(e: Tensor, steps: int, slot_y: Tensor, p: DecoderParams,
                           tf: TeacherForcing) -> DecodeResult:
    return decode(e, steps, p, tf, opposite_y=slot_y)


def intuitive_intent_decode(e: Tensor, steps: int, p: DecoderParams,
                            tf: TeacherForcing) -> DecodeResult:
    return decode(e, steps, p, tf)


def rational_slot_decode(e: Tensor, steps: int, intent_y: Tensor, p: DecoderParams,
                         tf: TeacherForcing) -> DecodeResult:
    return decode(e, steps, p, tf, opposite_y=intent_y)


def slot_gold_onehots(slot_ids: np.ndarray, n_slots: int) -> np.ndarray:
    """Time-major [T*B, n_slots] one-hots; sentinel (padding) ids give zero rows."""
    ids = slot_ids.T.reshape(-1)
    valid = (ids >= 0) & (ids < n_slots)
    oh = np.zeros((ids.size, n_slots))
    oh[np.flatnonzero(valid), ids[valid]] = 1.0
    return oh


def intent_gold_onehots(intent_ids: np.ndarray, n_intents: int, T: int) -> np.ndarray:
    """Time-major [T*B, n_intents]: the utterance intent at every step."""
    oh = np.zeros((intent_ids.shape[0], n_intents))
    oh[np.arange(intent_ids.shape[0]), intent_ids] = 1.0
    return np.tile(oh, (T, 1))
