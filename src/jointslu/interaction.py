"""Bidirectional task interaction: two decoder chains over the encoded utterance.

The slot-to-intent chain runs an intuitive slot decoder whose per-token label
distributions feed a rational intent decoder; the intent-to-slot chain mirrors
it (intuitive intent decoder feeding a rational slot decoder). All four are
unidirectional LSTMs run by ``decode``, consuming the aligned encoder state
each step with the previous step's output distribution prepended to the
input. Each returns its hidden states, which the cooperation gate reads, and
its label distributions, which the rational decoder of the other task reads,
as two outputs of one tape node. For teacher forcing the caller passes a
[T, B] mask of the rows that read the gold one-hot instead, and the gold rows
from ``gold_onehots``.
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


def init_decoder(input_size: int, hidden: int, n_labels: int,
                 rng: Rng | None) -> DecoderParams:
    """``rng=None`` gives all-zero parameters, as ``init_lstm``."""
    return DecoderParams(
        cell=init_lstm(input_size, hidden, rng),
        proj=ad.uniform_parameter(rng, 1.0 / np.sqrt(hidden), (n_labels, hidden)),
    )


def decode(e: Tensor, steps: int, p: DecoderParams, opposite_y: Tensor | None = None,
           force: np.ndarray | None = None,
           gold: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Left-to-right decode of the time-major encoder states e [T*B, e_width].

    Step input is [prev distribution (+ opposite task's distribution) +
    encoder state]. The previous distribution at t = 0 is the zero vector, so
    the first step carries no label prior. Rows set in the [T, B] ``force``
    mask read the gold one-hot of the previous step from ``gold`` [T*B, K]
    instead. Returns the hidden states ``[T*B, hidden]`` and the label
    distributions ``[T*B, K]``, the two outputs of one ``ad.lstm_scan`` node.
    """
    x = e if opposite_y is None else ad.concat([opposite_y, e], axis=1)
    cell = p.cell
    return ad.lstm_scan(x, cell.w_x, cell.w_h, cell.b, steps, proj=p.proj, force=force,
                        gold=gold)


# One name per decoder role, so that each can be timed on its own
# (perfbench/tracer.py wraps these names); the rational roles pass ``opposite_y``.
intuitive_slot_decode = rational_intent_decode = decode
intuitive_intent_decode = rational_slot_decode = decode


def gold_onehots(ids: np.ndarray, n_labels: int) -> np.ndarray:
    """Time-major [T*B, n_labels] one-hots of [B, T] ids; sentinel (padding)
    ids give zero rows."""
    ids = ids.T.reshape(-1)
    valid = (ids >= 0) & (ids < n_labels)
    oh = np.zeros((ids.size, n_labels))
    oh[np.flatnonzero(valid), ids[valid]] = 1.0
    return oh
