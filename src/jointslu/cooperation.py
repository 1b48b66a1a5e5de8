"""Cooperation gate: blends intuitive and rational features, then predicts.

A small MLP over the rational feature gives logits z over feature coordinates, and
each coordinate fuses as ``h_i + r * (h_r - h_i)`` with ``r = softmax(z)`` (h_i
intuitive, h_r rational), in one ``ad.blend`` node. Slot features stay per-token;
intent features are summed over the utterance's real tokens before classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor


@dataclass
class MlpParams:
    w1: Tensor   # [h, in]
    b1: Tensor   # [h]
    w2: Tensor   # [out, h]
    b2: Tensor   # [out]


def init_mlp(width: int, rng: Rng | None) -> MlpParams:
    """``rng=None`` gives all-zero weights, for a model whose values will be loaded."""
    bound = 1.0 / np.sqrt(width)
    return MlpParams(
        w1=ad.uniform_parameter(rng, bound, (width, width)),
        b1=ad.parameter(np.zeros(width)),
        w2=ad.uniform_parameter(rng, bound, (width, width)),
        b2=ad.parameter(np.zeros(width)),
    )


def gate(h_rational: Tensor, p: MlpParams) -> Tensor:
    """Logits over feature coordinates; ``fuse`` applies their row softmax."""
    hidden = ad.tanh(ad.linear(h_rational, p.w1, p.b1))
    return ad.linear(hidden, p.w2, p.b2)


def fuse(h_rational: Tensor, h_intuitive: Tensor, logits: Tensor) -> Tensor:
    """Per-coordinate convex blend under the row softmax of the gate ``logits``."""
    return ad.blend(h_rational, h_intuitive, logits)


# perfbench/tracer.py looks this name up; the model calls ``fuse`` for both tasks
fuse_slot = fuse


def fuse_intent(blend: Tensor, mask: np.ndarray) -> Tensor:
    """Sum the time-major per-token fused intent features [T*B, d] over each
    utterance's unmasked tokens, giving [B, d]."""
    B, T = mask.shape
    pool = np.zeros((B, T, B))
    pool[np.arange(B), :, np.arange(B)] = mask      # pool[b, t, b] = mask[b, t]
    return ad.matmul(ad.constant(pool.reshape(B, T * B)), blend)


def predict(h_slot: Tensor, h_intent: Tensor,
            w_slot: Tensor, w_intent: Tensor) -> tuple[Tensor, Tensor]:
    """Final label logits: per-token slot rows (time-major, as h_slot) and one
    intent row per utterance. Predicted labels are argmax with ties to the
    lowest index; the losses read the logits directly."""
    return ad.linear(h_slot, w_slot), ad.linear(h_intent, w_intent)
