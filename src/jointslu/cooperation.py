"""Cooperation gate: blends intuitive and rational features, then predicts.

A small MLP over the rational feature produces a softmax score vector r across
feature coordinates; the fused feature is ``rational * r + intuitive * (1 - r)``
per coordinate. Slot features stay per-token; intent features are summed over
the utterance's real tokens before classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, ShapeError, Tensor


@dataclass
class MlpParams:
    w1: Tensor   # [h, in]
    b1: Tensor   # [h]
    w2: Tensor   # [out, h]
    b2: Tensor   # [out]


@dataclass
class CooperationParams:
    slot_gate: MlpParams
    intent_gate: MlpParams


def init_mlp(width: int, rng: Rng) -> MlpParams:
    bound = 1.0 / np.sqrt(width)
    return MlpParams(
        w1=ad.parameter(rng.uniform(-bound, bound, (width, width))),
        b1=ad.parameter(np.zeros(width)),
        w2=ad.parameter(rng.uniform(-bound, bound, (width, width))),
        b2=ad.parameter(np.zeros(width)),
    )


def gate(h_rational: Tensor, p: MlpParams) -> Tensor:
    """Softmax score vector over feature coordinates, entries in (0, 1)."""
    hidden = ad.tanh(ad.linear(h_rational, p.w1, p.b1))
    return ad.softmax(ad.linear(hidden, p.w2, p.b2), axis=1)


def fuse(h_rational: Tensor, h_intuitive: Tensor, r: Tensor) -> Tensor:
    """Per-coordinate convex blend r*rational + (1-r)*intuitive."""
    if h_rational.shape != h_intuitive.shape or h_rational.shape != r.shape:
        raise ShapeError(f"fuse needs equal widths, got {h_rational.shape}, "
                         f"{h_intuitive.shape}, {r.shape}")
    ones = ad.constant(np.ones(r.shape))
    return ad.add(ad.mul(h_rational, r), ad.mul(h_intuitive, ad.sub(ones, r)))


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
    """Final label distributions: per-token slot rows (time-major, as h_slot)
    and one intent row per utterance. Predicted labels are argmax with ties to
    the lowest index."""
    y_slot = ad.softmax(ad.linear(h_slot, w_slot), axis=1)
    y_intent = ad.softmax(ad.linear(h_intent, w_intent), axis=1)
    return y_slot, y_intent
