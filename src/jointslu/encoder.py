"""Utterance encoder: embeddings, a BiLSTM, and distance-penalized self-attention.

The per-token representation concatenates the BiLSTM state with a context
vector from self-attention whose scores carry an additive penalty
``-|w * d^2 + b|`` on the squared token distance d, biasing weights toward
local context. Both branches read the same word embeddings, gathered once
in time-major order (row ``t * B + b`` is utterance b's token t) and
regularized by inverted dropout whose mask is drawn batch-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, ShapeError, Tensor
from .data import PAD_ID


@dataclass
class EmbeddingTable:
    table: Tensor          # [vocab, emb]
    pad_id: int

    def zero_pad_row(self) -> None:
        self.table.values[self.pad_id, :] = 0.0


@dataclass
class LstmParams:
    """Gate-stacked weights: rows are (input, forget, cell, output) blocks."""

    w_x: Tensor   # [4h, in]
    w_h: Tensor   # [4h, h]
    b: Tensor     # [4h]

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass
class GaussianAttentionParams:
    """Unconstrained scalars; ``ad.gaussian_attention`` applies w = exp(w_raw) > 0
    and b = -exp(b_raw) < 0, so the locality penalty stays well-formed for
    any optimizer trajectory."""

    w_raw: Tensor  # [1]
    b_raw: Tensor  # [1]


# The initializers take ``rng=None`` for a model whose values will be loaded:
# every parameter is then all zeros and nothing is drawn.

def init_embedding(vocab_size: int, emb_dim: int, rng: Rng | None) -> EmbeddingTable:
    table = ad.uniform_parameter(rng, 1.0 / np.sqrt(emb_dim), (vocab_size, emb_dim))
    table.values[PAD_ID, :] = 0.0
    return EmbeddingTable(table=table, pad_id=PAD_ID)


def init_lstm(input_size: int, hidden: int, rng: Rng | None) -> LstmParams:
    bound = 1.0 / np.sqrt(hidden)
    w_x = ad.uniform_parameter(rng, bound, (4 * hidden, input_size))
    w_h = ad.uniform_parameter(rng, bound, (4 * hidden, hidden))
    b = np.zeros(4 * hidden)
    if rng is not None:
        b[hidden: 2 * hidden] = 1.0
    return LstmParams(w_x=w_x, w_h=w_h, b=ad.parameter(b))


def init_gaussian_attention(rng: Rng | None) -> GaussianAttentionParams:
    # b starts at -0.5 so |w*d^2 + b| has no kink at integer squared distances
    return GaussianAttentionParams(w_raw=ad.parameter([0.0]),
                                   b_raw=ad.parameter([0.0 if rng is None else np.log(0.5)]))


def embed(token_ids: np.ndarray, table: EmbeddingTable) -> Tensor:
    return ad.take_rows(table.table, np.asarray(token_ids, dtype=np.intp).reshape(-1))


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmParams) -> tuple[Tensor, Tensor]:
    """One LSTM step from primitive ops; the reference ``ad.lstm_scan`` is tested
    against."""
    h = p.hidden
    if x.shape[1] != p.input_size or h_prev.shape[1] != h or c_prev.shape[1] != h:
        raise ShapeError(
            f"lstm_step: x {x.shape}, h {h_prev.shape}, c {c_prev.shape} do not match "
            f"params (in={p.input_size}, hidden={h})")
    gates = ad.add(ad.linear(x, p.w_x, p.b), ad.linear(h_prev, p.w_h))
    i = ad.sigmoid(ad.slice_cols(gates, 0, h))
    f = ad.sigmoid(ad.slice_cols(gates, h, 2 * h))
    g = ad.tanh(ad.slice_cols(gates, 2 * h, 3 * h))
    o = ad.sigmoid(ad.slice_cols(gates, 3 * h, 4 * h))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c))
    return h_new, c


def gaussian_self_attention(x: Tensor, mask: np.ndarray, w_raw: Tensor,
                            b_raw: Tensor) -> tuple[Tensor, np.ndarray]:
    """Context vectors and attention weights of time-major x [T*B, d] under a
    [B, T] mask, or of one utterance's x [T, d] under a [T] mask.

    Scores are the dot products x_i . x_j plus the locality prior built from
    the raw scalars; masked key positions get weight 0 and masked query rows
    come out zero. The weights are [B, T, T], or [T, T] for one utterance.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 1:
        context, weights = ad.gaussian_attention(x, mask[None, :], w_raw, b_raw)
        return context, weights[0]
    return ad.gaussian_attention(x, mask, w_raw, b_raw)


def encode_batch(token_ids: np.ndarray, mask: np.ndarray, emb_table: EmbeddingTable,
                 fwd: LstmParams, bwd: LstmParams,
                 attn: GaussianAttentionParams | None, dropout_rate: float = 0.0,
                 dropout_rng: Rng | None = None) -> Tensor:
    """Time-major features [T*B, e_width] (row ``t * B + b`` is utterance b's token
    t): the forward and backward LSTM states, then the attention context when
    attention is on. The dropout mask is drawn batch-major, ``[B, T, emb]``, and
    transposed; rate 0 draws nothing. Padded embedding rows need no mask: the
    scans hold their state at zero at masked steps and attention ignores masked
    keys and queries, so no output or gradient depends on a padded row."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    B, T = token_ids.shape
    if T < 1:
        raise ShapeError("cannot encode an empty batch")
    x = embed(token_ids.T, emb_table)                          # [T*B, emb]
    if dropout_rate:
        kept = dropout_rng.random((B, T, x.shape[1])) >= dropout_rate
        x = ad.mul(x, ad.constant(kept.transpose(1, 0, 2).reshape(T * B, -1)
                                  / (1.0 - dropout_rate)))
    # recorded before the scans, so x's adjoint adds attention's gradient last
    parts = [] if attn is None else [gaussian_self_attention(x, mask, attn.w_raw, attn.b_raw)[0]]
    h_fwd = ad.lstm_scan(x, fwd.w_x, fwd.w_h, fwd.b, T, mask=mask)
    h_bwd = ad.lstm_scan(x, bwd.w_x, bwd.w_h, bwd.b, T, mask=mask, reverse=True)
    return ad.concat([h_fwd, h_bwd, *parts], axis=1)
