"""Utterance encoder: embeddings, a BiLSTM, and distance-penalized self-attention.

The per-token representation concatenates the BiLSTM state with a context
vector from self-attention whose scores carry an additive penalty
``-|w * d^2 + b|`` on the squared token distance d, biasing weights toward
local context. Both branches read the (dropout-regularized) word embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, ShapeError, Tensor


@dataclass
class EmbeddingTable:
    table: Tensor          # [vocab, emb]
    pad_id: int

    @property
    def emb_dim(self) -> int:
        return self.table.shape[1]

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
    """Unconstrained scalars; the effective weights are w = exp(w_raw) > 0
    and b = -exp(b_raw) < 0, so the locality penalty stays well-formed for
    any optimizer trajectory."""

    w_raw: Tensor  # [1]
    b_raw: Tensor  # [1]

    def effective(self) -> tuple[Tensor, Tensor]:
        return ad.exp(self.w_raw), ad.neg(ad.exp(self.b_raw))


@dataclass
class EncodedUtterance:
    """Single-utterance view of the encoder output (values only)."""

    E: np.ndarray          # [T, 2h + emb] (or [T, 2h] without attention)
    H: np.ndarray          # [T, 2h]
    C: np.ndarray | None   # [T, emb]
    mask: np.ndarray       # [T] bool


@dataclass
class EncoderOutput:
    """Batched encoder output, time-major: row ``t * B + b`` is utterance b's
    token t."""

    e: Tensor              # [T*B, e_width]
    h: Tensor              # [T*B, 2h]
    c: Tensor | None       # [T*B, emb] when attention is on
    mask: np.ndarray       # [B, T] bool

    @property
    def e_width(self) -> int:
        return self.e.shape[1]


def init_embedding(vocab_size: int, emb_dim: int, rng: Rng, pad_id: int = 0) -> EmbeddingTable:
    bound = 1.0 / np.sqrt(emb_dim)
    values = rng.uniform(-bound, bound, (vocab_size, emb_dim))
    values[pad_id, :] = 0.0
    return EmbeddingTable(table=ad.parameter(values), pad_id=pad_id)


def init_lstm(input_size: int, hidden: int, rng: Rng) -> LstmParams:
    bound = 1.0 / np.sqrt(hidden)
    w_x = ad.parameter(rng.uniform(-bound, bound, (4 * hidden, input_size)))
    w_h = ad.parameter(rng.uniform(-bound, bound, (4 * hidden, hidden)))
    b = np.zeros(4 * hidden)
    b[hidden: 2 * hidden] = 1.0
    return LstmParams(w_x=w_x, w_h=w_h, b=ad.parameter(b))


def init_gaussian_attention() -> GaussianAttentionParams:
    # b starts at -0.5 so |w*d^2 + b| has no kink at integer squared distances
    return GaussianAttentionParams(w_raw=ad.parameter([0.0]),
                                   b_raw=ad.parameter([np.log(0.5)]))


def embed(token_ids: np.ndarray, table: EmbeddingTable) -> Tensor:
    ids = np.asarray(token_ids, dtype=np.intp).reshape(-1)
    if ids.size and ids.max() >= table.table.shape[0]:
        raise IndexError(f"token id {int(ids.max())} out of range for "
                         f"vocabulary of {table.table.shape[0]}")
    return ad.take_rows(table.table, ids)


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


def bilstm_forward(x: Tensor, mask: np.ndarray, fwd: LstmParams, bwd: LstmParams) -> Tensor:
    """Per-token [T*B, 2h] states of time-major input x [T*B, in], with mask
    [B, T]; rows at masked positions are exactly zero.

    Both scans hold their state at zero across masked steps, so the backward
    scan effectively starts fresh at each row's true last token.
    """
    T = mask.shape[1]
    if T < 1 or x.shape[0] == 0:
        raise ShapeError("bilstm_forward needs at least one timestep")
    h_fwd = ad.lstm_scan(x, fwd.w_x, fwd.w_h, fwd.b, T, mask=mask)
    h_bwd = ad.lstm_scan(x, bwd.w_x, bwd.w_h, bwd.b, T, mask=mask, reverse=True)
    return ad.concat([h_fwd, h_bwd], axis=1)


def attention_prior(T: int, w_eff: Tensor, b_eff: Tensor) -> Tensor:
    """[T, T] additive score prior -|w * d^2 + b| over squared token distance."""
    pos = np.arange(T, dtype=np.float64)
    d2 = ad.constant((pos[:, None] - pos[None, :]) ** 2)
    return ad.neg(ad.absolute(ad.scalar_add(ad.scalar_mul(d2, w_eff), b_eff)))


def gaussian_self_attention(x: Tensor, mask: np.ndarray, w_eff: Tensor, b_eff: Tensor,
                            prior: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Context vectors for one utterance [T, d]; returns (C, attention weights).

    Scores are the dot products x_i . x_j plus the locality prior; masked key
    positions are excluded from the softmax and masked query rows come out
    zero.
    """
    T = x.shape[0]
    if prior is None:
        prior = attention_prior(T, w_eff, b_eff)
    scores = ad.add(prior, ad.matmul_nt(x, x))
    weights = ad.masked_softmax(scores, mask)
    context = ad.matmul(weights, x)
    return ad.mask_rows(context, mask.astype(np.float64)), weights


def encode_batch(token_ids: np.ndarray, mask: np.ndarray, emb_table: EmbeddingTable,
                 fwd: LstmParams, bwd: LstmParams,
                 attn: GaussianAttentionParams | None,
                 training: bool = False, dropout_rate: float = 0.0,
                 dropout_rng: Rng | None = None) -> EncoderOutput:
    B, T = token_ids.shape
    if T < 1:
        raise ShapeError("cannot encode an empty batch")
    emb_all = embed(token_ids, emb_table)                      # [B*T, emb]
    emb_all = ad.dropout(emb_all, dropout_rate, dropout_rng, training)
    row_mask = mask.reshape(-1).astype(np.float64)
    emb_all = ad.mask_rows(emb_all, row_mask)
    time_major = np.arange(B * T).reshape(B, T).T.reshape(-1)  # row t*B+b <- b*T+t
    h_all = bilstm_forward(ad.take_rows(emb_all, time_major), mask, fwd, bwd)
    if attn is None:
        return EncoderOutput(e=h_all, h=h_all, c=None, mask=mask)

    w_eff, b_eff = attn.effective()
    prior = attention_prior(T, w_eff, b_eff)
    contexts = []
    for i in range(B):
        x_i = ad.slice_rows(emb_all, i * T, (i + 1) * T)
        c_i, _ = gaussian_self_attention(x_i, mask[i], w_eff, b_eff, prior=prior)
        contexts.append(c_i)
    c_all = ad.take_rows(ad.concat(contexts, axis=0), time_major)
    return EncoderOutput(e=ad.concat([h_all, c_all], axis=1), h=h_all, c=c_all, mask=mask)


def encode_utterance(token_ids, emb_table: EmbeddingTable, fwd: LstmParams,
                     bwd: LstmParams, attn: GaussianAttentionParams | None) -> EncodedUtterance:
    """Deterministic single-utterance encoding, returned as plain arrays."""
    ids = np.asarray(token_ids, dtype=np.int64).reshape(1, -1)
    mask = np.ones_like(ids, dtype=bool)
    out = encode_batch(ids, mask, emb_table, fwd, bwd, attn)
    return EncodedUtterance(
        E=out.e.values,
        H=out.h.values,
        C=out.c.values if out.c is not None else None,
        mask=mask[0],
    )
