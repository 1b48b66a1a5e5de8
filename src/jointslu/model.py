"""The full joint model: encoder, four decoders, cooperation gate, and heads.

Ablation flags disable whole computation paths structurally: the parameters
of a disabled path are still constructed (so their gradients can be observed
to stay exactly zero) but never enter the graph, are excluded from the
optimizer's active set, and are omitted from checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import cooperation as coop
from . import encoder as enc
from . import interaction as inter
from .autodiff import Rng, Tensor
from .data import UtteranceBatch


@dataclass
class ModelDims:
    vocab_size: int
    emb_dim: int
    hidden: int
    n_slots: int
    n_intents: int


@dataclass
class AblationFlags:
    slot2intent: bool = True
    intent2slot: bool = True
    gaussian_attention: bool = True
    cooperation: bool = True

    def __post_init__(self):
        if not (self.slot2intent or self.intent2slot):
            raise ValueError("cannot disable both interaction directions")

    @property
    def gates_active(self) -> bool:
        return self.cooperation and self.slot2intent and self.intent2slot


@dataclass
class ForwardResult:
    z_slot: Tensor               # [T*B, n_slots] logits, time-major
    z_intent: Tensor             # [B, n_intents] logits
    mask: np.ndarray             # [B, T]

    def slot_predictions(self) -> np.ndarray:
        """[B, T] argmax slot ids (meaningless at masked positions)."""
        B, T = self.mask.shape
        return self.z_slot.values.argmax(axis=1).reshape(T, B).T

    def intent_predictions(self) -> np.ndarray:
        return self.z_intent.values.argmax(axis=1)


class JointModel:
    """Owns all parameters and runs the configured forward pass.

    With ``rng=None`` nothing is drawn: every parameter starts as all zeros,
    for a model whose values ``load_values`` then supplies."""

    def __init__(self, dims: ModelDims, flags: AblationFlags, rng: Rng | None):
        self.dims = dims
        self.flags = flags
        h, emb, n_slots, n_intents = dims.hidden, dims.emb_dim, dims.n_slots, dims.n_intents
        e_width = 2 * h + (emb if flags.gaussian_attention else 0)

        self.embedding = enc.init_embedding(dims.vocab_size, emb, rng)
        self.enc_fwd = enc.init_lstm(emb, h, rng)
        self.enc_bwd = enc.init_lstm(emb, h, rng)
        self.attention = enc.init_gaussian_attention(rng)
        self.dec_slot_intuitive = inter.init_decoder(n_slots + e_width, h, n_slots, rng)
        self.dec_intent_rational = inter.init_decoder(
            n_intents + n_slots + e_width, h, n_intents, rng)
        self.dec_intent_intuitive = inter.init_decoder(n_intents + e_width, h, n_intents, rng)
        self.dec_slot_rational = inter.init_decoder(
            n_slots + n_intents + e_width, h, n_slots, rng)
        self.slot_gate = coop.init_mlp(h, rng)
        self.intent_gate = coop.init_mlp(h, rng)
        bound = 1.0 / np.sqrt(h)
        self.head_slot = ad.uniform_parameter(rng, bound, (n_slots, h))
        self.head_intent = ad.uniform_parameter(rng, bound, (n_intents, h))

        def decoder(d: inter.DecoderParams) -> dict[str, Tensor]:
            return {**vars(d.cell), "proj": d.proj}

        s2i, i2s, gates = flags.slot2intent, flags.intent2slot, flags.gates_active
        # (checkpoint prefix, tensors, active under the flags), in checkpoint order
        table = [
            ("embedding", {"table": self.embedding.table}, True),
            ("encoder.fwd", vars(self.enc_fwd), True),
            ("encoder.bwd", vars(self.enc_bwd), True),
            ("attention", vars(self.attention), flags.gaussian_attention),
            ("decoder.slot_intuitive", decoder(self.dec_slot_intuitive), s2i),
            ("decoder.intent_rational", decoder(self.dec_intent_rational), s2i),
            ("decoder.intent_intuitive", decoder(self.dec_intent_intuitive), i2s),
            ("decoder.slot_rational", decoder(self.dec_slot_rational), i2s),
            ("coop.slot_gate", vars(self.slot_gate), gates),
            ("coop.intent_gate", vars(self.intent_gate), gates),
            ("head", {"slot": self.head_slot, "intent": self.head_intent}, True),
        ]
        self.params: dict[str, Tensor] = {
            f"{prefix}.{name}": t for prefix, tensors, _ in table for name, t in tensors.items()}
        self._inactive = {f"{prefix}.{name}" for prefix, tensors, active in table
                          if not active for name in tensors}

    def active_param_names(self) -> list[str]:
        return [name for name in self.params if name not in self._inactive]

    def parameters(self, active_only: bool = True) -> list[tuple[str, Tensor]]:
        names = self.active_param_names() if active_only else list(self.params)
        return [(n, self.params[n]) for n in names]

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Load exactly the active parameters: a missing or an extra name is an
        error, never a silently kept initial value.

        Each array is adopted, not copied, so the model and ``values`` share
        memory afterwards. It must be float64 and C-contiguous, since Adam
        updates parameters in place through flat views."""
        active = self.active_param_names()
        missing = [n for n in active if n not in values]
        if missing:
            raise ValueError(f"missing tensor {missing[0]!r} for the model's active parameters")
        extra = sorted(set(values) - set(active))
        if extra:
            raise ValueError(f"unexpected tensor {extra[0]!r}: not an active parameter of "
                             f"this model")
        for name, arr in values.items():
            tensor = self.params[name]
            if tensor.values.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: model {tensor.values.shape}, "
                                 f"loaded {arr.shape}")
            if arr.dtype != np.float64 or not arr.flags.c_contiguous:
                raise ValueError(f"{name} must be a C-contiguous float64 array, got {arr.dtype} "
                                 f"(C-contiguous: {arr.flags.c_contiguous})")
        for name, arr in values.items():
            self.params[name].values = arr

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: t.values.copy() for n, t in self.parameters(active_only=True)}

    def forward(self, batch: UtteranceBatch, training: bool = False,
                tf_rate: float = 0.0, tf_rng: Rng | None = None,
                dropout_rate: float = 0.0, dropout_rng: Rng | None = None) -> ForwardResult:
        if not 0.0 <= tf_rate <= 1.0:
            raise ValueError(f"teacher forcing rate must be in [0, 1], got {tf_rate}")
        flags = self.flags
        B, T = batch.token_ids.shape
        e = enc.encode_batch(
            batch.token_ids, batch.mask, self.embedding, self.enc_fwd, self.enc_bwd,
            self.attention if flags.gaussian_attention else None,
            dropout_rate if training else 0.0, dropout_rng)

        # one [T, B] mask per running decoder, in call order; step 0 is never forced
        force, slot_gold, intent_gold = [None] * 4, None, None
        if training and tf_rate > 0.0:
            n_decoders = 2 * (flags.slot2intent + flags.intent2slot)
            force = np.zeros((n_decoders, T, B), dtype=bool)
            force[:, 1:] = tf_rng.random((n_decoders, T - 1, B)) < tf_rate
            slot_gold = inter.gold_onehots(batch.slot_ids, self.dims.n_slots)
            intent_gold = inter.gold_onehots(np.repeat(batch.intent_ids[:, None], T, axis=1),
                                             self.dims.n_intents)
        forces = iter(force)
        if flags.slot2intent:
            h_is, y_is = inter.intuitive_slot_decode(e, T, self.dec_slot_intuitive,
                                                     force=next(forces), gold=slot_gold)
            h_ri, _ = inter.rational_intent_decode(e, T, self.dec_intent_rational, opposite_y=y_is,
                                                   force=next(forces), gold=intent_gold)
        if flags.intent2slot:
            h_ii, y_ii = inter.intuitive_intent_decode(e, T, self.dec_intent_intuitive,
                                                       force=next(forces), gold=intent_gold)
            h_rs, _ = inter.rational_slot_decode(e, T, self.dec_slot_rational, opposite_y=y_ii,
                                                 force=next(forces), gold=slot_gold)

        if flags.gates_active:
            h_slot = coop.fuse(h_rs, h_is, coop.gate(h_rs, self.slot_gate))
            intent_blend = coop.fuse(h_ri, h_ii, coop.gate(h_ri, self.intent_gate))
        else:
            h_slot = h_rs if flags.intent2slot else h_is
            intent_blend = h_ri if flags.slot2intent else h_ii

        h_intent = coop.fuse_intent(intent_blend, batch.mask)
        z_slot, z_intent = coop.predict(h_slot, h_intent, self.head_slot, self.head_intent)
        return ForwardResult(z_slot=z_slot, z_intent=z_intent, mask=batch.mask)


def build_model(dims: ModelDims, flags: AblationFlags, rng: Rng | None) -> JointModel:
    return JointModel(dims, flags, rng)
