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
class DecoderTrace:
    """Hidden features and output distributions of whichever decoders ran."""

    slot_intuitive: inter.DecodeResult | None = None
    intent_rational: inter.DecodeResult | None = None
    intent_intuitive: inter.DecodeResult | None = None
    slot_rational: inter.DecodeResult | None = None


@dataclass
class ForwardResult:
    y_slot: Tensor               # [T*B, n_slots], time-major
    y_intent: Tensor             # [B, n_intents]
    trace: DecoderTrace
    encoded: enc.EncoderOutput
    mask: np.ndarray             # [B, T]

    def slot_predictions(self) -> np.ndarray:
        """[B, T] argmax slot ids (meaningless at masked positions)."""
        B, T = self.mask.shape
        return self.y_slot.values.argmax(axis=1).reshape(T, B).T

    def intent_predictions(self) -> np.ndarray:
        return self.y_intent.values.argmax(axis=1)


class JointModel:
    """Owns all parameters and runs the configured forward pass."""

    def __init__(self, dims: ModelDims, flags: AblationFlags, rng: Rng):
        self.dims = dims
        self.flags = flags
        h, emb = dims.hidden, dims.emb_dim
        e_width = 2 * h + (emb if flags.gaussian_attention else 0)
        self.e_width = e_width

        self.embedding = enc.init_embedding(dims.vocab_size, emb, rng)
        self.enc_fwd = enc.init_lstm(emb, h, rng)
        self.enc_bwd = enc.init_lstm(emb, h, rng)
        self.attention = enc.init_gaussian_attention()
        self.dec_slot_intuitive = inter.init_decoder(dims.n_slots + e_width, h, dims.n_slots, rng)
        self.dec_intent_rational = inter.init_decoder(
            dims.n_intents + dims.n_slots + e_width, h, dims.n_intents, rng)
        self.dec_intent_intuitive = inter.init_decoder(dims.n_intents + e_width, h, dims.n_intents, rng)
        self.dec_slot_rational = inter.init_decoder(
            dims.n_slots + dims.n_intents + e_width, h, dims.n_slots, rng)
        self.coop = coop.CooperationParams(slot_gate=coop.init_mlp(h, rng),
                                           intent_gate=coop.init_mlp(h, rng))
        bound = 1.0 / np.sqrt(h)
        self.head_slot = ad.parameter(rng.uniform(-bound, bound, (dims.n_slots, h)))
        self.head_intent = ad.parameter(rng.uniform(-bound, bound, (dims.n_intents, h)))

        self.params: dict[str, Tensor] = {}
        self._register()

    def _register(self) -> None:
        p = self.params
        p["embedding.table"] = self.embedding.table
        for name, cell in (("encoder.fwd", self.enc_fwd), ("encoder.bwd", self.enc_bwd)):
            p[f"{name}.w_x"], p[f"{name}.w_h"], p[f"{name}.b"] = cell.w_x, cell.w_h, cell.b
        p["attention.w_raw"] = self.attention.w_raw
        p["attention.b_raw"] = self.attention.b_raw
        for name, dec in self._decoders().items():
            cell = dec.cell
            p[f"{name}.w_x"], p[f"{name}.w_h"], p[f"{name}.b"] = cell.w_x, cell.w_h, cell.b
            p[f"{name}.proj"] = dec.proj
        for name, mlp in (("coop.slot_gate", self.coop.slot_gate),
                          ("coop.intent_gate", self.coop.intent_gate)):
            p[f"{name}.w1"], p[f"{name}.b1"] = mlp.w1, mlp.b1
            p[f"{name}.w2"], p[f"{name}.b2"] = mlp.w2, mlp.b2
        p["head.slot"] = self.head_slot
        p["head.intent"] = self.head_intent

    def _decoders(self) -> dict[str, inter.DecoderParams]:
        return {
            "decoder.slot_intuitive": self.dec_slot_intuitive,
            "decoder.intent_rational": self.dec_intent_rational,
            "decoder.intent_intuitive": self.dec_intent_intuitive,
            "decoder.slot_rational": self.dec_slot_rational,
        }

    def active_param_names(self) -> list[str]:
        flags = self.flags
        active = []
        for name in self.params:
            if name.startswith("attention.") and not flags.gaussian_attention:
                continue
            if name.startswith(("decoder.slot_intuitive", "decoder.intent_rational")) \
                    and not flags.slot2intent:
                continue
            if name.startswith(("decoder.intent_intuitive", "decoder.slot_rational")) \
                    and not flags.intent2slot:
                continue
            if name.startswith("coop.") and not flags.gates_active:
                continue
            active.append(name)
        return active

    def parameters(self, active_only: bool = True) -> list[tuple[str, Tensor]]:
        names = self.active_param_names() if active_only else list(self.params)
        return [(n, self.params[n]) for n in names]

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Load exactly the active parameters: a missing or an extra name is an
        error, never a silently kept initial value."""
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
            tensor.values[...] = arr

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: t.values.copy() for n, t in self.parameters(active_only=True)}

    def forward(self, batch: UtteranceBatch, training: bool = False,
                tf_rate: float = 0.0, tf_rng: Rng | None = None,
                dropout_rate: float = 0.0, dropout_rng: Rng | None = None) -> ForwardResult:
        flags = self.flags
        B, T = batch.token_ids.shape
        encoded = enc.encode_batch(
            batch.token_ids, batch.mask, self.embedding, self.enc_fwd, self.enc_bwd,
            self.attention if flags.gaussian_attention else None,
            training=training, dropout_rate=dropout_rate, dropout_rng=dropout_rng)
        e = encoded.e

        use_tf = training and tf_rate > 0.0
        if use_tf:
            slot_gold = inter.slot_gold_onehots(batch.slot_ids, self.dims.n_slots)
            intent_gold = inter.intent_gold_onehots(batch.intent_ids, self.dims.n_intents, T)

        def forcing(gold) -> inter.TeacherForcing:
            if not use_tf:
                return inter.disabled_teacher_forcing()
            return inter.TeacherForcing(rate=tf_rate, rng=tf_rng, gold=gold)

        trace = DecoderTrace()
        if flags.slot2intent:
            trace.slot_intuitive = inter.intuitive_slot_decode(
                e, T, self.dec_slot_intuitive, forcing(slot_gold if use_tf else None))
            trace.intent_rational = inter.rational_intent_decode(
                e, T, trace.slot_intuitive.y, self.dec_intent_rational,
                forcing(intent_gold if use_tf else None))
        if flags.intent2slot:
            trace.intent_intuitive = inter.intuitive_intent_decode(
                e, T, self.dec_intent_intuitive, forcing(intent_gold if use_tf else None))
            trace.slot_rational = inter.rational_slot_decode(
                e, T, trace.intent_intuitive.y, self.dec_slot_rational,
                forcing(slot_gold if use_tf else None))

        if flags.gates_active:
            h_rs, h_is = trace.slot_rational.h, trace.slot_intuitive.h
            h_slot = coop.fuse(h_rs, h_is, coop.gate(h_rs, self.coop.slot_gate))
            h_ri, h_ii = trace.intent_rational.h, trace.intent_intuitive.h
            intent_blend = coop.fuse(h_ri, h_ii, coop.gate(h_ri, self.coop.intent_gate))
        else:
            if flags.intent2slot and flags.slot2intent:
                h_slot = trace.slot_rational.h
                intent_blend = trace.intent_rational.h
            elif flags.intent2slot:
                h_slot = trace.slot_rational.h
                intent_blend = trace.intent_intuitive.h
            else:
                h_slot = trace.slot_intuitive.h
                intent_blend = trace.intent_rational.h

        h_intent = coop.fuse_intent(intent_blend, batch.mask)
        y_slot, y_intent = coop.predict(h_slot, h_intent, self.head_slot, self.head_intent)
        return ForwardResult(y_slot=y_slot, y_intent=y_intent,
                             trace=trace, encoded=encoded, mask=batch.mask)


def build_model(dims: ModelDims, flags: AblationFlags, rng: Rng) -> JointModel:
    return JointModel(dims, flags, rng)
