"""Command-line entry point: train, evaluate, predict, gradcheck, synth.

Configuration resolves as defaults < config file < command-line flags; every
training or generation run writes its fully resolved configuration next to
its outputs. Config files are flat ``key = value`` text; unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import training as tr
from .autodiff import Rng
from .model import AblationFlags, ModelDims, build_model
from .training import TrainConfig


@dataclass
class RunConfig(TrainConfig):
    emb_dim: int = 512
    hidden: int = 256
    data: str = ""
    out: str = ""


# config-file key for each RunConfig field ("lambda" is not a valid identifier)
_FIELD_TO_KEY = {f.name: f.name for f in fields(RunConfig)}
_FIELD_TO_KEY["loss_lambda"] = "lambda"
_KEY_TO_FIELD = {v: k for k, v in _FIELD_TO_KEY.items()}
_ABLATIONS = [f for f in fields(TrainConfig) if f.name.startswith("no_")]
# the synth flags that are shorter than their SynthSpec field
_SYNTH_KEYS = {"slot_types_per_intent": "slot_types", "filler_vocab_size": "filler_vocab"}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return raw.lower() in ("true", "1", "yes")


# the parser of each field type, for command-line flags and config files alike
_FIELD_TYPES = {"float": float, "int": int, "str": str, "bool": _parse_bool}


def _add_field_flags(p: argparse.ArgumentParser, flds, keys: dict[str, str],
                     defaults: bool) -> None:
    """One ``--<key>`` flag per dataclass field, stored under the field's name:
    a switch for a bool field, a typed value otherwise. With ``defaults`` an
    unset flag takes the field's default, without it None (unset)."""
    for f in flds:
        kind = {"action": "store_true"} if f.type == "bool" else {"type": _FIELD_TYPES[f.type]}
        p.add_argument("--" + keys.get(f.name, f.name).replace("_", "-"), dest=f.name,
                       default=f.default if defaults else None, **kind)


def read_config_file(path: str) -> dict:
    """Parse a flat key = value file into RunConfig field values."""
    types = {f.name: f.type for f in fields(RunConfig)}
    out = {}
    for lineno, line in enumerate(dat.read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        name = _KEY_TO_FIELD[key]
        try:
            out[name] = _FIELD_TYPES[types[name]](raw.strip())
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {key}: {e}") from None
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for f in fields(RunConfig):
        cli_val = getattr(args, f.name, None)    # None: not given (a switch is True or None)
        if cli_val is not None:
            values[f.name] = cli_val
    cfg = RunConfig(**values)
    cfg.validate()
    if cfg.emb_dim < 1 or cfg.hidden < 1:
        raise ValueError(f"emb_dim and hidden must be >= 1, got {cfg.emb_dim} and {cfg.hidden}")
    return cfg


def write_settings(path: str, settings: dict) -> None:
    """One ``key = value`` line per setting, the format ``read_config_file`` reads."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{key} = {value}\n" for key, value in settings.items())


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if not cfg.data or not cfg.out:
        raise ValueError("train needs a corpus directory (--data) and an output "
                         "directory (--out), on the command line or in the config file")
    corpus = dat.load_corpus(cfg.data)
    vocab = dat.build_vocabs(corpus)
    os.makedirs(cfg.out, exist_ok=True)
    out_file = lambda name: os.path.join(cfg.out, name)
    write_settings(out_file("resolved_config.txt"),
                   {_FIELD_TO_KEY[name]: value for name, value in asdict(cfg).items()})

    dims = ModelDims(vocab_size=vocab.n_words, emb_dim=cfg.emb_dim, hidden=cfg.hidden,
                     n_slots=vocab.n_slots, n_intents=vocab.n_intents)
    init_rng, shuffle_rng, tf_rng, dropout_rng = tr.derive_streams(cfg.seed)
    model = build_model(dims, cfg.flags(), init_rng)
    result = tr.train(model, corpus, vocab, cfg, shuffle_rng, tf_rng, dropout_rng)

    tr.save_checkpoint(out_file("checkpoint.bin"), model, asdict(cfg), vocab)
    with open(out_file("history.txt"), "w", encoding="utf-8") as f:
        for rec in result.history:
            f.write(f"epoch = {rec.epoch}\ntrain_loss = {rec.train_loss!r}\n"
                    + rec.dev_report.to_text() + "\n")
    dev_report = result.history[result.best_epoch - 1].dev_report    # of the reloaded weights
    test_report = tr.evaluate_model(model, corpus.test, vocab, cfg.batch_size)
    with open(out_file("dev_metrics.txt"), "w", encoding="utf-8") as f:
        f.write(dev_report.to_text())
    with open(out_file("test_metrics.txt"), "w", encoding="utf-8") as f:
        f.write(test_report.to_text())
    print(f"best epoch {result.best_epoch} (dev sentence accuracy "
          f"{result.best_dev_accuracy!r})")
    print("[dev]")
    print(dev_report.to_text(), end="")
    print("[test]")
    print(test_report.to_text(), end="")
    return 0


def _check_labels(samples: list[dat.Sample], vocab: dat.Vocab, root: str, split: str) -> None:
    """Reject the first slot tag or intent the checkpoint's vocabulary lacks,
    naming its file and line (sample i is line i + 1)."""
    split_dir = dat.split_dir(root, split)
    for line, s in enumerate(samples, 1):
        for tag in s.slot_tags:
            if tag not in vocab.tag_to_id:
                raise ValueError(f"{os.path.join(split_dir, 'seq.out')}:{line}: slot tag "
                                 f"{tag!r} is not in the checkpoint's vocabulary")
        if s.intent not in vocab.intent_to_id:
            raise ValueError(f"{os.path.join(split_dir, 'label')}:{line}: intent "
                             f"{s.intent!r} is not in the checkpoint's vocabulary")


def cmd_evaluate(args: argparse.Namespace) -> int:
    samples = dat.load_split(args.data, args.split)
    ckpt = tr.load_checkpoint(args.checkpoint)
    _check_labels(samples, ckpt.vocab, args.data, args.split)
    model = ckpt.build_model()
    report = tr.evaluate_model(model, samples, ckpt.vocab, args.batch_size)
    text = report.to_text()
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    tokens = args.text.split()
    if not tokens:
        raise ValueError("empty input utterance")
    ckpt = tr.load_checkpoint(args.checkpoint)
    (intent,), (tags,) = tr.predict(ckpt.build_model(), [tokens], ckpt.vocab)
    print("tags = " + " ".join(tags))
    print("intent = " + intent)
    return 0


_GRADCHECK_UTTERANCES = [
    (["show", "red", "alpha", "items", "now"],
     ["O", "B-color", "B-name", "I-name", "O"], "find"),
    (["play", "blue", "song"], ["O", "B-color", "O"], "play"),
]


def _gradcheck_fixture() -> tuple[dat.UtteranceBatch, dat.Vocab]:
    samples = [dat.Sample(tokens, tags, intent)
               for tokens, tags, intent in _GRADCHECK_UTTERANCES]
    corpus = dat.Corpus(train=samples, dev=samples, test=samples)
    vocab = dat.build_vocabs(corpus)
    return dat.pad_batch(samples, vocab), vocab


def run_gradcheck(flags: AblationFlags, epsilon: float = 1e-3,
                  seed: int = 7) -> dict[str, float | None]:
    """Max relative gradient error per parameter group on a tiny model;
    None marks groups outside the active computation path."""
    batch, vocab = _gradcheck_fixture()
    dims = ModelDims(vocab_size=vocab.n_words, emb_dim=8, hidden=8,
                     n_slots=vocab.n_slots, n_intents=vocab.n_intents)
    model = build_model(dims, flags, Rng(seed))

    def loss_fn():
        result = model.forward(batch, training=False)
        return tr.batch_loss(result, batch, 0.5)

    active = set(model.active_param_names())
    report: dict[str, float | None] = {}
    for name, tensor in model.parameters(active_only=False):
        if name not in active:
            report[name] = None
            continue
        report[name] = ad.grad_check(loss_fn, [tensor], epsilon)
    return report


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 0.0 < args.epsilon < math.inf:
        raise ValueError(f"--epsilon must be finite and positive, got {args.epsilon}")
    if not 0.0 <= args.threshold < math.inf:
        raise ValueError(f"--threshold must be finite and >= 0, got {args.threshold}")
    flags = TrainConfig(**{f.name: getattr(args, f.name) for f in _ABLATIONS}).flags()
    report = run_gradcheck(flags, epsilon=args.epsilon)
    for name, err in report.items():
        if err is None:
            print(f"{name}: unused (zero grad)")
        else:
            print(f"{name}: max relative error {err:.3e}")
    # np.max keeps a NaN, where max() would drop it
    worst = float(np.max([0.0] + [err for err in report.values() if err is not None]))
    if not worst <= args.threshold:
        print(f"FAIL: worst error {worst:.3e} exceeds threshold {args.threshold:.1e}")
        return 1
    print(f"OK: worst error {worst:.3e} within threshold {args.threshold:.1e}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = dat.SynthSpec(**{f.name: getattr(args, f.name) for f in fields(dat.SynthSpec)})
    corpus = dat.generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    dat.write_corpus(corpus, args.out)
    write_settings(os.path.join(args.out, "synth_spec.txt"), asdict(spec))
    print(f"wrote {len(corpus.train)}/{len(corpus.dev)}/{len(corpus.test)} "
          f"samples to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, so that ``main`` reports it as one ``error:`` line."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jointslu")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a three-file corpus")
    p.add_argument("--data", help="corpus root (train/valid/test)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="flat key = value config file")
    # value flags first, then switches
    flds = [f for f in fields(RunConfig) if f.name not in ("data", "out")]
    _add_field_flags(p, sorted(flds, key=lambda f: f.type == "bool"), _FIELD_TO_KEY,
                     defaults=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "dev", "valid", "test"])
    p.add_argument("--batch-size", dest="batch_size", type=int, default=16)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="tag one utterance with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True, help="whitespace-tokenized utterance")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--threshold", type=float, default=1e-4)
    _add_field_flags(p, _ABLATIONS, {}, defaults=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    _add_field_flags(p, fields(dat.SynthSpec), _SYNTH_KEYS, defaults=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, IndexError, OSError, tr.TrainingDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
