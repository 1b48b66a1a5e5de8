"""Corpus ingestion, vocabularies, batching, and a synthetic corpus generator.

A corpus lives in three split directories (``train/``, ``valid/``, ``test/``),
each holding ``seq.in`` (space-separated tokens), ``seq.out`` (space-separated
BIO tags), and ``label`` (one intent per line), with matching line counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import Rng

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1
PAD_SLOT_ID = -1

SPLIT_DIRS = {"train": "train", "dev": "valid", "test": "test"}


class CorpusFormatError(ValueError):
    """A corpus file violates the three-file format."""


@dataclass
class Sample:
    tokens: list[str]
    slot_tags: list[str]
    intent: str


@dataclass
class Corpus:
    train: list[Sample]
    dev: list[Sample]
    test: list[Sample]

    def split(self, name: str) -> list[Sample]:
        return getattr(self, _split_key(name))


def _split_key(name: str) -> str:
    """``train``, ``dev`` or ``test``; ``valid``, the dev directory's name, means ``dev``."""
    key = "dev" if name == "valid" else name
    if key not in SPLIT_DIRS:
        raise ValueError(f"unknown split {name!r}; expected one of {sorted(SPLIT_DIRS)}")
    return key


def split_dir(root: str, name: str) -> str:
    return os.path.join(root, SPLIT_DIRS[_split_key(name)])


def _valid_tag(tag: str) -> bool:
    return tag == "O" or (len(tag) > 2 and tag[0] in "BI" and tag[1] == "-")


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 file, split at newlines only: ``str.splitlines``
    would also split inside a line at U+2028, U+0085 or a form feed."""
    # undecodable bytes read as lone surrogates, which do not encode back
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        text = f.read()
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        line = text.count("\n", 0, e.start) + 1
        raise CorpusFormatError(f"{path}:{line}: not valid UTF-8") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def load_split(root: str, split: str) -> list[Sample]:
    """The samples of one split of the corpus at ``root``; a missing or empty
    split is an error."""
    d = split_dir(root, split)
    if not os.path.isdir(d):
        raise CorpusFormatError(f"missing split directory {d}")
    paths = {name: os.path.join(d, name) for name in ("seq.in", "seq.out", "label")}
    for name, p in paths.items():
        if not os.path.isfile(p):
            raise CorpusFormatError(f"missing {name} in {d}")
    lines = {name: read_lines(p) for name, p in paths.items()}
    n = len(lines["seq.in"])
    for name in ("seq.out", "label"):
        if len(lines[name]) != n:
            raise CorpusFormatError(
                f"line count mismatch in {d}: {name} has {len(lines[name])} lines, "
                f"seq.in has {n}")
    samples = []
    for i in range(n):
        tokens = lines["seq.in"][i].strip().split()
        tags = lines["seq.out"][i].strip().split()
        intent = lines["label"][i].strip()
        if not tokens:
            raise CorpusFormatError(f"{paths['seq.in']}:{i + 1}: empty utterance")
        if not intent:
            raise CorpusFormatError(f"{paths['label']}:{i + 1}: empty intent")
        if len(tokens) != len(tags):
            raise CorpusFormatError(
                f"{paths['seq.out']}:{i + 1}: {len(tags)} tags for {len(tokens)} tokens")
        for tag in tags:
            if not _valid_tag(tag):
                raise CorpusFormatError(f"{paths['seq.out']}:{i + 1}: malformed tag {tag!r}")
        samples.append(Sample(tokens, tags, intent))
    if not samples:
        raise CorpusFormatError(f"{root}: the {split} split is empty")
    return samples


def load_corpus(root: str) -> Corpus:
    return Corpus(**{split: load_split(root, split) for split in SPLIT_DIRS})


def write_corpus(corpus: Corpus, root: str) -> None:
    for split in SPLIT_DIRS:
        d = split_dir(root, split)
        os.makedirs(d, exist_ok=True)
        samples = corpus.split(split)
        with open(os.path.join(d, "seq.in"), "w", encoding="utf-8") as f:
            f.writelines(" ".join(s.tokens) + "\n" for s in samples)
        with open(os.path.join(d, "seq.out"), "w", encoding="utf-8") as f:
            f.writelines(" ".join(s.slot_tags) + "\n" for s in samples)
        with open(os.path.join(d, "label"), "w", encoding="utf-8") as f:
            f.writelines(s.intent + "\n" for s in samples)


@dataclass
class Vocab:
    """Word ids from the training split only; tag/intent ids from all splits.

    Words are case-folded. Id 0 is padding, id 1 the unknown word; dev/test
    words absent from training map to the unknown id.
    """

    words: list[str]
    slot_tags: list[str]
    intents: list[str]
    word_to_id: dict[str, int] = field(init=False, repr=False)
    tag_to_id: dict[str, int] = field(init=False, repr=False)
    intent_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.word_to_id = {w: i for i, w in enumerate(self.words)}
        self.tag_to_id = {t: i for i, t in enumerate(self.slot_tags)}
        self.intent_to_id = {t: i for i, t in enumerate(self.intents)}

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_slots(self) -> int:
        return len(self.slot_tags)

    @property
    def n_intents(self) -> int:
        return len(self.intents)

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token.casefold(), UNK_ID)


def build_vocabs(corpus: Corpus) -> Vocab:
    if not corpus.train:
        raise ValueError("training split is empty")
    words = dict.fromkeys([PAD_TOKEN, UNK_TOKEN]
                          + [tok.casefold() for s in corpus.train for tok in s.tokens])
    samples = [s for split in ("train", "dev", "test") for s in corpus.split(split)]
    tags = dict.fromkeys(tag for s in samples for tag in s.slot_tags)
    intents = dict.fromkeys(s.intent for s in samples)
    return Vocab(words=list(words), slot_tags=list(tags), intents=list(intents))


@dataclass
class UtteranceBatch:
    """Padded token-id matrix plus gold labels and a validity mask.

    Positions at or beyond a row's length carry the pad token id and the
    slot-id sentinel, and are False in the mask. An unlabelled batch carries
    the sentinel as every slot and intent id.
    """

    token_ids: np.ndarray   # [B, T] int
    slot_ids: np.ndarray    # [B, T] int, PAD_SLOT_ID at padding
    intent_ids: np.ndarray  # [B] int
    mask: np.ndarray        # [B, T] bool


def _label_ids(to_id: dict[str, int], labels: list[str], kind: str) -> list[int]:
    try:
        return [to_id[label] for label in labels]
    except KeyError as e:
        raise ValueError(f"vocabulary mismatch: {kind} {e.args[0]!r} is not in the "
                         f"vocabulary ({len(to_id)} {kind}s)") from None


def pad_tokens(utterances: list[list[str]], vocab: Vocab) -> UtteranceBatch:
    """An unlabelled batch of token lists: every slot and intent id is the
    sentinel ``PAD_SLOT_ID``. It can only be predicted on: both losses reject
    the sentinel, and teacher forcing reads a zero row for it."""
    if not utterances:
        raise ValueError("cannot batch an empty utterance list")
    lengths = np.array([len(tokens) for tokens in utterances], dtype=np.int64)
    B, T = len(utterances), int(lengths.max())
    token_ids = np.full((B, T), PAD_ID, dtype=np.int64)
    for i, tokens in enumerate(utterances):
        token_ids[i, : lengths[i]] = [vocab.word_id(t) for t in tokens]
    mask = np.arange(T)[None, :] < lengths[:, None]
    return UtteranceBatch(token_ids, np.full((B, T), PAD_SLOT_ID, dtype=np.int64),
                          np.full(B, PAD_SLOT_ID, dtype=np.int64), mask)


def pad_batch(samples: list[Sample], vocab: Vocab) -> UtteranceBatch:
    """``pad_tokens`` of the samples' tokens, with their gold labels looked up."""
    batch = pad_tokens([s.tokens for s in samples], vocab)
    for i, s in enumerate(samples):
        batch.slot_ids[i, : len(s.tokens)] = _label_ids(vocab.tag_to_id, s.slot_tags, "slot tag")
        batch.intent_ids[i] = _label_ids(vocab.intent_to_id, [s.intent], "intent")[0]
    return batch


@dataclass
class SynthSpec:
    """Shape of a generated corpus with intent-specific slot lexicons.

    ``purity`` is the probability that a slot token is drawn from its own
    intent's lexicon; at 1.0 the lexicons observed under each intent are
    disjoint, so the intent is decodable from any slot token.
    """

    n_intents: int = 5
    slot_types_per_intent: int = 3
    lexicon_size: int = 6
    filler_vocab_size: int = 30
    min_len: int = 4
    max_len: int = 9
    train_samples: int = 2000
    dev_samples: int = 200
    test_samples: int = 200
    purity: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.purity <= 1.0:
            raise ValueError(f"purity must be in [0, 1], got {self.purity}")
        if self.n_intents < 2:
            raise ValueError("need at least two intents")
        if min(self.slot_types_per_intent, self.lexicon_size,
               self.filler_vocab_size, self.min_len, self.train_samples) < 1:
            raise ValueError("sizes and lengths must be positive")
        if min(self.dev_samples, self.test_samples) < 1:
            raise ValueError(f"dev_samples and test_samples must be >= 1, got "
                             f"{self.dev_samples} and {self.test_samples}")
        if self.max_len < self.min_len:
            raise ValueError("max_len must be >= min_len")
        if self.max_len < 5:    # two 2-token spans and the filler between them
            raise ValueError(f"max_len must be >= 5 to fit any span layout, got {self.max_len}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def slot_type_name(intent_idx: int, type_idx: int) -> str:
    return f"s{intent_idx}t{type_idx}"


def slot_lexicon(intent_idx: int, type_idx: int, size: int) -> list[str]:
    return [f"{slot_type_name(intent_idx, type_idx)}v{k}" for k in range(size)]


class _SynthStrings(NamedTuple):
    """Every string a generated corpus holds, formatted once per corpus."""

    fillers: list[str]                # [k] -> "w{k}"
    lexicons: list[list[list[str]]]   # [intent][slot type] -> slot_lexicon(...)
    span_tags: list[list[tuple[str, str]]]  # [intent][slot type] -> ("B-s{i}t{j}", "I-s{i}t{j}")
    intents: list[str]                # [i] -> "intent{i}"


def _synth_strings(spec: SynthSpec) -> _SynthStrings:
    intents, types = range(spec.n_intents), range(spec.slot_types_per_intent)
    return _SynthStrings(
        fillers=[f"w{k}" for k in range(spec.filler_vocab_size)],
        lexicons=[[slot_lexicon(i, j, spec.lexicon_size) for j in types] for i in intents],
        span_tags=[[("B-" + slot_type_name(i, j), "I-" + slot_type_name(i, j)) for j in types]
                   for i in intents],
        intents=[f"intent{i}" for i in intents])


def _gen_sample(spec: SynthSpec, rng: Rng, strings: _SynthStrings) -> Sample:
    # every draw is one scalar call, in this order and with these bounds, so a
    # spec and seed always give the same corpus; draws that only index a table
    # stay numpy ints
    integers, random = rng.integers, rng.random
    intent_idx = int(integers(0, spec.n_intents))
    n_spans = int(integers(1, 3))
    span_lens = [int(integers(1, 3)) for _ in range(n_spans)]
    span_types = [int(integers(0, spec.slot_types_per_intent)) for _ in range(n_spans)]
    length = int(integers(spec.min_len, spec.max_len + 1))
    # one filler between consecutive spans keeps every BIO boundary decodable
    min_needed = sum(span_lens) + (n_spans - 1)
    extra = max(length, min_needed) - min_needed
    gaps = [0] + [1] * (n_spans - 1) + [0]
    if extra > 0:
        for g in integers(0, n_spans + 1, size=extra).tolist():
            gaps[g] += 1

    fillers, n_fillers = strings.fillers, spec.filler_vocab_size
    n_types, n_lex, purity = spec.slot_types_per_intent, spec.lexicon_size, spec.purity
    tokens: list[str] = []
    tags: list[str] = []

    def emit_fillers(count: int) -> None:
        for _ in range(count):
            tokens.append(fillers[integers(0, n_fillers)])
            tags.append("O")

    for k in range(n_spans):
        emit_fillers(gaps[k])
        stype = span_types[k]
        own_lex = strings.lexicons[intent_idx][stype]
        begin, inside = strings.span_tags[intent_idx][stype]
        for pos in range(span_lens[k]):
            if random() < purity:
                lex = own_lex
            else:
                src_intent = int(integers(0, spec.n_intents - 1))
                if src_intent >= intent_idx:
                    src_intent += 1
                lex = strings.lexicons[src_intent][integers(0, n_types)]
            tokens.append(lex[integers(0, n_lex)])
            tags.append(inside if pos else begin)
    emit_fillers(gaps[-1])
    return Sample(tokens, tags, strings.intents[intent_idx])


def generate_synthetic(spec: SynthSpec) -> Corpus:
    spec.validate()
    rng = Rng(spec.seed)
    strings = _synth_strings(spec)
    splits = [[_gen_sample(spec, rng, strings) for _ in range(count)]
              for count in (spec.train_samples, spec.dev_samples, spec.test_samples)]
    return Corpus(train=splits[0], dev=splits[1], test=splits[2])
