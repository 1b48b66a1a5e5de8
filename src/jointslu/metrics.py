"""Evaluation: intent error rate, chunk-level slot F1, sentence accuracy.

Chunking follows the CoNLL convention with lenient handling of an I- tag that
has no compatible open chunk (it starts a new chunk). A predicted chunk counts
as correct only when its type, start, and end all match a gold chunk;
precision/recall/F1 are micro-averaged over the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Chunk(NamedTuple):
    type: str
    start: int
    end: int   # inclusive


def extract_chunks(tags: list[str]) -> set[Chunk]:
    """Each tag continues the open chunk (an I- tag of its type), or closes it;
    a B- or I- tag then opens a chunk of its own type."""
    chunks: set[Chunk] = set()
    cur_type: str | None = None
    start = 0
    for i, tag in enumerate(tags):
        prefix, kind = tag[:2], tag[2:]
        if prefix == "I-" and kind == cur_type:
            continue
        if cur_type is not None:
            chunks.add(Chunk(cur_type, start, i - 1))
        cur_type = kind if prefix in ("B-", "I-") else None
        start = i
    if cur_type is not None:
        chunks.add(Chunk(cur_type, start, len(tags) - 1))
    return chunks


def slot_f1(gold_seqs: list[list[str]], pred_seqs: list[list[str]]) -> tuple[float, float, float]:
    p, r, f1, _ = _f1_counts(gold_seqs, pred_seqs)
    return p, r, f1


def _f1_counts(gold_seqs, pred_seqs):
    if len(gold_seqs) != len(pred_seqs):
        raise ValueError(f"{len(gold_seqs)} gold vs {len(pred_seqs)} predicted sequences")
    n_gold = n_pred = n_match = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        if len(gold) != len(pred):
            raise ValueError(f"length mismatch: {len(gold)} gold tags vs {len(pred)} predicted")
        g = extract_chunks(gold)
        p = extract_chunks(pred)
        n_gold += len(g)
        n_pred += len(p)
        n_match += len(g & p)
    precision = n_match / n_pred if n_pred else 0.0
    recall = n_match / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1, (n_gold, n_pred, n_match)


def intent_error_rate(gold: list, predicted: list) -> float:
    if not gold or len(gold) != len(predicted):
        raise ValueError("intent_error_rate needs equal-length, non-empty inputs")
    wrong = sum(1 for g, p in zip(gold, predicted) if g != p)
    return wrong / len(gold)


def sentence_accuracy(gold_pairs: list[tuple], predicted_pairs: list[tuple]) -> float:
    """Fraction of utterances whose intent and full tag sequence both match."""
    if not gold_pairs or len(gold_pairs) != len(predicted_pairs):
        raise ValueError("sentence_accuracy needs equal-length, non-empty inputs")
    correct = sum(
        1 for (gi, gt), (pi, pt) in zip(gold_pairs, predicted_pairs)
        if gi == pi and list(gt) == list(pt))
    return correct / len(gold_pairs)


@dataclass
class MetricsReport:
    intent_error_rate: float
    slot_precision: float
    slot_recall: float
    slot_f1: float
    sentence_accuracy: float
    utterances: int
    gold_chunks: int
    predicted_chunks: int
    matched_chunks: int

    def to_text(self) -> str:
        lines = []
        for name, value in vars(self).items():
            lines.append(f"{name} = {value!r}")
        return "\n".join(lines) + "\n"


def compute_report(gold_intents: list, pred_intents: list,
                   gold_tag_seqs: list[list[str]], pred_tag_seqs: list[list[str]]) -> MetricsReport:
    precision, recall, f1, (n_gold, n_pred, n_match) = _f1_counts(gold_tag_seqs, pred_tag_seqs)
    return MetricsReport(
        intent_error_rate=intent_error_rate(gold_intents, pred_intents),
        slot_precision=precision,
        slot_recall=recall,
        slot_f1=f1,
        sentence_accuracy=sentence_accuracy(
            list(zip(gold_intents, gold_tag_seqs)), list(zip(pred_intents, pred_tag_seqs))),
        utterances=len(gold_intents),
        gold_chunks=n_gold,
        predicted_chunks=n_pred,
        matched_chunks=n_match,
    )
