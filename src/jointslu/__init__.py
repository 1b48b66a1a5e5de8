"""Joint intent detection and slot filling, built on a small autodiff tape."""

from .autodiff import Rng, Tape, Tensor, backward, grad_check
from .data import Corpus, Sample, SynthSpec, UtteranceBatch, Vocab, build_vocabs, \
    generate_synthetic, load_corpus, pad_batch, write_corpus
from .metrics import MetricsReport, compute_report, extract_chunks, intent_error_rate, \
    sentence_accuracy, slot_f1
from .model import AblationFlags, JointModel, ModelDims, build_model
from .training import Adam, TrainConfig, TrainResult, derive_streams, epoch_batches, \
    evaluate_model, intent_loss, load_checkpoint, save_checkpoint, slot_loss, train, train_step

__version__ = "0.1.0"
