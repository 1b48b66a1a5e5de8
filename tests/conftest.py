import numpy as np
import pytest

from jointslu import autodiff as ad
from jointslu import data as dat
from jointslu.autodiff import Rng, Tape
from jointslu.model import AblationFlags, ModelDims, build_model

OVERFIT_SAMPLES = [
    dat.Sample(["book", "a", "table", "for", "two"],
               ["O", "O", "B-place", "O", "B-count"], "reserve"),
    dat.Sample(["play", "some", "loud", "jazz"],
               ["O", "O", "O", "B-genre"], "music"),
    dat.Sample(["what", "is", "the", "weather", "in", "oslo"],
               ["O", "O", "O", "O", "O", "B-city"], "weather"),
    dat.Sample(["add", "milk", "to", "my", "list"],
               ["O", "B-item", "O", "O", "O"], "todo"),
]


def sum_all(x: ad.Tensor) -> ad.Tensor:
    """The sum of every entry, as a one-element tensor recorded on the tape: a
    test-only reduction that turns any output into a scalar loss."""
    shape = x.values.shape

    def bk(g):
        return (np.full(shape, g.reshape(-1)[0]),)

    return ad._record("sum_all", np.array([x.values.sum()]), (x,), bk)


def grads_of(loss_fn, params):
    """The loss and a copy of each parameter's gradient after one backward."""
    for q in params:
        q.zero_grad()
    with Tape():
        loss = loss_fn()
        ad.backward(loss)
    return loss.item(), [q.grad.copy() for q in params]


def assert_close(a, b):
    assert a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= 1e-12


def overfit_corpus() -> dat.Corpus:
    return dat.Corpus(train=list(OVERFIT_SAMPLES), dev=list(OVERFIT_SAMPLES),
                      test=list(OVERFIT_SAMPLES))


def tiny_model(vocab: dat.Vocab, emb_dim=10, hidden=12, seed=11,
               flags: AblationFlags | None = None):
    dims = ModelDims(vocab_size=vocab.n_words, emb_dim=emb_dim, hidden=hidden,
                     n_slots=vocab.n_slots, n_intents=vocab.n_intents)
    return build_model(dims, flags or AblationFlags(), Rng(seed))


@pytest.fixture
def tiny_corpus():
    corpus = overfit_corpus()
    vocab = dat.build_vocabs(corpus)
    return corpus, vocab


@pytest.fixture
def small_synth():
    corpus = dat.generate_synthetic(
        dat.SynthSpec(train_samples=32, dev_samples=8, test_samples=8, seed=21))
    vocab = dat.build_vocabs(corpus)
    return corpus, vocab
