"""The benchmark's tracer wraps program functions by name and reads the
recorded tape; every name it wraps must still exist, and the tape must still
read the way it expects, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

from conftest import tiny_model

from jointslu import data as dat
from jointslu import training as tr
from jointslu.autodiff import Rng, Tape

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wrapped = load_tracer().WRAPPED
    assert wrapped
    for module_name, path, _layer in wrapped:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{module_name}.{path}: no attribute {attr!r}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path} is not callable"


def test_tape_stats_reads_a_training_tape(small_synth):
    corpus, vocab = small_synth
    batch = dat.pad_batch(corpus.train[:4], vocab)
    with Tape() as tape:
        result = tiny_model(vocab).forward(batch, training=True, tf_rate=0.9, tf_rng=Rng(0),
                                           dropout_rate=0.1, dropout_rng=Rng(1))
        tr.batch_loss(result, batch, 0.5)
    stats = load_tracer().tape_stats(tape)
    assert stats["tape_nodes"] == len(tape.nodes) > 0
    assert sum(stats["ops"].values()) == len(tape.nodes)
    assert stats["linear_calls"] == stats["ops"]["linear"] > 0
    assert stats["gemm_gflop"] > 0 and stats["tape_mb"] > 0
