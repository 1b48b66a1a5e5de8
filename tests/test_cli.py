import os

import numpy as np
import pytest

from jointslu import autodiff as ad
from jointslu import cli
from jointslu import training as tr


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run(["synth", "--out", str(out), "--train-samples", "24",
                "--dev-samples", "8", "--test-samples", "8", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    args = ["train", "--data", str(synth_dir), "--out", str(out),
            "--emb-dim", "8", "--hidden", "8", "--max-epochs", "2",
            "--patience", "2", "--batch-size", "8", "--seed", "5"]
    assert run(args) == 0
    return out, args


class TestSynth:
    def test_writes_three_files_per_split(self, synth_dir):
        for split in ("train", "valid", "test"):
            for name in ("seq.in", "seq.out", "label"):
                assert (synth_dir / split / name).is_file()

    def test_spec_file_echoes_purity(self, synth_dir):
        text = (synth_dir / "synth_spec.txt").read_text()
        assert "purity = 1.0" in text
        assert "seed = 3" in text

    def test_seeded_rerun_is_byte_identical(self, synth_dir, tmp_path):
        assert run(["synth", "--out", str(tmp_path), "--train-samples", "24",
                    "--dev-samples", "8", "--test-samples", "8", "--seed", "3"]) == 0
        for split in ("train", "valid", "test"):
            for name in ("seq.in", "seq.out", "label"):
                assert (synth_dir / split / name).read_bytes() == \
                       (tmp_path / split / name).read_bytes()


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        out, _ = trained_dir
        for name in ("checkpoint.bin", "history.txt", "dev_metrics.txt",
                     "test_metrics.txt", "resolved_config.txt"):
            assert (out / name).is_file()

    def test_repeat_run_identical_metrics(self, trained_dir, tmp_path):
        out, args = trained_dir
        args = list(args)
        args[args.index("--out") + 1] = str(tmp_path)
        assert run(args) == 0
        for name in ("history.txt", "dev_metrics.txt", "test_metrics.txt"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_resolved_config_persisted(self, trained_dir):
        out, _ = trained_dir
        text = (out / "resolved_config.txt").read_text()
        assert "hidden = 8" in text
        assert "lambda = 0.5" in text

    def test_ablation_flag_prunes_checkpoint(self, synth_dir, tmp_path):
        assert run(["train", "--data", str(synth_dir), "--out", str(tmp_path),
                    "--emb-dim", "8", "--hidden", "8", "--max-epochs", "1",
                    "--batch-size", "8", "--seed", "5", "--no-intent2slot"]) == 0
        assert "no_intent2slot = True" in (tmp_path / "resolved_config.txt").read_text()
        ckpt = tr.load_checkpoint(str(tmp_path / "checkpoint.bin"))
        assert not any(n.startswith("decoder.slot_rational") for n in ckpt.tensors)

    def test_dropout_rate_one_rejected_before_output(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--data", str(synth_dir), "--out", str(out),
                    "--dropout-rate", "1.0"]) == 1
        assert "error: dropout_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_fails(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "out")]) == 1


class TestConfigFile:
    def test_file_and_cli_precedence(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden = 8\nemb_dim = 8\nmax_epochs = 1\nbatch_size = 8\n"
                       "lambda = 0.25\n# comment\n\npatience = 1\n")
        out = tmp_path / "out"
        assert run(["train", "--data", str(synth_dir), "--out", str(out),
                    "--config", str(cfg), "--max-epochs", "2", "--seed", "9"]) == 0
        text = (out / "resolved_config.txt").read_text()
        assert "max_epochs = 2" in text      # command line wins
        assert "lambda = 0.25" in text        # file wins over default
        assert "seed = 9" in text

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        with pytest.raises(ValueError, match="warp_speed"):
            cli.read_config_file(str(cfg))

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            cli.read_config_file(str(cfg))


class TestEvaluate:
    def test_report_to_stdout_and_file(self, trained_dir, synth_dir, tmp_path, capsys):
        out, _ = trained_dir
        report = tmp_path / "report.txt"
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(synth_dir), "--split", "dev",
                    "--out", str(report)]) == 0
        printed = capsys.readouterr().out
        assert report.read_text() == printed
        assert "sentence_accuracy = " in printed

    def test_repeat_runs_identical(self, trained_dir, synth_dir, tmp_path):
        out, _ = trained_dir
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        base = ["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                "--data", str(synth_dir), "--split", "test"]
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overfit_checkpoint_scores_one_on_train(self, tmp_path, capsys):
        corpus_dir = tmp_path / "four"
        from conftest import overfit_corpus
        from jointslu import data as dat
        dat.write_corpus(overfit_corpus(), corpus_dir)
        out = tmp_path / "out"
        assert run(["train", "--data", str(corpus_dir), "--out", str(out),
                    "--emb-dim", "12", "--hidden", "16", "--batch-size", "4",
                    "--learning-rate", "0.05", "--dropout-rate", "0",
                    "--teacher-forcing-rate", "0", "--l2-decay", "0",
                    "--max-epochs", "40", "--patience", "40", "--seed", "3"]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(corpus_dir), "--split", "train"]) == 0
        assert "sentence_accuracy = 1.0" in capsys.readouterr().out

    def test_vocabulary_mismatch_fails(self, trained_dir, tmp_path, capsys):
        out, _ = trained_dir
        other = tmp_path / "corpus"
        for split in ("train", "valid", "test"):
            d = other / split
            d.mkdir(parents=True)
            (d / "seq.in").write_text("hello\n")
            (d / "seq.out").write_text("B-galaxy\n")
            (d / "label").write_text("warp\n")
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(other), "--split", "test"]) == 1
        assert "mismatch" in capsys.readouterr().err


class TestPredict:
    def test_tag_count_matches_tokens(self, trained_dir, capsys):
        out, _ = trained_dir
        text = "w0 s0t0v1 w3 s0t1v2"
        assert run(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                    "--text", text]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        tags = lines[0].removeprefix("tags = ").split()
        assert len(tags) == len(text.split())
        assert lines[1].startswith("intent = intent")

    def test_unknown_words_still_predict(self, trained_dir, capsys):
        out, _ = trained_dir
        assert run(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                    "--text", "completely novel words"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines[0].removeprefix("tags = ").split()) == 3

    @pytest.mark.parametrize("edit,name", [
        (lambda params: params.pop("head.slot"), "head.slot"),
        (lambda params: params.setdefault("decoder.extra.w", ad.parameter(np.zeros(2))),
         "decoder.extra.w"),
    ])
    def test_checkpoint_with_wrong_tensor_names_fails(self, trained_dir, tmp_path, capsys,
                                                      edit, name):
        out, _ = trained_dir
        ckpt = tr.load_checkpoint(str(out / "checkpoint.bin"))
        model = ckpt.build_model()
        edit(model.params)
        bad = tmp_path / "bad.bin"
        tr.save_checkpoint(str(bad), model, ckpt.config, ckpt.vocab)
        assert run(["predict", "--checkpoint", str(bad), "--text", "w0 w1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    def test_empty_input_fails(self, trained_dir, capsys):
        out, _ = trained_dir
        assert run(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                    "--text", "   "]) == 1
        assert "empty" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_reporting_and_exit_codes(self, monkeypatch, capsys):
        recorded = {}

        def fake_run(flags, epsilon=1e-3, seed=7):
            recorded["flags"] = flags
            return {"encoder.fwd.w_x": 2e-6, "coop.slot_gate.w1": None}

        monkeypatch.setattr(cli, "run_gradcheck", fake_run)
        assert run(["gradcheck", "--no-cooperation"]) == 0
        out = capsys.readouterr().out
        assert "coop.slot_gate.w1: unused (zero grad)" in out
        assert "encoder.fwd.w_x: max relative error" in out
        assert recorded["flags"].cooperation is False

    def test_threshold_exceeded_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_gradcheck",
                            lambda flags, epsilon=1e-3, seed=7: {"head.slot": 0.5})
        assert run(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_deterministic_fixture(self):
        a, _ = cli._gradcheck_fixture()
        b, _ = cli._gradcheck_fixture()
        assert np.array_equal(a.token_ids, b.token_ids)
        assert a.token_ids.shape[0] == 2
        assert a.max_len <= 5
