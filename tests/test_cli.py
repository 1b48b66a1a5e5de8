import io
import json
import os
import shutil
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslu import autodiff as ad
from jointslu import cli
from jointslu import data as dat
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


@pytest.fixture(scope="module")
def clean_test_report(trained_dir, synth_dir):
    """The report of ``evaluate --split test`` on the clean corpus."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert run(corpus_argv("evaluate", trained_dir, synth_dir, None)) == 0
    return stdout.getvalue()


class TestSynth:
    def test_writes_three_files_per_split(self, synth_dir):
        for split in ("train", "valid", "test"):
            for name in ("seq.in", "seq.out", "label"):
                assert (synth_dir / split / name).is_file()

    def test_spec_file_echoes_purity(self, synth_dir):
        text = (synth_dir / "synth_spec.txt").read_text()
        assert "purity = 1.0" in text
        assert "seed = 3" in text

    def test_spec_file_text(self, synth_dir):
        assert (synth_dir / "synth_spec.txt").read_text() == (
            "n_intents = 5\nslot_types_per_intent = 3\nlexicon_size = 6\n"
            "filler_vocab_size = 30\nmin_len = 4\nmax_len = 9\ntrain_samples = 24\n"
            "dev_samples = 8\ntest_samples = 8\npurity = 1.0\nseed = 3\n")

    def test_seeded_rerun_is_byte_identical(self, synth_dir, tmp_path):
        assert run(["synth", "--out", str(tmp_path), "--train-samples", "24",
                    "--dev-samples", "8", "--test-samples", "8", "--seed", "3"]) == 0
        for split in ("train", "valid", "test"):
            for name in ("seq.in", "seq.out", "label"):
                assert (synth_dir / split / name).read_bytes() == \
                       (tmp_path / split / name).read_bytes()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_dev_split_rejected_before_output(self, tmp_path, capsys, count):
        out = tmp_path / "synth"
        assert run(["synth", "--out", str(out), "--dev-samples", count]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dev_samples and test_samples must be >= 1")
        assert err.count("\n") == 1
        assert not out.exists()


    def test_max_len_below_a_span_layout_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert run(["synth", "--out", str(out), "--max-len", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_len must be >= 5") and err.count("\n") == 1
        assert not out.exists()


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

    def test_resolved_config_reruns_the_same_training(self, trained_dir, tmp_path):
        out, _ = trained_dir
        assert run(["train", "--config", str(out / "resolved_config.txt"),
                    "--out", str(tmp_path)]) == 0
        for name in ("history.txt", "dev_metrics.txt", "test_metrics.txt"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_dev_metrics_are_the_best_epochs_report(self, trained_dir, synth_dir, tmp_path):
        # train reloads the best epoch's weights, so dev_metrics.txt is that
        # epoch's block of history.txt, and evaluating the checkpoint agrees
        out, _ = trained_dir
        blocks = [b.split("\n", 2) for b in (out / "history.txt").read_text().split("\n\n") if b]
        assert [b[0] for b in blocks] == [f"epoch = {i + 1}" for i in range(len(blocks))]
        reports = [b[2] + "\n" for b in blocks]
        accuracy = [float(r.split("sentence_accuracy = ")[1].split("\n")[0]) for r in reports]
        best = accuracy.index(max(accuracy))
        # the fixture's run ends on an epoch whose report differs from the best one
        assert best < len(reports) - 1 and reports[best] != reports[-1]
        assert (out / "dev_metrics.txt").read_text() == reports[best]
        report = tmp_path / "dev.txt"
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(synth_dir), "--split", "dev", "--out", str(report)]) == 0
        assert report.read_text() == reports[best]

    def test_resolved_config_persisted(self, trained_dir):
        out, _ = trained_dir
        text = (out / "resolved_config.txt").read_text()
        assert "hidden = 8" in text
        assert "lambda = 0.5" in text

    def test_resolved_config_text(self, trained_dir, synth_dir):
        out, _ = trained_dir
        assert (out / "resolved_config.txt").read_text() == (
            "learning_rate = 0.001\nl2_decay = 1e-06\nbatch_size = 8\n"
            "teacher_forcing_rate = 0.9\ndropout_rate = 0.4\nlambda = 0.5\nmax_epochs = 2\n"
            "patience = 2\nseed = 5\nno_slot2intent = False\nno_intent2slot = False\n"
            "no_gaussian_attention = False\nno_cooperation = False\nemb_dim = 8\n"
            f"hidden = 8\ndata = {synth_dir}\nout = {out}\n")

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

    @pytest.mark.parametrize("flag,value", [("--emb-dim", "0"), ("--hidden", "-1")])
    def test_nonpositive_dims_rejected_before_output(self, synth_dir, tmp_path, capsys,
                                                     flag, value):
        out = tmp_path / "out"
        assert run(["train", "--data", str(synth_dir), "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: emb_dim and hidden must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--learning-rate", "nan", "learning_rate must be finite and positive"),
        ("--learning-rate", "inf", "learning_rate must be finite and positive"),
        ("--learning-rate", "0", "learning_rate must be finite and positive"),
        ("--l2-decay", "nan", "l2_decay must be finite and >= 0"),
        ("--l2-decay", "inf", "l2_decay must be finite and >= 0"),
        ("--l2-decay", "-5", "l2_decay must be finite and >= 0"),
    ])
    def test_bad_optimizer_setting_rejected_before_output(self, synth_dir, tmp_path, capsys,
                                                          flag, value, message):
        out = tmp_path / "out"
        assert run(["train", "--data", str(synth_dir), "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("split,dirname", [("dev", "valid"), ("test", "test")])
    def test_empty_dev_or_test_split_rejected_before_output(self, synth_dir, tmp_path, capsys,
                                                            split, dirname):
        data = tmp_path / "corpus"
        shutil.copytree(synth_dir, data)
        for name in ("seq.in", "seq.out", "label"):
            (data / dirname / name).write_text("")
        out = tmp_path / "out"
        assert run(["train", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {data}: the {split} split is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_negative_seed_rejected_before_output(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        data = ["--data", str(synth_dir)] if command == "train" else []
        assert run([command, *data, "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("from_file", [False, True])
    def test_both_directions_disabled_rejected_before_output(self, synth_dir, tmp_path,
                                                             capsys, from_file):
        out = tmp_path / "out"
        switches = ["--no-slot2intent", "--no-intent2slot"]
        if from_file:
            (tmp_path / "run.cfg").write_text("no_slot2intent = True\nno_intent2slot = True\n")
            switches = ["--config", str(tmp_path / "run.cfg")]
        assert run(["train", "--data", str(synth_dir), "--out", str(out), *switches]) == 1
        assert capsys.readouterr().err == "error: cannot disable both interaction directions\n"
        assert not out.exists()

    def test_missing_data_dir_fails(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "out")]) == 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["gradcheck", "--epsilon", "-1e-3"],
         "jointslu gradcheck: argument --epsilon: expected one argument"),
        (["train", "--hidden", "abc"], "jointslu train: argument --hidden: invalid int value"),
        (["nonsense"], "jointslu: argument command: invalid choice: 'nonsense'"),
        (["predict", "--text", "w0"],
         "jointslu predict: the following arguments are required: --checkpoint"),
    ])
    def test_usage_error_is_one_error_line(self, capsys, argv, message):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["train", "--help"])
        assert exit_info.value.code == 0
        assert "--hidden" in capsys.readouterr().out


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


    @pytest.mark.parametrize("line,message", [
        ("hidden = 1.5", "hidden: invalid literal for int() with base 10: '1.5'"),
        ("lambda = half", "lambda: could not convert string to float: 'half'"),
        ("no_cooperation = maybe", "no_cooperation: expected a boolean, got 'maybe'"),
    ])
    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# header\n\n" + line + "\n")
        assert run(["train", "--config", str(cfg), "--data", str(tmp_path / "none"),
                    "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"

    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"hidden = 8\nemb_dim = \xff\n")
        assert run(["train", "--config", str(cfg), "--data", str(tmp_path / "none"),
                    "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: not valid UTF-8\n"


CONFIG_VALUES = ["1", "0", "-1", "0.5", "1.5", "1e400", "nan", "inf", "1_0", "true", "no", ""]
CONFIG_LINES = st.one_of(
    st.text(max_size=40),
    st.builds("{}{}{}".format,
              st.one_of(st.sampled_from(sorted(cli._KEY_TO_FIELD)), st.text(max_size=8)),
              st.sampled_from(["=", " = ", "==", " "]),
              st.one_of(st.sampled_from(CONFIG_VALUES), st.text(max_size=12))),
)
CONFIG_FILES = st.one_of(
    st.lists(CONFIG_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=60),
)


class TestConfigFuzz:
    @given(raw=CONFIG_FILES)
    @settings(max_examples=150, deadline=None)
    def test_garbage_config_fails_cleanly(self, tmp_path_factory, raw):
        # the corpus directory is missing, so no config file can start a run
        d = tmp_path_factory.mktemp("config")
        cfg, out = d / "run.cfg", d / "out"
        cfg.write_bytes(raw)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run(["train", "--config", str(cfg), "--data", str(d / "missing"),
                        "--out", str(out)])
        err = stderr.getvalue()
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert stdout.getvalue() == ""
        assert not out.exists()


def corpus_argv(command, trained_dir, data, out):
    """A tiny one-epoch ``train`` on ``data``, or ``evaluate`` of its test split."""
    if command == "train":
        return ["train", "--data", str(data), "--out", str(out), "--emb-dim", "4",
                "--hidden", "4", "--max-epochs", "1", "--batch-size", "8", "--seed", "1"]
    return ["evaluate", "--checkpoint", str(trained_dir[0] / "checkpoint.bin"),
            "--data", str(data), "--split", "test"]


def text_lines(raw):
    """The lines of a corpus file: universal newlines, split at newlines only."""
    lines = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


class TestCorpusInput:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_invalid_utf8_names_file_and_line(self, trained_dir, synth_dir, tmp_path, capsys,
                                              command):
        data = tmp_path / "corpus"
        shutil.copytree(synth_dir, data)
        path = data / "test" / "label"
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        assert run(corpus_argv(command, trained_dir, data, tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {path}:3: not valid UTF-8\n"

    def test_empty_train_split_names_the_corpus(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "corpus"
        shutil.copytree(synth_dir, data)
        for name in ("seq.in", "seq.out", "label"):
            (data / "train" / name).write_text("")
        assert run(corpus_argv("train", None, data, tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {data}: the train split is empty\n"


CORPUS_LINES = st.one_of(
    st.text(max_size=24),
    st.lists(st.sampled_from(["O", "B-x", "I-x", "B-", "x", "play", "\u2028", "\x85", "\x0c",
                              "\r"]), max_size=5).map(" ".join),
)
CORPUS_FILES = st.one_of(
    st.lists(CORPUS_LINES, max_size=4).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=40),
)


class TestCorpusFuzz:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @given(split=st.sampled_from(["train", "valid", "test"]),
           files=st.tuples(CORPUS_FILES, CORPUS_FILES, CORPUS_FILES))
    @settings(max_examples=150, deadline=None)
    def test_garbage_corpus_fails_cleanly(self, trained_dir, synth_dir, clean_test_report,
                                          tmp_path_factory, command, split, files):
        d = tmp_path_factory.mktemp("corpus")
        data = d / "data"
        shutil.copytree(synth_dir, data)
        for name, raw in zip(("seq.in", "seq.out", "label"), files):
            (data / split / name).write_bytes(raw)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run(corpus_argv(command, trained_dir, data, d / "out"))
        err = stderr.getvalue()
        if command == "evaluate" and split != "test":
            # evaluate reads only the split it scores
            assert (code, err, stdout.getvalue()) == (0, "", clean_test_report)
            return
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            # every corpus error names the corpus, an unknown label included
            assert str(data) in err, err
            return
        # the garbage was a well-formed split: one sample per line of each file
        assert code == 0 and err == ""
        samples = dat.load_split(data, split)
        assert [s.intent for s in samples] == [line.strip() for line in text_lines(files[2])]


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

    @pytest.mark.parametrize("damage", ["only test", "one-line train label"])
    def test_reads_only_the_split_it_scores(self, trained_dir, synth_dir, clean_test_report,
                                            tmp_path, capsys, damage):
        data = tmp_path / "corpus"
        if damage == "only test":
            shutil.copytree(synth_dir / "test", data / "test")
        else:
            shutil.copytree(synth_dir, data)
            (data / "train" / "label").write_text("intent0\n")
        assert run(corpus_argv("evaluate", trained_dir, data, None)) == 0
        assert capsys.readouterr().out == clean_test_report

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_batch_size_below_one_fails(self, trained_dir, synth_dir, capsys, size):
        out, _ = trained_dir
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(synth_dir), "--batch-size", size]) == 1
        assert capsys.readouterr().err == f"error: batch size must be >= 1, got {size}\n"

    @pytest.mark.parametrize("split,dirname", [("valid", "valid"), ("test", "test")])
    def test_empty_split_names_the_corpus(self, trained_dir, synth_dir, tmp_path, capsys,
                                          split, dirname):
        out, _ = trained_dir
        data = tmp_path / "corpus"
        shutil.copytree(synth_dir, data)
        for name in ("seq.in", "seq.out", "label"):
            (data / dirname / name).write_text("")
        report = tmp_path / "report.txt"
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(data), "--split", split, "--out", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {data}: the {split} split is empty\n"
        assert not report.exists()

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
        assert capsys.readouterr().err == (f"error: {other / 'test' / 'seq.out'}:1: slot tag "
                                           f"'B-galaxy' is not in the checkpoint's vocabulary\n")

    @pytest.mark.parametrize("split,dirname", [("valid", "valid"), ("dev", "valid"),
                                               ("test", "test")])
    @pytest.mark.parametrize("kind", ["slot tag", "intent"])
    def test_unknown_label_names_file_and_line(self, trained_dir, synth_dir, tmp_path,
                                               capsys, split, dirname, kind):
        out, _ = trained_dir
        data = tmp_path / "corpus"
        shutil.copytree(synth_dir, data)
        name, label = ("seq.out", "B-zzz") if kind == "slot tag" else ("label", "zzz")
        path = data / dirname / name
        lines = path.read_text().split("\n")
        if kind == "slot tag":
            lines[2] = " ".join(lines[2].split()[:-1] + [label])
        else:
            lines[2] = label
        path.write_text("\n".join(lines))
        report = tmp_path / "report.txt"
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(data), "--split", split, "--out", str(report)]) == 1
        assert capsys.readouterr().err == (f"error: {path}:3: {kind} '{label}' is not in "
                                           f"the checkpoint's vocabulary\n")
        assert not report.exists()


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
        assert str(bad) in err

    def test_header_disabling_both_directions_names_the_file(self, trained_dir, tmp_path,
                                                             capsys):
        data = (trained_dir[0] / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16:16 + header_len])
        header["flags"].update(slot2intent=False, intent2slot=False)
        raw = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len:])
        assert run(["predict", "--checkpoint", str(bad), "--text", "w0 w1"]) == 1
        assert capsys.readouterr().err == (f"error: {bad}: corrupt checkpoint header: flags "
                                           f"disable both interaction directions\n")

    @pytest.mark.parametrize("kind,i,j,why", [
        ("words", 3, 2, "vocab words repeats an entry"),
        ("slot_tags", 1, 0, "vocab slot_tags repeats an entry"),
        ("intents", 1, 0, "vocab intents repeats an entry"),
        ("words", 0, None, "words 0 and 1 must be <pad> and <unk>, got ['zzz', '<unk>']"),
    ], ids=["repeated word", "repeated slot tag", "repeated intent", "no pad word"])
    def test_header_vocabulary_names_the_file(self, trained_dir, tmp_path, capsys,
                                              kind, i, j, why):
        data = (trained_dir[0] / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16:16 + header_len])
        entries = header["vocab"][kind]
        entries[i] = "zzz" if j is None else entries[j]
        raw = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len:])
        assert run(["predict", "--checkpoint", str(bad), "--text", "w0 w1"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: corrupt checkpoint header: {why}\n"

    def test_header_word_not_case_folded(self, trained_dir, tmp_path, capsys):
        # a lookup case-folds its token, so 'W8' could never be found
        data = (trained_dir[0] / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        at = data.index(b'"w8"', 16, 16 + header_len) + 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data[:at] + b"W" + data[at + 1:])
        assert run(["predict", "--checkpoint", str(bad), "--text", "w8 w8"]) == 1
        assert capsys.readouterr().err == (f"error: {bad}: corrupt checkpoint header: "
                                           f"vocab word 'W8' is not case-folded\n")

    def test_empty_input_fails(self, trained_dir, capsys):
        out, _ = trained_dir
        assert run(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                    "--text", "   "]) == 1
        assert "empty" in capsys.readouterr().err


def tensor_records(data: bytes) -> list[tuple[int, bytes, tuple[int, ...]]]:
    """(offset, name, shape) of every tensor record of a checkpoint file; a
    record is a name length, the name, a rank, the shape and the values."""
    (header_len,) = struct.unpack("<Q", data[8:16])
    pos = 16 + header_len
    (n_items,) = struct.unpack("<I", data[pos:pos + 4])
    pos += 4
    records = []
    for _ in range(n_items):
        (name_len,) = struct.unpack("<H", data[pos:pos + 2])
        name = data[pos + 2:pos + 2 + name_len]
        ndim = data[pos + 2 + name_len]
        shape = struct.unpack(f"<{ndim}Q", data[pos + 3 + name_len:pos + 3 + name_len + 8 * ndim])
        records.append((pos, name, shape))
        pos += 3 + name_len + 8 * ndim + 8 * int(np.prod(shape))
    assert pos == len(data)
    return records


def structural_offsets(data: bytes) -> list[int]:
    """Byte offsets of the magic, every length field and every tensor name of
    a checkpoint file: a change to any of them must be detected."""
    (header_len,) = struct.unpack("<Q", data[8:16])
    offsets = [*range(16), *range(16 + header_len, 20 + header_len)]
    for pos, name, shape in tensor_records(data):
        offsets += range(pos, pos + 3 + len(name) + 8 * len(shape))
    return offsets


class TestCorruptCheckpoint:
    @staticmethod
    def predict(trained_dir, data: bytes) -> tuple[int, str]:
        path = trained_dir[0] / "corrupt.bin"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["predict", "--checkpoint", str(path), "--text", "w0 w1"])
        err = err.getvalue()
        if code == 0:
            assert err == "" and out.getvalue().startswith("tags = ")
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        return code, err

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_checkpoint_fails_cleanly(self, trained_dir, data):
        good = (trained_dir[0] / "checkpoint.bin").read_bytes()
        cut = data.draw(st.integers(0, len(good) - 1))
        code, err = self.predict(trained_dir, good[:cut])
        assert code == 1 and "corrupt.bin" in err

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipped_length_or_name_fails_cleanly(self, trained_dir, data):
        good = (trained_dir[0] / "checkpoint.bin").read_bytes()
        pos = data.draw(st.sampled_from(structural_offsets(good)))
        flipped = bytearray(good)
        flipped[pos] ^= data.draw(st.integers(1, 255))
        assert self.predict(trained_dir, bytes(flipped))[0] == 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_renamed_tensor_or_rewritten_shape_fails_cleanly(self, trained_dir, data):
        good = (trained_dir[0] / "checkpoint.bin").read_bytes()
        records = tensor_records(good)
        pos, name, shape = data.draw(st.sampled_from(records))
        if data.draw(st.booleans(), label="rename"):
            new_name = data.draw(st.one_of(
                st.sampled_from([n for _, n, _ in records]),
                st.text(max_size=40).map(lambda t: t.encode("utf-8"))).filter(
                    lambda n: n != name))
            edited = (good[:pos] + struct.pack("<H", len(new_name)) + new_name
                      + good[pos + 2 + len(name):])
        else:
            new_shape = data.draw(st.one_of(
                st.just(shape[::-1]),
                st.lists(st.integers(0, 2 ** 64 - 1), min_size=len(shape),
                         max_size=len(shape)).map(tuple)).filter(lambda s: s != shape))
            start = pos + 3 + len(name)
            edited = (good[:start] + struct.pack(f"<{len(shape)}Q", *new_shape)
                      + good[start + 8 * len(shape):])
        code, err = self.predict(trained_dir, edited)
        assert code == 1 and "corrupt.bin" in err

    def test_misread_shape_with_a_huge_byte_count_names_the_file(self, trained_dir):
        # (32, 8) rewritten as (1, 1062): the reader then takes later bytes for
        # a rank and a shape whose byte count has more than 4300 digits
        good = (trained_dir[0] / "checkpoint.bin").read_bytes()
        pos, name, shape = next(r for r in tensor_records(good)
                                if r[1] == b"decoder.intent_rational.w_h")
        assert shape == (32, 8)
        start = pos + 3 + len(name)
        edited = good[:start] + struct.pack("<2Q", 1, 1062) + good[start + 16:]
        code, err = self.predict(trained_dir, edited)
        assert code == 1 and "corrupt.bin" in err and "more than" in err

    @pytest.mark.parametrize("dim", ["hidden", "emb_dim"])
    def test_header_dims_that_disagree_with_the_tensors_fail_cleanly(self, trained_dir, dim):
        # built from the header's dims, the model would need terabytes
        good = (trained_dir[0] / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", good[8:16])
        header = json.loads(good[16:16 + header_len])
        header["dims"][dim] = 10 ** 9
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        edited = good[:8] + struct.pack("<Q", len(raw)) + raw + good[16 + header_len:]
        code, err = self.predict(trained_dir, edited)
        assert code == 1 and "corrupt.bin" in err and "does not fit its model" in err

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_flipped_byte_never_raises(self, trained_dir, data):
        # a flip in the tensor values or in vocabulary text can load cleanly
        good = (trained_dir[0] / "checkpoint.bin").read_bytes()
        flipped = bytearray(good)
        flipped[data.draw(st.integers(0, len(good) - 1))] ^= data.draw(st.integers(1, 255))
        with np.errstate(all="ignore"):
            self.predict(trained_dir, bytes(flipped))


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

    @pytest.mark.parametrize("flag,value", [
        ("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "0"), ("--epsilon", "-1e-3"),
        ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-1"),
    ])
    def test_bad_epsilon_or_threshold_rejected(self, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(cli, "run_gradcheck", lambda *a, **k: pytest.fail("ran"))
        assert run(["gradcheck", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be finite")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_nan_error_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_gradcheck",
                            lambda flags, epsilon=1e-3, seed=7: {"head.slot": 1e-6,
                                                                 "head.intent": float("nan"),
                                                                 "coop.slot_gate.w1": 2e-6})
        assert run(["gradcheck"]) == 1
        assert "FAIL: worst error nan" in capsys.readouterr().out

    def test_deterministic_fixture(self):
        a, _ = cli._gradcheck_fixture()
        b, _ = cli._gradcheck_fixture()
        assert np.array_equal(a.token_ids, b.token_ids)
        assert a.token_ids.shape[0] == 2
        assert a.token_ids.shape[1] <= 5
