import os
import re

import numpy as np
import pytest

from jointslu import data as dat
from jointslu.data import CorpusFormatError


def write_split(root, name, rows):
    d = os.path.join(root, name)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "seq.in"), "w", encoding="utf-8") as f:
        f.writelines(r[0] + "\n" for r in rows)
    with open(os.path.join(d, "seq.out"), "w", encoding="utf-8") as f:
        f.writelines(r[1] + "\n" for r in rows)
    with open(os.path.join(d, "label"), "w", encoding="utf-8") as f:
        f.writelines(r[2] + "\n" for r in rows)


GOOD_ROW = ("Book a restaurant on next fall for 5",
            "O O B-restaurant_type O B-timeRange I-timeRange O B-party_size_number",
            "BookRestaurant")


def write_minimal_corpus(root, train_rows=None):
    rows = train_rows or [GOOD_ROW]
    write_split(root, "train", rows)
    write_split(root, "valid", rows[:1])
    write_split(root, "test", rows[:1])


class TestLoadCorpus:
    def test_parses_annotated_utterance(self, tmp_path):
        write_minimal_corpus(tmp_path)
        corpus = dat.load_corpus(tmp_path)
        s = corpus.train[0]
        assert s.tokens == GOOD_ROW[0].split()
        assert s.slot_tags == GOOD_ROW[1].split()
        assert s.intent == "BookRestaurant"
        assert len(s.tokens) == len(s.slot_tags)

    def test_malformed_tag(self, tmp_path):
        write_minimal_corpus(tmp_path, [("a b", "O X-foo", "greet")])
        with pytest.raises(CorpusFormatError, match="X-foo"):
            dat.load_corpus(tmp_path)

    def test_line_count_mismatch_names_label(self, tmp_path):
        write_minimal_corpus(tmp_path)
        with open(tmp_path / "train" / "label", "a") as f:
            f.write("ExtraIntent\n")
        with pytest.raises(CorpusFormatError, match="label"):
            dat.load_corpus(tmp_path)

    def test_token_tag_length_mismatch_reports_line(self, tmp_path):
        write_minimal_corpus(tmp_path, [("a b c", "O O", "greet")])
        with pytest.raises(CorpusFormatError, match="seq.out:1"):
            dat.load_corpus(tmp_path)

    def test_empty_utterance_rejected(self, tmp_path):
        write_minimal_corpus(tmp_path, [("", "", "greet")])
        with pytest.raises(CorpusFormatError, match="empty"):
            dat.load_corpus(tmp_path)

    def test_unicode_line_boundaries_stay_inside_a_line(self, tmp_path):
        # str.splitlines would also split at U+2028, and pair later lines
        # with the wrong tags and labels
        rows = [("play a\u2028song", "O O\u2028B-track", "music"),
                ("wake me up", "O O O", "alarm"),
                ("find red shoes", "O B-color B-item", "shop\u2028ping"),
                ("stop", "O", "halt")]
        write_minimal_corpus(tmp_path, rows)
        train = dat.load_corpus(tmp_path).train
        assert [(s.tokens, s.slot_tags, s.intent) for s in train] == [
            (r[0].split(), r[1].split(), r[2]) for r in rows]

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        write_minimal_corpus(tmp_path, [GOOD_ROW, ("a b", "O O", "greet")])
        path = tmp_path / "train" / "seq.out"
        path.write_bytes(path.read_bytes().replace(b"O O\n", b"O \xff\n"))
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:2: not valid UTF-8$"):
            dat.load_corpus(tmp_path)

    def test_missing_split(self, tmp_path):
        write_split(tmp_path, "train", [GOOD_ROW])
        with pytest.raises(CorpusFormatError, match="valid"):
            dat.load_corpus(tmp_path)


class TestLoadSplit:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        write_split(tmp_path, "train", [GOOD_ROW, ("a b", "O O", "greet")])
        write_split(tmp_path, "valid", [("c", "O", "x")])
        write_split(tmp_path, "test", [("d e", "O B-t", "y")])
        return tmp_path

    @pytest.mark.parametrize("split,field", [("train", "train"), ("dev", "dev"),
                                             ("valid", "dev"), ("test", "test")])
    def test_is_the_corpus_split(self, corpus_dir, split, field):
        assert dat.load_split(corpus_dir, split) == getattr(dat.load_corpus(corpus_dir), field)

    def test_unknown_split(self, corpus_dir):
        with pytest.raises(ValueError, match="unknown split 'eval'"):
            dat.load_split(corpus_dir, "eval")

    def test_reads_only_its_own_directory(self, tmp_path):
        write_split(tmp_path, "test", [GOOD_ROW])
        assert len(dat.load_split(tmp_path, "test")) == 1
        with pytest.raises(CorpusFormatError,
                           match=f"^missing split directory {re.escape(str(tmp_path / 'train'))}$"):
            dat.load_split(tmp_path, "train")

    def test_empty_split(self, corpus_dir):
        write_split(corpus_dir, "valid", [])
        with pytest.raises(CorpusFormatError,
                           match=f"^{re.escape(str(corpus_dir))}: the valid split is empty$"):
            dat.load_split(corpus_dir, "valid")
        with pytest.raises(CorpusFormatError, match="the dev split is empty$"):
            dat.load_corpus(corpus_dir)


class TestBuildVocabs:
    def test_reserved_ids(self, tmp_path):
        write_minimal_corpus(tmp_path)
        vocab = dat.build_vocabs(dat.load_corpus(tmp_path))
        assert vocab.words[dat.PAD_ID] == dat.PAD_TOKEN
        assert vocab.words[dat.UNK_ID] == dat.UNK_TOKEN

    def test_words_casefolded_train_only(self, tmp_path):
        write_split(tmp_path, "train", [("Hello World", "O O", "greet")])
        write_split(tmp_path, "valid", [("unseen word", "O O", "greet")])
        write_split(tmp_path, "test", [("hello there", "O O", "bye")])
        vocab = dat.build_vocabs(dat.load_corpus(tmp_path))
        assert vocab.words[2:] == ["hello", "world"]
        assert vocab.word_id("HELLO") == 2
        assert vocab.word_id("unseen") == dat.UNK_ID

    def test_labels_closed_over_all_splits(self, tmp_path):
        write_split(tmp_path, "train", [("a", "O", "x")])
        write_split(tmp_path, "valid", [("b", "B-t", "y")])
        write_split(tmp_path, "test", [("c", "O", "z")])
        vocab = dat.build_vocabs(dat.load_corpus(tmp_path))
        assert vocab.slot_tags == ["O", "B-t"]
        assert vocab.intents == ["x", "y", "z"]

    def test_deterministic(self, tmp_path):
        write_minimal_corpus(tmp_path)
        corpus = dat.load_corpus(tmp_path)
        a, b = dat.build_vocabs(corpus), dat.build_vocabs(corpus)
        assert a.words == b.words and a.slot_tags == b.slot_tags and a.intents == b.intents

    def test_id_maps_are_derived_not_passed(self):
        with pytest.raises(TypeError, match="word_to_id"):
            dat.Vocab(words=[dat.PAD_TOKEN, dat.UNK_TOKEN], slot_tags=["O"], intents=["x"],
                      word_to_id={})

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            dat.build_vocabs(dat.Corpus(train=[], dev=[], test=[]))


class TestPadBatch:
    def vocab(self):
        samples = [dat.Sample(["a", "b", "c", "d", "e"], ["O"] * 5, "x")]
        return dat.build_vocabs(dat.Corpus(train=samples, dev=[], test=[]))

    def test_pads_to_batch_max(self):
        vocab = self.vocab()
        batch = dat.pad_batch([
            dat.Sample(["a", "b", "c"], ["O", "O", "O"], "x"),
            dat.Sample(["a", "b", "c", "d", "e"], ["O"] * 5, "x"),
        ], vocab)
        assert batch.token_ids.shape[1] == 5
        assert batch.mask[0].tolist() == [True] * 3 + [False] * 2
        assert (batch.token_ids[0, 3:] == dat.PAD_ID).all()
        assert (batch.slot_ids[0, 3:] == dat.PAD_SLOT_ID).all()

    def test_single_sample_no_padding(self):
        vocab = self.vocab()
        batch = dat.pad_batch([dat.Sample(["a", "b"], ["O", "O"], "x")], vocab)
        assert batch.token_ids.shape[1] == 2
        assert batch.mask.all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dat.pad_batch([], self.vocab())

    @pytest.mark.parametrize("sample,message", [
        (dat.Sample(["a"], ["B-galaxy"], "x"),
         "vocabulary mismatch: slot tag 'B-galaxy' is not in the vocabulary (1 slot tags)"),
        (dat.Sample(["a"], ["O"], "warp"),
         "vocabulary mismatch: intent 'warp' is not in the vocabulary (1 intents)"),
    ])
    def test_unknown_label_rejected(self, sample, message):
        with pytest.raises(ValueError) as info:
            dat.pad_batch([sample], self.vocab())
        assert str(info.value) == message


class TestSyntheticGenerator:
    def test_deterministic_and_roundtrip(self, tmp_path):
        spec = dat.SynthSpec(train_samples=40, dev_samples=10, test_samples=10, seed=5)
        a = dat.generate_synthetic(spec)
        b = dat.generate_synthetic(spec)
        dat.write_corpus(a, tmp_path / "a")
        dat.write_corpus(b, tmp_path / "b")
        for split in ("train", "valid", "test"):
            for name in ("seq.in", "seq.out", "label"):
                pa = (tmp_path / "a" / split / name).read_bytes()
                pb = (tmp_path / "b" / split / name).read_bytes()
                assert pa == pb
        # load -> serialize round trip is byte-identical
        reloaded = dat.load_corpus(tmp_path / "a")
        dat.write_corpus(reloaded, tmp_path / "c")
        for split in ("train", "valid", "test"):
            for name in ("seq.in", "seq.out", "label"):
                assert (tmp_path / "a" / split / name).read_bytes() == \
                       (tmp_path / "c" / split / name).read_bytes()

    @pytest.mark.parametrize("split,count", [("dev", 0), ("dev", -3), ("test", 0)])
    def test_empty_dev_or_test_split_rejected(self, split, count):
        with pytest.raises(ValueError, match=f"{split}_samples"):
            dat.SynthSpec(**{f"{split}_samples": count}).validate()

    def test_purity_one_tokens_unique_to_intent(self):
        spec = dat.SynthSpec(train_samples=300, dev_samples=50, test_samples=50,
                             purity=1.0, seed=6)
        corpus = dat.generate_synthetic(spec)
        token_intents: dict[str, set] = {}
        for split in ("train", "dev", "test"):
            for s in corpus.split(split):
                for tok, tag in zip(s.tokens, s.slot_tags):
                    if tag != "O":
                        token_intents.setdefault(tok, set()).add(s.intent)
        assert token_intents
        assert all(len(v) == 1 for v in token_intents.values())

    def test_low_purity_mixes_lexicons(self):
        spec = dat.SynthSpec(train_samples=300, dev_samples=10, test_samples=10,
                             purity=0.2, seed=7)
        corpus = dat.generate_synthetic(spec)
        token_intents: dict[str, set] = {}
        for s in corpus.train:
            for tok, tag in zip(s.tokens, s.slot_tags):
                if tag != "O":
                    token_intents.setdefault(tok, set()).add(s.intent)
        assert any(len(v) > 1 for v in token_intents.values())

    def test_bio_sequences_well_formed(self):
        corpus = dat.generate_synthetic(
            dat.SynthSpec(train_samples=200, dev_samples=20, test_samples=20, seed=8))
        for split in ("train", "dev", "test"):
            for s in corpus.split(split):
                prev = "O"
                for tag in s.slot_tags:
                    if tag.startswith("I-"):
                        assert prev != "O" and prev[2:] == tag[2:], s.slot_tags
                    prev = tag

    def test_every_utterance_has_a_span(self):
        corpus = dat.generate_synthetic(
            dat.SynthSpec(train_samples=100, dev_samples=10, test_samples=10, seed=9))
        assert all(any(t != "O" for t in s.slot_tags) for s in corpus.train)

    @pytest.mark.parametrize("min_len, max_len", [(4, 9), (5, 5), (7, 12)])
    def test_lengths_respect_range(self, min_len, max_len):
        spec = dat.SynthSpec(train_samples=200, dev_samples=10, test_samples=10,
                             min_len=min_len, max_len=max_len, seed=10)
        corpus = dat.generate_synthetic(spec)
        lens = [len(s.tokens) for s in corpus.train]
        assert min(lens) >= min_len
        assert max(lens) <= max_len

    def test_majority_lexicon_classifier_is_perfect_at_purity_one(self):
        spec = dat.SynthSpec(purity=1.0, train_samples=500, dev_samples=50,
                             test_samples=50, seed=11)
        corpus = dat.generate_synthetic(spec)
        token_to_intent = {}
        for i in range(spec.n_intents):
            for j in range(spec.slot_types_per_intent):
                for tok in dat.slot_lexicon(i, j, spec.lexicon_size):
                    token_to_intent[tok] = f"intent{i}"
        correct = 0
        for s in corpus.train:
            votes: dict[str, int] = {}
            for tok in s.tokens:
                if tok in token_to_intent:
                    votes[token_to_intent[tok]] = votes.get(token_to_intent[tok], 0) + 1
            assert votes, "utterance without lexicon hits"
            winner = max(sorted(votes), key=votes.get)
            correct += winner == s.intent
        assert correct == len(corpus.train)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            dat.generate_synthetic(dat.SynthSpec(purity=1.5))
        with pytest.raises(ValueError, match="max_len must be >= min_len"):
            dat.generate_synthetic(dat.SynthSpec(max_len=2, min_len=4))
        # two 2-token spans and the filler between them need 5 tokens
        with pytest.raises(ValueError, match="max_len must be >= 5"):
            dat.generate_synthetic(dat.SynthSpec(max_len=4))
