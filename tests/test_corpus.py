"""Corpus loading, vocabulary, and BPE behaviour."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmt import corpus
from promptmt.corpus import (
    BpeModel,
    DataError,
    SentencePair,
    Vocab,
    bpe_decode_sequence,
    bpe_encode,
    bpe_encode_sequence,
    load_parallel,
    train_bpe,
    write_tokenized,
)


def test_load_parallel_pairs_lines(tmp_path):
    (tmp_path / "s.txt").write_text("a b\nc\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x y\nz\n", encoding="utf-8")
    pairs = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
    assert pairs == [
        SentencePair(source=("a", "b"), target=("x", "y"), id=0),
        SentencePair(source=("c",), target=("z",), id=1),
    ]


def test_load_parallel_rejects_length_mismatch(tmp_path):
    (tmp_path / "s.txt").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x\n", encoding="utf-8")
    with pytest.raises(DataError, match="2 lines"):
        load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")


def test_load_parallel_rejects_blank_line(tmp_path):
    (tmp_path / "s.txt").write_text("a\n\nb\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x\ny\nz\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")


def test_load_parallel_rejects_reserved_tokens(tmp_path):
    (tmp_path / "s.txt").write_text("a [Output] b\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"\[Output\]"):
        load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")


def test_parallel_round_trip(tmp_path):
    pairs = [
        SentencePair(("the", "cat"), ("le", "chat"), 0),
        SentencePair(("dog",), ("chien", "brun"), 1),
    ]
    write_tokenized([p.source for p in pairs], tmp_path / "s.txt")
    write_tokenized([p.target for p in pairs], tmp_path / "t.txt")
    assert load_parallel(tmp_path / "s.txt", tmp_path / "t.txt") == pairs


class TestVocab:
    def test_specials_get_lowest_ids(self):
        v = Vocab.build(["b", "a", "b"])
        assert v.token_of(0) == "<pad>"
        assert v.token_of(1) == "<unk>"
        assert v.token_of(8) == "[Output]"
        # b is more frequent than a, so it comes first after the specials
        assert v.id_of("b") == 9
        assert v.id_of("a") == 10

    def test_frequency_ties_break_lexicographically(self):
        v = Vocab.build(["z", "m", "a"])
        assert v.decode([9, 10, 11]) == ["a", "m", "z"]

    def test_unknown_maps_to_unk(self):
        v = Vocab.build(["a"])
        assert v.id_of("never-seen") == v.id_of("<unk>") == 1

    def test_rejects_missing_specials(self):
        with pytest.raises(DataError, match="reserved"):
            Vocab(["a", "b"])

    def test_rejects_duplicates(self):
        toks = list(corpus.SPECIAL_TOKENS) + ["a", "a"]
        with pytest.raises(DataError, match="duplicate"):
            Vocab(toks)

    def test_save_load_round_trip(self, tmp_path):
        v = Vocab.build(["cat", "sat", "cat"])
        v.save(tmp_path / "vocab.txt")
        w = Vocab.load(tmp_path / "vocab.txt")
        assert len(w) == len(v)
        assert all(w.token_of(i) == v.token_of(i) for i in range(len(v)))
        assert w.sha256() == v.sha256()

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=4), min_size=1))
    def test_encode_decode_inverse(self, tokens):
        v = Vocab.build(tokens)
        assert v.decode(v.encode(tokens)) == tokens


class TestTrainBpe:
    def test_single_merge_on_repeated_pair(self):
        model = train_bpe([["abab"]], num_merges=1)
        assert model.merges == (("a", "b"),)

    def test_marker_is_a_separate_symbol(self):
        # "aa aa": pair (a, a) occurs twice; (a, marker) also occurs twice.
        # The lexicographic tie-break picks (a, a) because "a" < the marker.
        model = train_bpe([["aa", "aa"]], num_merges=1)
        assert model.merges == (("a", "a"),)

    def test_zero_merges(self):
        model = train_bpe([["abc"]], num_merges=0)
        assert model.merges == ()

    def test_stops_when_no_pairs_remain(self):
        # single 1-char word: only pair is (a, marker); after merging it
        # nothing is left to merge
        model = train_bpe([["a"]], num_merges=10)
        assert model.merges == (("a", corpus.END_OF_WORD),)

    def test_first_merge_matches_hand_count(self):
        data = [["low", "lower", "low"], ["lowest"]]
        word_freq = Counter(tok for sent in data for tok in sent)
        pair_freq = Counter()
        for word, freq in word_freq.items():
            symbols = list(word) + [corpus.END_OF_WORD]
            for a, b in zip(symbols, symbols[1:]):
                pair_freq[(a, b)] += freq
        top = max(pair_freq.values())
        expected = min(p for p, c in pair_freq.items() if c == top)
        model = train_bpe(data, num_merges=1)
        assert model.merges[0] == expected

    def test_retraining_is_deterministic(self):
        rng = random.Random(5)
        data = [
            ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 6))) for _ in range(8)]
            for _ in range(30)
        ]
        a = train_bpe(data, num_merges=40)
        b = train_bpe(data, num_merges=40)
        assert a.merges == b.merges

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_bpe([], num_merges=5)


class TestBpeEncode:
    def test_full_merge_yields_single_marked_unit(self):
        model = BpeModel(merges=(("a", "b"), ("ab", corpus.END_OF_WORD)))
        assert bpe_encode(model, "ab") == ["ab" + corpus.END_OF_WORD]

    def test_partial_merge_marks_last_unit(self):
        model = BpeModel(merges=(("a", "b"),))
        assert bpe_encode(model, "abc") == ["ab", "c" + corpus.END_OF_WORD]

    def test_no_merges_splits_to_characters(self):
        model = BpeModel(merges=())
        assert bpe_encode(model, "cat") == ["c", "a", "t" + corpus.END_OF_WORD]

    def test_specials_pass_through(self):
        model = BpeModel(merges=())
        assert bpe_encode(model, "[Term]") == ["[Term]"]
        assert bpe_encode(model, "<bos>") == ["<bos>"]

    def test_merges_apply_in_order(self):
        # (b, c) first consumes the b, so a later (a, b) can never fire
        model = BpeModel(merges=(("b", "c"), ("a", "b")))
        assert bpe_encode(model, "abc") == ["a", "bc" + corpus.END_OF_WORD]

    def test_decode_strips_one_marker(self):
        model = BpeModel(merges=())
        assert bpe_decode_sequence(model, ["c", "a", "t" + corpus.END_OF_WORD]) == ["cat"]
        assert bpe_decode_sequence(model, ["[Input]"]) == ["[Input]"]

    def test_sequence_round_trip_small(self):
        model = train_bpe([["the", "cat", "sat"], ["the", "mat"]], num_merges=6)
        tokens = ["the", "[Input]", "cat", "sat"]
        units = bpe_encode_sequence(model, tokens)
        assert bpe_decode_sequence(model, units) == tokens

    def test_sequence_decode_keeps_unterminated_tail(self):
        model = BpeModel(merges=())
        m = corpus.END_OF_WORD
        assert bpe_decode_sequence(model, ["c", "a" + m, "x", "y"]) == ["ca", "xy"]

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(st.text(alphabet="abcde", min_size=1, max_size=6), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=30),
    )
    def test_round_trip_property(self, sentences, num_merges):
        model = train_bpe(sentences, num_merges)
        for sent in sentences:
            units = bpe_encode_sequence(model, sent)
            assert bpe_decode_sequence(model, units) == sent
            for unit in units[:-1]:
                assert unit  # no empty units

    def test_model_file_round_trip(self, tmp_path):
        model = train_bpe([["hello", "world", "hello"]], num_merges=8)
        model.save(tmp_path / "bpe.txt")
        loaded = BpeModel.load(tmp_path / "bpe.txt")
        assert loaded.merges == model.merges

    def test_model_file_rejects_garbage(self, tmp_path):
        (tmp_path / "bpe.txt").write_text("a b\nnot-a-merge\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            BpeModel.load(tmp_path / "bpe.txt")
