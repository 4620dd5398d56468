"""BLEU and exact-match metrics against hand-computed oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmt.corpus import load_tokenized
from promptmt.errors import DataError
from promptmt.metrics import (
    EvalReport,
    corpus_bleu,
    evaluate,
    exact_match_accuracy,
)

WORDS = st.sampled_from(["the", "cat", "sat", "down", "on", "a", "mat", "big"])
SENTENCE = st.lists(WORDS, min_size=1, max_size=10)
CORPUS = st.lists(SENTENCE, min_size=1, max_size=8)


class TestCorpusBleu:
    def test_identity_is_100(self):
        corpus = [["the", "cat", "sat", "down"], ["a", "big", "mat", "on", "the"]]
        assert corpus_bleu(corpus, corpus) == 100.0
        assert corpus_bleu(corpus, corpus, smooth=False) == 100.0

    def test_short_identity_needs_smoothing(self):
        # a corpus with no 4-grams has an undefined order-4 precision;
        # add-one smoothing turns it into a vacuous 1
        corpus = [["the", "cat", "sat"]]
        assert corpus_bleu(corpus, corpus) == 100.0
        assert corpus_bleu(corpus, corpus, smooth=False) == 0.0

    def test_clipped_repetition_is_zero_unsmoothed(self):
        # unigram "the" clips to 1/4; every higher order has no match
        hyp = [["the", "the", "the", "the"]]
        ref = [["the", "cat", "sat", "down"]]
        assert corpus_bleu(hyp, ref, smooth=False) == 0.0
        assert corpus_bleu(hyp, ref, smooth=True) > 0.0

    def test_empty_hypothesis_line(self):
        assert corpus_bleu([[]], [["the", "cat"]]) == 0.0

    def test_case_folded(self):
        hyp = [["The", "CAT", "sat", "down"]]
        ref = [["the", "cat", "SAT", "down"]]
        assert corpus_bleu(hyp, ref) == 100.0

    def test_brevity_penalty(self):
        # precisions are all 1, so BLEU is exactly the brevity penalty
        hyp = [["the", "cat", "sat", "down"]]
        ref = [["the", "cat", "sat", "down", "on", "a"]]
        expected = 100.0 * math.exp(1.0 - 6 / 4)
        assert corpus_bleu(hyp, ref, smooth=False) == pytest.approx(expected)

    def test_no_penalty_for_long_hypothesis(self):
        hyp = [["the", "cat", "sat", "down", "on"]]
        ref = [["the", "cat", "sat", "down"]]
        unigram = 4 / 5
        bigram = 3 / 4
        trigram = 2 / 3
        fourgram = 1 / 2
        expected = 100.0 * (unigram * bigram * trigram * fourgram) ** 0.25
        assert corpus_bleu(hyp, ref, smooth=False) == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="2 hypotheses vs 1"):
            corpus_bleu([["a"], ["b"]], [["a"]])

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="empty"):
            corpus_bleu([], [])

    @given(CORPUS)
    @settings(max_examples=50, deadline=None)
    def test_self_bleu_is_100(self, corpus):
        assert corpus_bleu(corpus, corpus) == 100.0

    @given(CORPUS, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_line_order_invariance(self, corpus, rnd):
        refs = [list(reversed(line)) for line in corpus]
        order = list(range(len(corpus)))
        rnd.shuffle(order)
        base = corpus_bleu(corpus, refs)
        shuffled = corpus_bleu([corpus[i] for i in order], [refs[i] for i in order])
        assert shuffled == pytest.approx(base)

    @given(CORPUS, CORPUS)
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, hyps, refs):
        n = min(len(hyps), len(refs))
        score = corpus_bleu(hyps[:n], refs[:n])
        assert 0.0 <= score <= 100.0


class TestExactMatch:
    def test_both_terms_contained(self):
        acc, matched, total = exact_match_accuracy(
            [["die", "rote", "Katze", "saß"]],
            [[["rote", "Katze"], ["Katze"]]],
        )
        assert (acc, matched, total) == (1.0, 2, 2)

    def test_half_contained(self):
        acc, matched, total = exact_match_accuracy(
            [["die", "blaue", "Katze", "saß"]],
            [[["rote", "Katze"], ["Katze"]]],
        )
        assert (acc, matched, total) == (0.5, 1, 2)

    def test_vacuous(self):
        acc, matched, total = exact_match_accuracy([["x"], ["y"]], [[], []])
        assert (acc, matched, total) == (1.0, 0, 0)

    def test_case_folded(self):
        acc, _, _ = exact_match_accuracy([["Rote", "KATZE"]], [[["rote", "Katze"]]])
        assert acc == 1.0

    def test_contiguity_required(self):
        acc, _, _ = exact_match_accuracy(
            [["rote", "alte", "Katze"]], [[["rote", "Katze"]]]
        )
        assert acc == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="1 hypotheses vs 2"):
            exact_match_accuracy([["a"]], [[], []])

    @given(
        st.lists(st.tuples(SENTENCE, st.lists(SENTENCE, max_size=3)), min_size=1, max_size=6)
    )
    @settings(max_examples=50, deadline=None)
    def test_appending_term_never_decreases(self, rows):
        hyps = [h for h, _ in rows]
        terms = [t for _, t in rows]
        base, _, _ = exact_match_accuracy(hyps, terms)
        extended = [h + (t[0] if t else []) for h, t in rows]
        grown, _, _ = exact_match_accuracy(extended, terms)
        assert grown >= base


class TestEvaluate:
    def test_report_fields(self):
        report = evaluate(
            [["the", "cat"]], [["the", "cat"]], term_sets=[[["cat"]]]
        )
        assert report.bleu == 100.0
        assert report.exact_match == 1.0
        assert report.n_terms == 1
        assert report.n_matched == 1

    def test_no_terms_is_vacuous(self):
        report = evaluate([["a", "b"]], [["a", "b"]])
        assert report.exact_match == 1.0
        assert report.n_terms == 0

    def test_render(self):
        report = EvalReport(bleu=36.62, exact_match=0.8453, n_terms=100, n_matched=84)
        text = report.render()
        assert "36.62" in text
        assert "0.8453" in text
        assert "84/100" in text


class TestLoadTokenized:
    def test_reads_lines(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("the cat\nsat down\n", encoding="utf-8")
        assert load_tokenized(tmp_path / "hyp.txt") == [["the", "cat"], ["sat", "down"]]

    def test_empty_line_is_empty_sentence(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("the cat\n\nsat\n", encoding="utf-8")
        assert load_tokenized(tmp_path / "hyp.txt")[1] == []

    def test_non_utf8_names_the_file(self, tmp_path):
        (tmp_path / "hyp.txt").write_bytes(b"\xff\xfethe cat\n")
        with pytest.raises(DataError, match="hyp.txt: not UTF-8"):
            load_tokenized(tmp_path / "hyp.txt")
