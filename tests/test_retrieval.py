"""Edit distance, similarity, and translation-memory retrieval."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmt.errors import DataError
from promptmt.retrieval import (
    RetrievalHit,
    TmIndex,
    load_tm,
    save_hits,
    save_tm,
    similarity,
    token_edit_distance,
)


def dp_edit_distance(a, b):
    """Textbook full-matrix Levenshtein, the oracle for the fast versions."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[m][n]


def brute_force_best(entries, query, threshold):
    """Scan every entry; strict threshold, no perfect matches, lowest id wins ties."""
    best = None
    for eid, src, tgt in entries:
        score = similarity(query, src)
        if score <= threshold or score >= 1.0:
            continue
        if best is None or score > best.score or (score == best.score and eid < best.id):
            best = RetrievalHit(id=eid, score=score, src=tuple(src), tgt=tuple(tgt))
    return best


class TestEditDistance:
    def test_known_values(self):
        assert token_edit_distance([], []) == 0
        assert token_edit_distance(["a"], []) == 1
        assert token_edit_distance("kitten", "sitting") == 3
        assert token_edit_distance(["the", "cat"], ["the", "cat"]) == 0
        assert token_edit_distance(["the", "big", "cat"], ["the", "cat"]) == 1

    @given(
        st.lists(st.sampled_from("abc"), max_size=8),
        st.lists(st.sampled_from("abc"), max_size=8),
    )
    def test_matches_dp_oracle(self, a, b):
        assert token_edit_distance(a, b) == dp_edit_distance(a, b)

    @given(st.lists(st.sampled_from("ab"), max_size=6), st.lists(st.sampled_from("ab"), max_size=6))
    def test_symmetry(self, a, b):
        assert token_edit_distance(a, b) == token_edit_distance(b, a)


class TestSimilarity:
    def test_identical(self):
        assert similarity(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert similarity(["a"], ["b"]) == 0.0

    def test_length_normalization(self):
        # one substitution among four tokens
        assert similarity(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_empty_vs_empty(self):
        assert similarity([], []) == 1.0


def random_tm(rng, n_entries, vocab=("a", "b", "c", "d"), max_len=7):
    entries = []
    for eid in range(n_entries):
        src = [rng.choice(vocab) for _ in range(rng.randint(1, max_len))]
        tgt = [t.upper() for t in src]
        entries.append((eid, src, tgt))
    return entries


class TestRetrieveBest:
    def test_simple_hit(self):
        index = TmIndex([(0, ["the", "big", "cat"], ["le", "gros", "chat"])])
        hit = index.retrieve_best(["the", "small", "cat"], threshold=0.5)
        assert hit is not None
        assert hit.id == 0
        assert hit.score == pytest.approx(2 / 3)
        assert hit.tgt == ("le", "gros", "chat")

    def test_threshold_is_strict(self):
        index = TmIndex([(0, ["a", "b"], ["x"])])
        # similarity to ["a", "c"] is exactly 0.5
        assert index.retrieve_best(["a", "c"], threshold=0.5) is None
        assert index.retrieve_best(["a", "c"], threshold=0.49) is not None

    def test_perfect_match_ignored(self):
        index = TmIndex([(0, ["a", "b"], ["x"]), (1, ["a", "c"], ["y"])])
        hit = index.retrieve_best(["a", "b"], threshold=0.4)
        assert hit.id == 1

    def test_tie_goes_to_lowest_id(self):
        index = TmIndex(
            [
                (7, ["a", "b", "c"], ["x"]),
                (3, ["a", "b", "d"], ["y"]),
                (5, ["a", "b", "e"], ["z"]),
            ]
        )
        hit = index.retrieve_best(["a", "b", "q"], threshold=0.4)
        assert hit.id == 3

    def test_tie_across_length_buckets(self):
        # both entries score 0.5 against the query; the second lives in a
        # bucket whose best-case bound equals the held score, so the bucket
        # must still be scanned for the lower id to win
        index = TmIndex(
            [
                (9, ["a", "y"], ["x"]),
                (2, ["a", "x", "p", "q"], ["y"]),
            ]
        )
        hit = index.retrieve_best(["a", "x"], threshold=0.4)
        assert hit.score == 0.5
        assert hit.id == 2

    def test_no_entries_above_threshold(self):
        index = TmIndex([(0, ["a"], ["x"])])
        assert index.retrieve_best(["b", "c", "d"], threshold=0.4) is None

    def test_unseen_query_tokens(self):
        index = TmIndex([(0, ["a", "b", "c"], ["x"])])
        hit = index.retrieve_best(["zz", "b", "c"], threshold=0.5)
        assert hit.score == pytest.approx(2 / 3)

    def test_rejects_bad_threshold(self):
        index = TmIndex([(0, ["a"], ["x"])])
        with pytest.raises(ValueError):
            index.retrieve_best(["a"], threshold=1.0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DataError):
            TmIndex([(1, ["a"], ["x"]), (1, ["b"], ["y"])])

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.7])
    def test_matches_brute_force(self, threshold):
        rng = random.Random(11 + int(threshold * 10))
        entries = random_tm(rng, 120)
        index = TmIndex(entries)
        for _ in range(60):
            query = [rng.choice("abcde") for _ in range(rng.randint(1, 8))]
            assert index.retrieve_best(query, threshold) == brute_force_best(
                entries, query, threshold
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("ab"), min_size=1, max_size=5),
            min_size=1,
            max_size=12,
        ),
        st.lists(st.sampled_from("ab"), min_size=1, max_size=5),
        st.sampled_from([0.0, 0.4, 0.6]),
    )
    def test_matches_brute_force_property(self, sources, query, threshold):
        entries = [(i, src, ["t"] * len(src)) for i, src in enumerate(sources)]
        index = TmIndex(entries)
        assert index.retrieve_best(query, threshold) == brute_force_best(
            entries, query, threshold
        )


class TestFileFormats:
    def test_tm_round_trip(self, tmp_path):
        entries = [(0, ["a", "b"], ["x"]), (1, ["c"], ["y", "z"])]
        save_tm(entries, tmp_path / "tm.jsonl")
        index = load_tm(tmp_path / "tm.jsonl")
        assert len(index) == 2
        hit = index.retrieve_best(["a", "q"], threshold=0.4)
        assert hit.id == 0

    def test_tm_rejects_malformed_record(self, tmp_path):
        (tmp_path / "tm.jsonl").write_text('{"id": 0, "src": ["a"]}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_tm(tmp_path / "tm.jsonl")

    def test_hits_round_trip_with_nulls(self, tmp_path):
        # nothing reads a hits file back; each line is one JSON value
        hits = [
            RetrievalHit(id=3, score=0.75, src=("a", "b"), tgt=("x",)),
            None,
            RetrievalHit(id=0, score=0.5, src=("c",), tgt=("y", "z")),
        ]
        save_hits(hits, tmp_path / "hits.jsonl")
        lines = (tmp_path / "hits.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "null"
        assert [json.loads(line) for line in lines] == [
            {"id": 3, "score": 0.75, "src": ["a", "b"], "tgt": ["x"]},
            None,
            {"id": 0, "score": 0.5, "src": ["c"], "tgt": ["y", "z"]},
        ]
