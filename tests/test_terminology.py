"""Terminology dictionaries and soft matching."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmt.errors import DataError
from promptmt.terminology import (
    TermDictionary,
    TermEntry,
    load_dictionary,
    load_matches,
    ngrams,
    save_dictionary,
    save_matches,
)


def contains_run(haystack, needle) -> bool:
    """True if needle occurs as a contiguous run inside haystack, by a
    slice-by-slice scan that shares no code with ngrams."""
    haystack, needle = list(haystack), list(needle)
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def brute_force_match(entries, source, target=None):
    """Per-entry containment scan, the oracle for the dictionary lookup;
    target None checks the source side alone."""
    return [
        e
        for e in entries
        if contains_run(source, e.source)
        and (target is None or contains_run(target, e.target))
    ]


class TestNgrams:
    def test_runs_in_order(self):
        assert ngrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]
        assert ngrams(("a", "b", "c"), 3) == [("a", "b", "c")]
        assert ngrams(["a", "b", "a"], 1) == [("a",), ("b",), ("a",)]

    def test_must_be_contiguous(self):
        assert ("a", "b") not in ngrams(["a", "x", "b"], 2)

    def test_longer_than_tokens_gives_none(self):
        assert ngrams(["a", "b"], 3) == []
        assert ngrams([], 1) == []

    def test_zero_gives_one_empty_run_per_boundary(self):
        # so the empty term occurs in every sentence, the empty one included
        assert ngrams(["a", "b"], 0) == [(), (), ()]
        assert ngrams([], 0) == [()]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("ab"), max_size=6),
           st.lists(st.sampled_from("ab"), max_size=3))
    def test_membership_is_containment(self, haystack, needle):
        assert (tuple(needle) in ngrams(haystack, len(needle))) == contains_run(haystack, needle)


class TestMatch:
    def make_dict(self):
        return TermDictionary(
            [
                TermEntry(("neural", "network"), ("reseau", "neuronal"), 0),
                TermEntry(("network",), ("reseau",), 1),
                TermEntry(("cat",), ("chat",), 2),
            ]
        )

    def test_requires_both_sides(self):
        d = self.make_dict()
        src = ["a", "neural", "network", "b"]
        # (neural network) target side absent: only the bare (network) entry fires
        matched = d.match(src, ["le", "reseau"])
        assert [e.id for e in matched] == [1]
        matched = d.match(src, ["reseau", "neuronal"])
        assert [e.id for e in matched] == [0, 1]

    def test_overlapping_entries_all_kept(self):
        d = TermDictionary(
            [
                TermEntry(("a", "b"), ("x", "y"), 0),
                TermEntry(("b", "c"), ("y", "z"), 1),
                TermEntry(("a", "b", "c"), ("x", "y", "z"), 2),
            ]
        )
        matched = d.match(["a", "b", "c"], ["x", "y", "z"])
        assert [e.id for e in matched] == [0, 1, 2]

    def test_entry_reported_once_despite_repeats(self):
        d = TermDictionary([TermEntry(("a",), ("x",), 0)])
        assert len(d.match(["a", "a", "a"], ["x", "x"])) == 1

    def test_no_match(self):
        d = self.make_dict()
        assert d.match(["dog"], ["chien"]) == []

    def test_source_only(self):
        d = self.make_dict()
        matched = d.match_source_only(["the", "cat", "network"])
        assert [e.id for e in matched] == [1, 2]

    def test_term_longer_than_sentence(self):
        d = TermDictionary([TermEntry(("a", "b", "c"), ("x",), 0)])
        assert d.match(["a", "b"], ["x"]) == []

    def test_shared_prefix_patterns(self):
        # shorter terms nested inside a longer one match alongside it
        d = TermDictionary(
            [
                TermEntry(("a", "a", "b"), ("x",), 0),
                TermEntry(("a", "b"), ("x",), 1),
                TermEntry(("b",), ("x",), 2),
            ]
        )
        matched = d.match(["a", "a", "b"], ["x"])
        assert [e.id for e in matched] == [0, 1, 2]

    def test_rejects_empty_term_side(self):
        with pytest.raises(DataError):
            TermEntry((), ("x",), 0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DataError):
            TermDictionary([TermEntry(("a",), ("x",), 0), TermEntry(("b",), ("y",), 0)])

    def test_matches_brute_force_random(self):
        rng = random.Random(3)
        entries = []
        for eid in range(40):
            src = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            tgt = tuple(rng.choice("xy") for _ in range(rng.randint(1, 3)))
            entries.append(TermEntry(src, tgt, eid))
        d = TermDictionary(entries)
        for _ in range(50):
            source = [rng.choice("abc") for _ in range(rng.randint(1, 10))]
            target = [rng.choice("xyz") for _ in range(rng.randint(1, 10))]
            assert d.match(source, target) == brute_force_match(entries, source, target)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("ab"), min_size=1, max_size=3),
                st.lists(st.sampled_from("xy"), min_size=1, max_size=3),
            ),
            max_size=8,
        ),
        st.lists(st.sampled_from("ab"), max_size=8),
        st.lists(st.sampled_from("xy"), max_size=8),
    )
    def test_matches_brute_force_property(self, raw_entries, source, target):
        entries = [TermEntry(tuple(s), tuple(t), i) for i, (s, t) in enumerate(raw_entries)]
        d = TermDictionary(entries)
        assert d.match(source, target) == brute_force_match(entries, source, target)
        assert d.match_source_only(source) == brute_force_match(entries, source)


class TestFiles:
    def test_dictionary_round_trip(self, tmp_path):
        d = TermDictionary(
            [
                TermEntry(("neural", "network"), ("reseau", "neuronal"), 0),
                TermEntry(("cat",), ("chat",), 1),
            ]
        )
        save_dictionary(d, tmp_path / "dict.jsonl")
        loaded = load_dictionary(tmp_path / "dict.jsonl")
        assert loaded.entries == d.entries

    def test_dictionary_assigns_ids_when_absent(self, tmp_path):
        (tmp_path / "dict.jsonl").write_text(
            '{"src": ["a"], "tgt": ["x"]}\n{"src": ["b"], "tgt": ["y"]}\n',
            encoding="utf-8",
        )
        d = load_dictionary(tmp_path / "dict.jsonl")
        assert [e.id for e in d.entries] == [0, 1]

    def test_dictionary_rejects_malformed(self, tmp_path):
        (tmp_path / "dict.jsonl").write_text('{"src": ["a"]}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_dictionary(tmp_path / "dict.jsonl")

    def test_matches_round_trip(self, tmp_path):
        matches = [
            (0, [TermEntry(("a", "b"), ("x",), 0)]),
            (1, []),
        ]
        save_matches(matches, tmp_path / "m.jsonl")
        loaded = load_matches(tmp_path / "m.jsonl")
        assert loaded == [
            (0, [(("a", "b"), ("x",))]),
            (1, []),
        ]
