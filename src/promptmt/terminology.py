"""Bilingual terminology dictionaries and soft matching against sentence pairs.

A dictionary entry pairs a source term with a target term, each a token
sequence. An entry matches a sentence pair when its source term appears as a
contiguous token subsequence of the source sentence and its target term
appears as one of the target sentence. Overlapping matches are all kept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, integer, read_jsonl, tokens, write_jsonl


@dataclass(frozen=True)
class TermEntry:
    """One dictionary entry: source term and its target rendering."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    id: int

    def __post_init__(self):
        if not self.source or not self.target:
            raise DataError(f"term entry {self.id} has an empty side")


class _TokenAutomaton:
    """Aho-Corasick automaton over token sequences.

    find() reports every (pattern_index, start) occurrence in one pass,
    so matching the whole dictionary against a sentence costs the sentence
    length plus the number of occurrences.
    """

    def __init__(self, patterns: list[tuple[str, ...]]):
        self._lengths = [len(p) for p in patterns]
        self._next: list[dict[str, int]] = [{}]
        self._out: list[list[int]] = [[]]
        self._fail = [0]
        for idx, pattern in enumerate(patterns):
            state = 0
            for tok in pattern:
                nxt = self._next[state].get(tok)
                if nxt is None:
                    self._next.append({})
                    self._out.append([])
                    self._fail.append(0)
                    nxt = len(self._next) - 1
                    self._next[state][tok] = nxt
                state = nxt
            self._out[state].append(idx)

        queue = deque(self._next[0].values())
        while queue:
            state = queue.popleft()
            for tok, child in self._next[state].items():
                queue.append(child)
                fail = self._fail[state]
                while fail and tok not in self._next[fail]:
                    fail = self._fail[fail]
                self._fail[child] = self._next[fail].get(tok, 0)
                # fail targets are strictly shallower, so their output sets
                # are already final in BFS order
                self._out[child] = self._out[child] + self._out[self._fail[child]]

    def find(self, tokens) -> list[tuple[int, int]]:
        """All (pattern_index, start_position) occurrences in tokens."""
        hits = []
        state = 0
        for pos, tok in enumerate(tokens):
            while state and tok not in self._next[state]:
                state = self._fail[state]
            state = self._next[state].get(tok, 0)
            for idx in self._out[state]:
                hits.append((idx, pos - self._lengths[idx] + 1))
        return hits


class TermDictionary:
    """A bilingual dictionary prepared for matching many sentence pairs."""

    def __init__(self, entries: list[TermEntry]):
        ids = [e.id for e in entries]
        if len(set(ids)) != len(ids):
            raise DataError("terminology dictionary has duplicate entry ids")
        self.entries = list(entries)
        self._src_automaton = _TokenAutomaton([e.source for e in entries])
        self._tgt_automaton = _TokenAutomaton([e.target for e in entries])

    def __len__(self) -> int:
        return len(self.entries)

    def match(self, source, target) -> list[TermEntry]:
        """Entries whose source term occurs in source and target term in target.

        Each entry is reported at most once, in dictionary order.
        """
        src_idx = {idx for idx, _ in self._src_automaton.find(source)}
        if not src_idx:
            return []
        tgt_idx = {idx for idx, _ in self._tgt_automaton.find(target)}
        return [self.entries[i] for i in sorted(src_idx & tgt_idx)]

    def match_source_only(self, source) -> list[TermEntry]:
        """Entries whose source term occurs in source, target side unchecked.

        Used at inference time, when no reference target exists.
        """
        src_idx = {idx for idx, _ in self._src_automaton.find(source)}
        return [self.entries[i] for i in sorted(src_idx)]


def contains_subsequence(haystack, needle) -> bool:
    """True if needle occurs as a contiguous run inside haystack."""
    haystack, needle = list(haystack), list(needle)
    if not needle:
        return True
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def load_dictionary(path: str | Path) -> TermDictionary:
    """Read a dictionary from JSONL {"src": [...], "tgt": [...]} records.

    Records may carry an explicit "id"; otherwise the record order assigns one.
    """
    entries = read_jsonl(
        path, "term",
        lambda rec, index: TermEntry(
            source=tokens(rec["src"]),
            target=tokens(rec["tgt"]),
            id=integer(rec.get("id", index)),
        ),
    )
    try:
        return TermDictionary(entries)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_dictionary(dictionary: TermDictionary, path: str | Path) -> None:
    write_jsonl(
        path,
        ({"id": e.id, "src": list(e.source), "tgt": list(e.target)} for e in dictionary.entries),
    )


def save_matches(matches: list, path: str | Path) -> None:
    """Write per-sentence match sets as JSONL {"id", "terms": [[src, tgt], ...]}.

    Term sides are rendered as space-joined strings.
    """
    write_jsonl(
        path,
        (
            {
                "id": int(sent_id),
                "terms": [[" ".join(e.source), " ".join(e.target)] for e in entries],
            }
            for sent_id, entries in matches
        ),
    )


def _match(rec, _):
    # each term is a [src, tgt] pair of space-joined strings
    sides = [tokens(term) for term in rec["terms"]]
    return integer(rec["id"]), [(tuple(src.split()), tuple(tgt.split())) for src, tgt in sides]


def load_matches(path: str | Path) -> list:
    """Read match sets back as (id, [(src_tokens, tgt_tokens), ...]) tuples."""
    return read_jsonl(path, "match", _match)
