"""Bilingual terminology dictionaries and soft matching against sentence pairs.

A dictionary entry pairs a source term with a target term, each a token
sequence. An entry matches a sentence pair when its source term appears as a
contiguous token subsequence of the source sentence and its target term
appears as one of the target sentence. Overlapping matches are all kept.

ngrams forms the contiguous token runs of a sentence. A dictionary looks up
a sentence's runs of each term length it holds, BLEU counts them and term
exact match tests membership in them: every contiguous-token search in
the toolkit goes through it.
"""

from __future__ import annotations

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


def ngrams(tokens, n: int) -> list[tuple]:
    """The contiguous n-token runs of tokens, as tuples in order; n = 0
    gives one empty run per boundary, len(tokens) + 1 of them."""
    tokens = tuple(tokens)
    return [tokens[i : i + n] for i in range(len(tokens) - n + 1)]


class _TermIndex:
    """One side of a dictionary: {term: [entry index, ...]} and the term
    lengths, so a sentence is searched by looking up its n-grams."""

    def __init__(self, terms):
        self._entries: dict[tuple, list[int]] = {}
        for idx, term in enumerate(terms):
            self._entries.setdefault(tuple(term), []).append(idx)
        self._lengths = {len(term) for term in self._entries}

    def find(self, tokens) -> set[int]:
        """Indices of the entries whose term occurs in tokens."""
        return {
            idx
            for n in self._lengths
            for gram in ngrams(tokens, n)
            for idx in self._entries.get(gram, ())
        }


class TermDictionary:
    """A bilingual dictionary prepared for matching many sentence pairs."""

    def __init__(self, entries: list[TermEntry]):
        ids = [e.id for e in entries]
        if len(set(ids)) != len(ids):
            raise DataError("terminology dictionary has duplicate entry ids")
        self.entries = list(entries)
        self._src = _TermIndex([e.source for e in entries])
        self._tgt = _TermIndex([e.target for e in entries])

    def __len__(self) -> int:
        return len(self.entries)

    def match(self, source, target) -> list[TermEntry]:
        """Entries whose source term occurs in source and target term in target.

        Each entry is reported at most once, in dictionary order.
        """
        src_idx = self._src.find(source)
        if not src_idx:
            return []
        tgt_idx = self._tgt.find(target)
        return [self.entries[i] for i in sorted(src_idx & tgt_idx)]

    def match_source_only(self, source) -> list[TermEntry]:
        """Entries whose source term occurs in source, target side unchecked.

        Used at inference time, when no reference target exists.
        """
        return [self.entries[i] for i in sorted(self._src.find(source))]


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


def _match(rec, index):
    # each term is a [src, tgt] pair of space-joined strings, neither empty;
    # a record's id is its record number, as match-terms writes it
    if integer(rec["id"]) != index:
        raise DataError(f"id {rec['id']} is not the record number {index}")
    sides = [tokens(term) for term in rec["terms"]]
    terms = [(tuple(src.split()), tuple(tgt.split())) for src, tgt in sides]
    if not all(src and tgt for src, tgt in terms):
        raise DataError("a term has an empty side")
    return index, terms


def load_matches(path: str | Path) -> list:
    """Read match sets back as (id, [(src_tokens, tgt_tokens), ...]) tuples."""
    return read_jsonl(path, "match", _match)
