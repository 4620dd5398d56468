"""Fuzzy retrieval of similar sentences from a translation memory.

Similarity between token sequences is 1 - ED(x, s) / max(|x|, |s|) where ED
is token-level Levenshtein distance. A query retrieves the most similar
memory entry whose similarity strictly exceeds a threshold, skipping perfect
matches so a sentence never retrieves itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, integer, read_jsonl, tokens, write_jsonl


def token_edit_distance(a, b) -> int:
    """Levenshtein distance between two token sequences."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, 1):
        cur = [i]
        for j, tok_b in enumerate(b, 1):
            cur.append(
                min(
                    prev[j] + 1,  # deletion
                    cur[j - 1] + 1,  # insertion
                    prev[j - 1] + (tok_a != tok_b),  # substitution
                )
            )
        prev = cur
    return prev[-1]


def similarity(a, b) -> float:
    """1 - ED(a, b) / max(|a|, |b|); two empty sequences have similarity 1."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - token_edit_distance(a, b) / longest


def check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")


@dataclass(frozen=True)
class RetrievalHit:
    """Best translation-memory match for one query."""

    id: int
    score: float
    src: tuple[str, ...]
    tgt: tuple[str, ...]


class TmIndex:
    """Translation memory indexed for batched fuzzy lookup.

    Entries are grouped by source length so a whole group can be skipped
    when even the best case 1 - |len(q) - L| / max(len(q), L) cannot beat
    the threshold, and the edit-distance DP runs over all entries of a
    group at once as numpy rows.
    """

    def __init__(self, entries: list):
        # entries: (id, src_tokens, tgt_tokens)
        self._entries = [
            (int(eid), tuple(src), tuple(tgt)) for eid, src, tgt in entries
        ]
        ids = [e[0] for e in self._entries]
        if len(set(ids)) != len(ids):
            raise DataError("translation memory has duplicate entry ids")

        self._intern: dict[str, int] = {}
        self._buckets: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        by_len: dict[int, list[int]] = {}
        for pos, (_, src, _) in enumerate(self._entries):
            by_len.setdefault(len(src), []).append(pos)
        for length, positions in by_len.items():
            mat = np.empty((len(positions), length), dtype=np.int32)
            for row, pos in enumerate(positions):
                for col, tok in enumerate(self._entries[pos][1]):
                    mat[row, col] = self._intern.setdefault(tok, len(self._intern))
            self._buckets[length] = (np.array(positions, dtype=np.int64), mat)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list:
        """(id, src_tokens, tgt_tokens) tuples in insertion order."""
        return list(self._entries)

    def _bucket_distances(self, query_ids: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Edit distances from one query to every row of a same-length matrix.

        Row update: with tmp[j] = min(prev[j+1] + 1, prev[j] + neq[j]) the
        true row is cur[j] = min over k <= j of (tmp[k-1] + j - k), plus the
        boundary cur[0] = i. Folding the boundary in as tmp[-1] = i - 1 and
        scanning a running minimum of tmp[k] - k makes deletion chains of
        any length exact, which the usual three-line vectorization is not.
        """
        n_rows, length = mat.shape
        q = len(query_ids)
        offsets = np.arange(length + 1)
        prev = np.broadcast_to(offsets, (n_rows, length + 1)).astype(np.int64).copy()
        for i in range(1, q + 1):
            neq = (mat != query_ids[i - 1]).astype(np.int64)
            tmp = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + neq)
            stacked = np.concatenate(
                [np.full((n_rows, 1), i, dtype=np.int64), tmp], axis=1
            )
            prev = np.minimum.accumulate(stacked - offsets, axis=1) + offsets
        return prev[:, -1]

    def retrieve_best(self, query, threshold: float) -> RetrievalHit | None:
        """Most similar entry with score > threshold, or None.

        Perfect matches (score == 1.0) are ignored. Ties on score go to the
        lowest entry id.
        """
        query = tuple(query)
        check_threshold(threshold)
        q_len = len(query)
        # unseen tokens can never match an entry token
        query_ids = np.array(
            [self._intern.get(tok, -1) for tok in query], dtype=np.int64
        )

        best_score = threshold
        best_id = -1
        best_pos = -1
        for length in sorted(self._buckets):
            longest = max(q_len, length)
            if longest == 0:
                continue
            bound = 1.0 - abs(q_len - length) / longest
            # a held hit can still be displaced by an equal score with a
            # lower id, so only buckets strictly below it are skippable
            if bound < best_score or (best_pos < 0 and bound <= best_score):
                continue
            positions, mat = self._buckets[length]
            dists = self._bucket_distances(query_ids, mat)
            scores = 1.0 - dists / longest
            for row in np.flatnonzero(scores >= best_score):
                score = float(scores[row])
                if score <= threshold or score >= 1.0:
                    continue
                pos = int(positions[row])
                eid = self._entries[pos][0]
                if score > best_score or (best_pos >= 0 and score == best_score and eid < best_id):
                    best_score, best_id, best_pos = score, eid, pos
        if best_pos < 0:
            return None
        _, src, tgt = self._entries[best_pos]
        return RetrievalHit(id=best_id, score=float(best_score), src=src, tgt=tgt)


def save_tm(entries, path: str | Path) -> None:
    """Write a translation memory as JSONL {"id", "src", "tgt"} records."""
    write_jsonl(
        path,
        ({"id": int(eid), "src": list(src), "tgt": list(tgt)} for eid, src, tgt in entries),
    )


def load_tm(path: str | Path) -> TmIndex:
    entries = read_jsonl(
        path, "TM",
        lambda rec, _: (integer(rec["id"]), tokens(rec["src"]), tokens(rec["tgt"])),
    )
    try:
        return TmIndex(entries)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def hit_record(hit: RetrievalHit | None):
    """The JSONL value of one retrieval result: None (null) for a miss."""
    if hit is None:
        return None
    return {"id": hit.id, "score": hit.score, "src": list(hit.src), "tgt": list(hit.tgt)}


def save_hits(hits, path: str | Path) -> None:
    """Write retrieval results as JSONL, the literal null for misses."""
    write_jsonl(path, map(hit_record, hits))
