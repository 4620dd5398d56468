"""Output checks. Every check counts as attempted; a failed one is kept by message.

The functions here only compare outputs with what they must be, so a
planted bad output (a wrong TM hit, a decode that drops its prefix) makes
the matching check fail; perfbench/tests plants such outputs.
"""

from __future__ import annotations

import math
from collections import Counter

from promptmt.corpus import EOS, OUTPUT, bpe_decode_sequence
from promptmt.retrieval import similarity


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def starts_with_prefix(full_ids, prefix_ids) -> bool:
    """A forced-prefix decode must begin with exactly the prefix it was given."""
    return list(full_ids[: len(prefix_ids)]) == list(prefix_ids)


def expected_translation(full_ids, prefix_ids, vocab, bpe) -> list:
    """What translate must return for a beam_search result: the material after
    the prefix, without a final <eos>, subword-decoded when bpe is given."""
    units = [vocab.token_of(i) for i in full_ids[len(prefix_ids):]]
    if units and units[-1] == EOS:
        units = units[:-1]
    return bpe_decode_sequence(bpe, units) if bpe is not None else units


def brute_force_best(query, entries, threshold: float):
    """(id, score) of the best TM entry by a scan over every entry, or None.

    The rules are retrieve_best's: the score must exceed the threshold,
    perfect matches (score 1.0) are skipped, ties go to the lowest id. An
    entry is skipped without running the edit distance only when the exact
    bound ED >= max(|q|, |s|) - |q & s| (tokens in common, with
    multiplicity) already puts it at or below the threshold.
    """
    query = tuple(query)
    query_bag = Counter(query)
    best = None
    for eid, src, _ in entries:
        longest = max(len(query), len(src))
        if longest == 0:
            continue
        common = sum((query_bag & Counter(src)).values())
        if common / longest <= threshold:
            continue
        score = similarity(query, src)
        if score <= threshold or score >= 1.0:
            continue
        if best is None or score > best[1] or (score == best[1] and eid < best[0]):
            best = (eid, score)
    return best


def same_hit(hit, expected) -> bool:
    """retrieve_best's RetrievalHit (or None) against brute_force_best's answer."""
    if hit is None or expected is None:
        return hit is None and expected is None
    return hit.id == expected[0] and hit.score == expected[1]


def mask_ones_exactly_after_output(example) -> bool:
    cut = list(example.output_tokens).index(OUTPUT)
    n = len(example.output_tokens)
    return tuple(example.loss_mask) == (0,) * (cut + 1) + (1,) * (n - cut - 1)


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def loss_falls(losses) -> bool:
    return len(losses) >= 2 and losses[-1] < losses[0]
