"""Corpus BLEU and terminology exact-match accuracy.

Both metrics case-fold before comparing. BLEU is the corpus-level
geometric mean of clipped n-gram precisions up to order 4 with the
brevity penalty exp(1 - ref_len/hyp_len) applied when the hypothesis
side is shorter. Unsmoothed BLEU is zero as soon as any order has no
match; the default add-one smoothing (on orders above 1 only) keeps
short corpora comparable.

Exact match asks, per sentence, whether each expected target term
occurs contiguously in the hypothesis; every expected term counts once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

from .errors import DataError
from .terminology import ngrams

MAX_ORDER = 4


@dataclass(frozen=True)
class EvalReport:
    bleu: float
    exact_match: float
    n_terms: int
    n_matched: int

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        lines = [
            f"BLEU         {self.bleu:7.2f}",
            f"exact match  {self.exact_match:7.4f}  ({self.n_matched}/{self.n_terms} terms)",
        ]
        return "\n".join(lines)


def _fold(tokens) -> list:
    return [t.casefold() for t in tokens]


def corpus_bleu(hypotheses: list, references: list, smooth: bool = True) -> float:
    """BLEU-4 in percent over token-level corpora.

    hypotheses and references are parallel lists of token sequences.
    """
    if len(hypotheses) != len(references):
        raise DataError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise DataError("empty corpus")

    matched = [0] * MAX_ORDER
    possible = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = _fold(hyp)
        ref = _fold(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for order in range(1, MAX_ORDER + 1):
            hyp_counts = Counter(ngrams(hyp, order))
            ref_counts = Counter(ngrams(ref, order))
            possible[order - 1] += max(len(hyp) - order + 1, 0)
            for gram, count in hyp_counts.items():
                matched[order - 1] += min(count, ref_counts[gram])

    log_precision = 0.0
    for order in range(1, MAX_ORDER + 1):
        m, p = matched[order - 1], possible[order - 1]
        if smooth and order > 1:
            m, p = m + 1, p + 1
        if m == 0 or p == 0:
            return 0.0
        log_precision += math.log(m / p) / MAX_ORDER

    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def exact_match_accuracy(hypotheses: list, term_sets: list):
    """Fraction of expected target terms found contiguously in the hypothesis.

    term_sets holds, per sentence, the list of target-side term token
    sequences expected to appear. Returns (accuracy, n_matched, n_terms);
    accuracy is 1.0 when no terms are expected at all.
    """
    if len(hypotheses) != len(term_sets):
        raise DataError(f"{len(hypotheses)} hypotheses vs {len(term_sets)} term sets")
    n_terms = 0
    n_matched = 0
    for hyp, terms in zip(hypotheses, term_sets):
        hyp = _fold(hyp)
        for term in terms:
            n_terms += 1
            if tuple(_fold(term)) in ngrams(hyp, len(term)):
                n_matched += 1
    accuracy = n_matched / n_terms if n_terms else 1.0
    return accuracy, n_matched, n_terms


def evaluate(hypotheses: list, references: list, term_sets=None, smooth: bool = True) -> EvalReport:
    """Bundle BLEU and exact match into one report.

    term_sets may be None when no terminology was used; exact match is
    then vacuous (1.0 over zero terms).
    """
    bleu = corpus_bleu(hypotheses, references, smooth=smooth)
    if term_sets is None:
        term_sets = [[] for _ in hypotheses]
    accuracy, n_matched, n_terms = exact_match_accuracy(hypotheses, term_sets)
    return EvalReport(bleu=bleu, exact_match=accuracy, n_terms=n_terms, n_matched=n_matched)
