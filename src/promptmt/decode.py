"""Beam search with a forced knowledge prefix on the decoder.

The decoder is first driven through the given target prefix (ending in
[Output]) with its probabilities ignored, then ordinary beam search
continues until <eos>. Only the tokens generated after [Output] are
returned, subword-decoded back into whole tokens.

Decoding is incremental. The cross-attention keys and values are
projected from the encoder output once per sentence and shared by every
beam. One parallel pass (the prefill) runs <bos> and the prefix and keeps
each decoder layer's self-attention keys and values in a DecoderState;
each later step feeds only the newest token of each live beam, at its
absolute position, and the state's rows are gathered by parent beam when
the beams are re-ranked. decoder_logits, which re-runs the whole
sequence, and greedy_decode, which is built on it, are the uncached
reference that the cached steps are tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .corpus import (
    BOS_ID,
    EOS,
    EOS_ID,
    OUTPUT,
    Vocab,
    bpe_decode_sequence,
)
from .errors import DataError
from .model import (
    DecoderState,
    ModelConfig,
    _keep_freed_memory,
    decoder_logits,
    decoder_step,
    encode_source,
    log_softmax,
)
from .prompt import PromptedExample


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 4
    max_new_tokens: int = 64
    length_penalty: float = 1.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if not (np.isfinite(self.length_penalty) and self.length_penalty >= 0):
            raise ValueError(f"length_penalty must be finite and >= 0, got {self.length_penalty}")


@dataclass(frozen=True)
class DecodeStats:
    """Per-record accounting: tokens_forced counts the prefix plus [Output]."""

    tokens_forced: int
    tokens_generated: int


def _score(logprob: float, n_generated: int, penalty: float) -> float:
    return logprob / max(n_generated, 1) ** penalty


def beam_search(
    params: dict,
    config: ModelConfig,
    src_ids: np.ndarray,
    src_pad: np.ndarray,
    prefix_ids: list,
    cfg: BeamConfig,
):
    """Full decoder id sequence (prefix included) for the best hypothesis.

    The sequence starts with exactly prefix_ids; scoring covers only the
    generated part, logprob / n_generated^length_penalty. Ties prefer the
    lower token id. A finished hypothesis ends with <eos>; search stops
    when no unfinished hypothesis can still beat the worst kept finished
    one even with its best possible remaining score. At most
    max_new_tokens are generated, fewer when the decoder's positions run
    out first; hypotheses still open at that limit compete with their
    scores as they stand. A prefix that leaves no position is a DataError.
    """
    limit = _new_token_limit(config, prefix_ids, cfg.max_new_tokens)
    _keep_freed_memory()
    enc_out = encode_source(params, config, src_ids, src_pad)
    state = DecoderState(params, config, enc_out, src_pad)

    # (ids, logprob, parent row); all start as the forced prefix with
    # probability mass 1
    beams = [(list(prefix_ids), 0.0, 0)]
    finished: list[tuple[list, float, int]] = []

    def by_rank(candidate):
        # higher score first, lower token ids on ties
        return (-_gen_score(candidate, prefix_ids, cfg), candidate[0])

    # the first step runs [bos] + prefix in one pass; each later step feeds
    # only the newest token of every live beam
    dec_in = np.array([[BOS_ID] + list(prefix_ids)], dtype=np.int64)
    for _ in range(limit):
        logits = decoder_step(params, config, state, dec_in)
        logp = log_softmax(logits[:, -1, :])

        candidates = []
        for b, (ids, total, _) in enumerate(beams):
            # stable sort on -logp keeps lower token ids first among ties
            for tok in np.argsort(-logp[b], kind="stable")[: cfg.beam_size]:
                candidates.append((ids + [int(tok)], total + float(logp[b, tok]), b))
        candidates.sort(key=by_rank)
        candidates = candidates[: cfg.beam_size]

        beams = []
        for candidate in candidates:
            if candidate[0][-1] == EOS_ID:
                finished.append(candidate)
            else:
                beams.append(candidate)
        finished.sort(key=by_rank)
        finished = finished[: cfg.beam_size]
        if not beams:
            break
        if len(finished) >= cfg.beam_size:
            # a live logprob (<= 0) can only shrink, so its best final score
            # is at the maximum generated length
            best_possible = max(
                _score(total, limit, cfg.length_penalty)
                for _, total, _ in beams
            )
            worst_kept = _gen_score(finished[-1], prefix_ids, cfg)
            if best_possible < worst_kept:
                break
        state.select([parent for _, _, parent in beams])
        dec_in = np.array([[ids[-1]] for ids, _, _ in beams], dtype=np.int64)

    # hypotheses still open at the token limit compete as they stand; a
    # poor early finish must not outrank a stronger truncated one
    finished.extend(beams)
    finished.sort(key=by_rank)
    return finished[0][0]


def _new_token_limit(config: ModelConfig, prefix_ids, max_new_tokens: int) -> int:
    # after <bos> and the prefix, the decoder is fed every generated token
    # but the last
    limit = min(max_new_tokens, config.max_positions - len(prefix_ids))
    if limit < 1:
        raise DataError(
            f"prefix of {len(prefix_ids)} leaves no position to generate into "
            f"within max_positions {config.max_positions}"
        )
    return limit


def _gen_score(candidate, prefix_ids, cfg: BeamConfig) -> float:
    ids, total = candidate[:2]
    return _score(total, len(ids) - len(prefix_ids), cfg.length_penalty)


def greedy_decode(params, config, src_ids, src_pad, prefix_ids, max_new_tokens):
    """Plain argmax decoding, the reference for beam_size=1.

    It re-runs decoder_logits over the whole sequence at every step and
    keeps no state, so comparing it with beam_search checks the cached
    decoding against the uncached one.
    """
    limit = _new_token_limit(config, prefix_ids, max_new_tokens)
    enc_out = encode_source(params, config, src_ids, src_pad)
    ids = list(prefix_ids)
    for _ in range(limit):
        dec_in = np.array([[BOS_ID] + ids], dtype=np.int64)
        logits = decoder_logits(params, config, enc_out, src_pad, dec_in)
        ids.append(int(np.argmax(logits[0, -1])))
        if ids[-1] == EOS_ID:
            break
    return ids


def translate(
    params: dict,
    config: ModelConfig,
    vocab: Vocab,
    example: PromptedExample,
    cfg: BeamConfig = BeamConfig(),
    bpe=None,
):
    """Translate one prompted example; returns (tokens, DecodeStats).

    The example's output side up to its [Output] is the decoder prefix.
    Returned tokens exclude the prefix, [Output], and <eos>, and are whole
    tokens again when a BPE model is given.
    """
    prefix = example.output_tokens[: example.output_tokens.index(OUTPUT) + 1]
    src_ids = np.array([vocab.encode(example.input_tokens)], dtype=np.int64)
    src_pad = np.ones_like(src_ids, dtype=np.float64)
    prefix_ids = vocab.encode(prefix)

    full = beam_search(params, config, src_ids, src_pad, prefix_ids, cfg)
    generated = full[len(prefix_ids) :]
    units = vocab.decode(generated)
    if units and units[-1] == EOS:
        units = units[:-1]
    tokens = bpe_decode_sequence(bpe, units) if bpe is not None else units
    return tokens, DecodeStats(tokens_forced=len(prefix_ids), tokens_generated=len(generated))


def batch_translate(
    params: dict,
    config: ModelConfig,
    vocab: Vocab,
    examples: list,
    cfg: BeamConfig = BeamConfig(),
    bpe=None,
):
    """Translate a dataset in order; returns (list of token lists, stats dict).

    A DataError from one example, such as an input longer than the
    model's max_positions, is raised again naming the example's id.

    The stats dict is the JSON summary: mean_forced, mean_generated, and
    sentences_per_second.
    """
    start = time.perf_counter()
    outputs = []
    forced = []
    generated = []
    for ex in examples:
        try:
            tokens, stats = translate(params, config, vocab, ex, cfg, bpe)
        except DataError as exc:
            raise DataError(f"example {ex.id}: {exc}") from exc
        outputs.append(tokens)
        forced.append(stats.tokens_forced)
        generated.append(stats.tokens_generated)
    elapsed = time.perf_counter() - start
    summary = {
        "mean_forced": float(np.mean(forced)) if forced else 0.0,
        "mean_generated": float(np.mean(generated)) if generated else 0.0,
        "sentences_per_second": len(examples) / elapsed if elapsed > 0 else 0.0,
    }
    return outputs, summary
