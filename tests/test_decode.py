"""Beam search, forced prefixes, and decode statistics."""

from __future__ import annotations

import numpy as np
import pytest

from promptmt import decode
from promptmt.corpus import BOS_ID, EOS_ID, SPECIAL_TOKENS, Vocab, train_bpe, write_tokenized
from promptmt.decode import (
    BeamConfig,
    batch_translate,
    beam_search,
    greedy_decode,
    translate,
)
from promptmt.errors import DataError, write_json
from promptmt.model import (
    DecoderState,
    ModelConfig,
    decoder_logits,
    encode_source,
    init_params,
    log_softmax,
)
from promptmt.prompt import PromptedExample


def toy_vocab(n_words=8):
    return Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(n_words)])


def tiny_model(seed, vocab_size=17):
    cfg = ModelConfig(
        vocab_size=vocab_size,
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        max_positions=64,
        dropout=0.0,
    )
    return cfg, init_params(cfg, seed=seed)


def random_source(rng, vocab_size, length=4):
    ids = rng.integers(9, vocab_size, size=(1, length), dtype=np.int64)
    return ids, np.ones_like(ids, dtype=np.float64)


def generated_logprob(params, cfg, src, src_pad, ids, n_prefix):
    """Teacher-forced logprob of the generated part of a full sequence."""
    enc = encode_source(params, cfg, src, src_pad)
    dec_in = np.array([[BOS_ID] + ids[:-1]], dtype=np.int64)
    logits = decoder_logits(params, cfg, enc, src_pad, dec_in)
    logp = log_softmax(logits[0])
    return sum(float(logp[t, ids[t]]) for t in range(n_prefix, len(ids)))


class TestBeamSearch:
    def test_sequence_starts_with_prefix(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            cfg, params = tiny_model(seed)
            src, pad = random_source(rng, cfg.vocab_size)
            prefix = [int(x) for x in rng.integers(4, cfg.vocab_size, size=rng.integers(1, 6))]
            prefix.append(8)  # [Output]
            full = beam_search(params, cfg, src, pad, prefix, BeamConfig(max_new_tokens=8))
            assert full[: len(prefix)] == prefix

    def test_beam_one_equals_greedy(self):
        rng = np.random.default_rng(1)
        for seed in range(8):
            cfg, params = tiny_model(seed)
            src, pad = random_source(rng, cfg.vocab_size)
            prefix = [8]
            beam = beam_search(
                params, cfg, src, pad, prefix, BeamConfig(beam_size=1, max_new_tokens=10)
            )
            greedy = greedy_decode(params, cfg, src, pad, prefix, max_new_tokens=10)
            assert beam == greedy

    def test_deterministic(self):
        cfg, params = tiny_model(3)
        rng = np.random.default_rng(2)
        src, pad = random_source(rng, cfg.vocab_size)
        a = beam_search(params, cfg, src, pad, [8], BeamConfig(max_new_tokens=12))
        b = beam_search(params, cfg, src, pad, [8], BeamConfig(max_new_tokens=12))
        assert a == b

    def test_wider_beam_never_scores_worse(self):
        rng = np.random.default_rng(4)
        for seed in range(6):
            cfg, params = tiny_model(seed + 20)
            src, pad = random_source(rng, cfg.vocab_size)
            scores = []
            for width in (1, 2, 4, 8):
                bc = BeamConfig(beam_size=width, max_new_tokens=8)
                full = beam_search(params, cfg, src, pad, [8], bc)
                lp = generated_logprob(params, cfg, src, pad, full, 1)
                scores.append(lp / max(len(full) - 1, 1))
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_cached_steps_follow_reranked_beams(self, monkeypatch):
        """Each row the cached decoder scores is the full sequence of the
        live beam it stands for, also after beams are re-ranked."""
        reorders, rows, source = [], [], {}
        real_step, real_select = decode.decoder_step, DecoderState.select

        def select(state, parents):
            reorders.append(list(parents))
            rows[:] = [rows[p] for p in parents]
            real_select(state, parents)

        def step(params, cfg, state, dec_in):
            if state.length == 0:
                rows[:] = [list(row) for row in dec_in]
            else:
                rows[:] = [row + [int(t)] for row, t in zip(rows, dec_in[:, 0])]
            logits = real_step(params, cfg, state, dec_in)
            n = len(rows)
            full = decoder_logits(
                params, cfg, source["enc"].repeat(n, axis=0),
                source["pad"].repeat(n, axis=0), np.array(rows),
            )
            np.testing.assert_allclose(logits[:, -1], full[:, -1], rtol=1e-12)
            return logits

        monkeypatch.setattr(DecoderState, "select", select)
        monkeypatch.setattr(decode, "decoder_step", step)
        rng = np.random.default_rng(6)
        for seed in range(4):
            cfg, params = tiny_model(seed + 30)
            src, pad = random_source(rng, cfg.vocab_size, length=5)
            pad[0, 3:] = 0.0
            source.update(enc=encode_source(params, cfg, src, pad), pad=pad)
            prefix = [int(x) for x in rng.integers(9, cfg.vocab_size, size=3)] + [8]
            full = beam_search(params, cfg, src, pad, prefix, BeamConfig(max_new_tokens=8))
            assert full[: len(prefix)] == prefix
        # survivors came from different parents, out of their old order
        assert any(order != sorted(order) for order in reorders)

    def test_prefix_filling_max_positions_decodes(self):
        cfg, params = tiny_model(12)
        rng = np.random.default_rng(7)
        src, pad = random_source(rng, cfg.vocab_size)
        prefix = [9] * (cfg.max_positions - 10 - 1)
        for width in (1, 4):
            full = beam_search(
                params, cfg, src, pad, prefix, BeamConfig(beam_size=width, max_new_tokens=10)
            )
            assert full[: len(prefix)] == prefix
            # no <eos> comes, so the decoder is fed up to the last position
            assert len(full) == cfg.max_positions - 1

    def test_generation_stops_at_a_full_decoder(self):
        cfg, params = tiny_model(5)
        rng = np.random.default_rng(5)
        src, pad = random_source(rng, cfg.vocab_size)
        for left in (1, 4):
            prefix = [9] * (cfg.max_positions - left)
            for width in (1, 4):
                full = beam_search(
                    params, cfg, src, pad, prefix, BeamConfig(beam_size=width, max_new_tokens=10)
                )
                assert full[: len(prefix)] == prefix
                assert 1 <= len(full) - len(prefix) <= left
                if width == 1:
                    assert full == greedy_decode(params, cfg, src, pad, prefix, 10)

    def test_prefix_longer_than_positions_rejected(self):
        cfg, params = tiny_model(5)
        src = np.array([[9]], dtype=np.int64)
        pad = np.ones_like(src, dtype=np.float64)
        prefix = [8] * cfg.max_positions
        with pytest.raises(DataError, match="max_positions"):
            beam_search(params, cfg, src, pad, prefix, BeamConfig(max_new_tokens=10))
        with pytest.raises(DataError, match="max_positions"):
            greedy_decode(params, cfg, src, pad, prefix, 10)

    def test_source_longer_than_positions_rejected(self):
        cfg, params = tiny_model(5)
        src, pad = random_source(np.random.default_rng(5), cfg.vocab_size, cfg.max_positions + 1)
        with pytest.raises(DataError, match="max_positions"):
            beam_search(params, cfg, src, pad, [8], BeamConfig(max_new_tokens=10))


class TestBeamConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_size=0)
        with pytest.raises(ValueError):
            BeamConfig(max_new_tokens=0)
        with pytest.raises(ValueError):
            BeamConfig(length_penalty=-0.5)

    def test_defaults(self):
        bc = BeamConfig()
        assert bc.beam_size == 4
        assert bc.length_penalty == 1.0


class TestTranslate:
    def test_returns_only_generated_tokens(self):
        cfg, params = tiny_model(6)
        vocab = toy_vocab()
        ex = PromptedExample(
            id=0,
            input_tokens=("[Term]", "w0", "[Input]", "w1", "w2"),
            output_tokens=("[Term]", "w3", "[Output]"),
            loss_mask=(0, 0, 0),
        )
        tokens, stats = translate(params, cfg, vocab, ex, BeamConfig(max_new_tokens=6))
        assert "[Output]" not in tokens
        assert "[Term]" not in tokens
        assert "<eos>" not in tokens
        assert stats.tokens_forced == 3

    def test_bpe_reversal(self):
        cfg, params = tiny_model(8)
        vocab = toy_vocab()
        bpe = train_bpe([["w1"]], num_merges=0)
        ex = PromptedExample(
            id=0,
            input_tokens=("[Input]", "w1"),
            output_tokens=("[Output]",),
            loss_mask=(0,),
        )
        tokens, _ = translate(params, cfg, vocab, ex, BeamConfig(max_new_tokens=4), bpe=bpe)
        for tok in tokens:
            assert not tok.endswith("‸")

    def test_empty_prefix_is_plain_beam_search(self):
        cfg, params = tiny_model(9)
        vocab = toy_vocab()
        ex = PromptedExample(
            id=0,
            input_tokens=("[Input]", "w1", "w4"),
            output_tokens=("[Output]",),
            loss_mask=(0,),
        )
        tokens, stats = translate(params, cfg, vocab, ex, BeamConfig(max_new_tokens=5))
        assert stats.tokens_forced == 1
        src = np.array([vocab.encode(ex.input_tokens)], dtype=np.int64)
        pad = np.ones_like(src, dtype=np.float64)
        full = beam_search(params, cfg, src, pad, vocab.encode(["[Output]"]), BeamConfig(max_new_tokens=5))
        expected = [vocab.token_of(i) for i in full[1:]]
        if expected and expected[-1] == "<eos>":
            expected = expected[:-1]
        assert tokens == expected


class TestBatchTranslate:
    def make_examples(self):
        return [
            PromptedExample(
                id=0,
                input_tokens=("[Input]", "w1"),
                output_tokens=("[Term]", "w2", "[Output]"),
                loss_mask=(0, 0, 0),
            ),
            PromptedExample(
                id=1,
                input_tokens=("[Input]", "w3"),
                output_tokens=("[Term]", "w2", "[Term]", "w4", "[Output]"),
                loss_mask=(0, 0, 0, 0, 0),
            ),
            PromptedExample(
                id=2,
                input_tokens=("[Input]", "w5"),
                output_tokens=("[Sentence]", "w0", "w1", "[Output]"),
                loss_mask=(0, 0, 0, 0),
            ),
        ]

    def test_three_records_three_lines(self, tmp_path):
        cfg, params = tiny_model(10)
        vocab = toy_vocab()
        outputs, stats = batch_translate(
            params, cfg, vocab, self.make_examples(), BeamConfig(max_new_tokens=4)
        )
        assert len(outputs) == 3
        write_tokenized(outputs, tmp_path / "out.txt")
        lines = (tmp_path / "out.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_mean_forced_accounting(self, tmp_path):
        # forced counts are prefix length plus one for [Output]: 3, 5, 4
        cfg, params = tiny_model(11)
        vocab = toy_vocab()
        _, stats = batch_translate(
            params, cfg, vocab, self.make_examples(), BeamConfig(max_new_tokens=4)
        )
        assert stats["mean_forced"] == 4.0
        assert stats["sentences_per_second"] > 0
        write_json(tmp_path / "stats.json", stats)
        import json

        loaded = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
        assert loaded["mean_forced"] == 4.0
