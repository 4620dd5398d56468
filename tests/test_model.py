"""Transformer forward/backward, loss masking, training loop, checkpoints."""

from __future__ import annotations

import json
import math
import platform

import numpy as np
import pytest

from fd import check_gradients
from promptmt.corpus import PAD_ID, SPECIAL_TOKENS, Vocab
from promptmt.errors import DataError
from promptmt.model import (
    CHECKPOINT_MAGIC,
    Adam,
    Batch,
    DecoderState,
    ModelConfig,
    TrainConfig,
    decoder_logits,
    decoder_step,
    encode_source,
    forward,
    init_params,
    load_checkpoint,
    log_softmax,
    loss,
    loss_and_gradients,
    make_batch,
    param_shapes,
    save_checkpoint,
    softmax,
    train,
)
from promptmt.prompt import PromptedExample


def tiny_config(**overrides):
    defaults = dict(
        vocab_size=16,
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        max_positions=32,
        dropout=0.0,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def random_batch(rng, config, b=2, s=5, t=6, n_prefix=2):
    """Random ids with full pads and a mask open after position n_prefix."""
    src = rng.integers(4, config.vocab_size, size=(b, s), dtype=np.int64)
    out = rng.integers(4, config.vocab_size, size=(b, t), dtype=np.int64)
    mask = np.zeros((b, t))
    mask[:, n_prefix + 1 :] = 1.0
    return Batch(src=src, src_pad=np.ones((b, s)), out=out, loss_mask=mask)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(vocab_size=10, d_model=10, n_heads=4)

    @pytest.mark.parametrize("name", ["vocab_size", "d_model", "n_heads", "n_enc_layers",
                                      "n_dec_layers", "d_ff", "max_positions"])
    def test_sizes_below_one_rejected(self, name):
        # n_heads 0 must not reach the d_model % n_heads check
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            ModelConfig(**{"vocab_size": 10, name: 0})

    def test_non_integer_size_rejected(self):
        with pytest.raises(ValueError, match="vocab_size must be an integer, got 1000.0"):
            ModelConfig(vocab_size=1e3)

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="dropout"):
            tiny_config(dropout=1.0)


class TestInit:
    def test_matrices_drawn_in_layer_order(self):
        """The matrices come from one generator in a fixed order, each
        uniform in +-sqrt(3 / fan-in); vectors are gains 1 and biases 0."""
        cfg = tiny_config(d_ff=12)
        params = init_params(cfg, seed=4)
        attn = ("wq", "wk", "wv", "wo")
        matrices = (
            ["embed"] + [f"enc0.attn.{w}" for w in attn] + ["enc0.ff.w1", "enc0.ff.w2"]
            + [f"dec0.{name}.{w}" for name in ("self", "cross") for w in attn]
            + ["dec0.ff.w1", "dec0.ff.w2"]
        )
        rng = np.random.default_rng(4)
        for name in matrices:
            limit = np.sqrt(3.0 / (cfg.d_ff if name.endswith("ff.w2") else cfg.d_model))
            want = rng.uniform(-limit, limit, size=params[name].shape)
            assert params[name].tobytes() == want.tobytes(), name
        for name, value in params.items():
            if name not in matrices:
                assert value.ndim == 1 and np.all(value == name.endswith(".g")), name
        # three biases per attention, two per feed-forward, a gain and a
        # bias per sublayer
        assert len(params) == len(matrices) + 3 * 3 + 2 * 2 + 2 * 5

    def test_shape_table_lists_every_parameter(self):
        cfg = tiny_config(n_enc_layers=2, d_ff=12)
        params = init_params(cfg, seed=0)
        assert param_shapes(cfg) == {name: value.shape for name, value in params.items()}
        assert list(param_shapes(cfg)) == list(params)
        assert param_shapes(cfg)["embed"] == (cfg.vocab_size, cfg.d_model)
        assert param_shapes(cfg)["enc1.ff.w2"] == (12, cfg.d_model)


class TestForward:
    def test_single_token_output_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        batch = Batch(
            src=np.array([[5, 6]]),
            src_pad=np.ones((1, 2)),
            out=np.array([[7]]),
            loss_mask=np.ones((1, 1)),
        )
        logits, _ = forward(params, cfg, batch)
        assert logits.shape == (1, 1, cfg.vocab_size)
        assert np.all(np.isfinite(logits))

    def test_causality(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(2)
        batch = random_batch(rng, cfg)
        logits, _ = forward(params, cfg, batch)
        for j in range(batch.out.shape[1]):
            perturbed = Batch(
                src=batch.src,
                src_pad=batch.src_pad,
                out=batch.out.copy(),
                loss_mask=batch.loss_mask,
            )
            perturbed.out[0, j] = (perturbed.out[0, j] + 1) % cfg.vocab_size
            new_logits, _ = forward(params, cfg, perturbed)
            assert np.array_equal(new_logits[0, : j + 1], logits[0, : j + 1])
            assert not np.allclose(new_logits[0, j + 1 :], logits[0, j + 1 :]) or (
                j == batch.out.shape[1] - 1
            )

    def test_cross_attention_reach(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        batch = random_batch(rng, cfg)
        logits, _ = forward(params, cfg, batch)
        perturbed = Batch(
            src=batch.src.copy(),
            src_pad=batch.src_pad,
            out=batch.out,
            loss_mask=batch.loss_mask,
        )
        perturbed.src[0, 0] = (perturbed.src[0, 0] + 1) % cfg.vocab_size
        new_logits, _ = forward(params, cfg, perturbed)
        # every output position sees the encoder, so all of row 0 moves
        assert np.all(np.any(new_logits[0] != logits[0], axis=-1))
        assert np.array_equal(new_logits[1], logits[1])

    def test_padded_keys_do_not_leak(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        src = np.array([[5, 6, 0, 0]])
        pad = np.array([[1.0, 1.0, 0.0, 0.0]])
        out = np.array([[7, 8]])
        mask = np.array([[1.0, 1.0]])
        logits, _ = forward(params, cfg, Batch(src, pad, out, mask))
        # junk in padded slots must not reach any logits
        src2 = src.copy()
        src2[0, 2:] = 9
        logits2, _ = forward(params, cfg, Batch(src2, pad, out, mask))
        assert np.allclose(logits, logits2)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4, 11)) * 10
        assert np.allclose(softmax(x).sum(axis=-1), 1.0, atol=1e-6)
        assert np.allclose(np.exp(log_softmax(x)).sum(axis=-1), 1.0, atol=1e-6)

    def test_position_table_is_shared_read_only(self):
        from promptmt.model import sinusoidal_positions

        pe = sinusoidal_positions(9, 6)
        assert sinusoidal_positions(9, 6) is pe
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0
        assert pe[0, 1] == 1.0 and pe[3, 0] == np.sin(3.0)

    def test_decode_path_matches_training_forward(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=7)
        rng = np.random.default_rng(8)
        batch = random_batch(rng, cfg, b=1)
        logits, _ = forward(params, cfg, batch)
        enc = encode_source(params, cfg, batch.src, batch.src_pad)
        from promptmt.corpus import BOS_ID

        dec_in = np.concatenate([[[BOS_ID]], batch.out[:, :-1]], axis=1)
        step_logits = decoder_logits(params, cfg, enc, batch.src_pad, dec_in)
        assert np.allclose(logits, step_logits, atol=1e-10)


class TestMasks:
    def test_no_mask_equals_zero_mask(self):
        from promptmt.model import _Dropout, _attention, _project_kv

        cfg = tiny_config(d_model=16, n_heads=4)
        params = init_params(cfg, seed=24)
        rng = np.random.default_rng(25)
        x_q, x_kv = rng.normal(size=(3, 1, 16)), rng.normal(size=(3, 6, 16))
        k, v = _project_kv(params, "dec0.cross", x_kv, cfg.n_heads)
        no_drop = _Dropout(0.0, None)
        got, _ = _attention(params, "dec0.cross", x_q, x_kv, k, v, None, 4, no_drop)
        zeros = np.zeros((3, 1, 1, 6))
        want, _ = _attention(params, "dec0.cross", x_q, x_kv, k, v, zeros, 4, no_drop)
        assert np.array_equal(got, want)

    def test_masks_that_hide_nothing_are_none(self):
        from promptmt.model import _causal_mask, _key_pad_mask

        assert _causal_mask(1) is None
        assert _causal_mask(1, past=5) is None
        assert _causal_mask(2, past=5).shape == (1, 1, 2, 7)
        assert _key_pad_mask(np.ones((2, 4))) is None
        mask = _key_pad_mask(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))
        assert mask[0, 0, 0].tolist() == [0.0, 0.0, -1e9]
        assert mask[1, 0, 0].tolist() == [0.0, 0.0, 0.0]


class TestDecoderState:
    """Incremental decoding against the uncached decoder_logits reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_step_matches_full_decoder(self, seed):
        cfg = tiny_config(n_dec_layers=2)
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed + 100)
        src = rng.integers(4, cfg.vocab_size, size=(1, 6), dtype=np.int64)
        pad = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
        src[0, 4:] = 0
        enc = encode_source(params, cfg, src, pad)
        from promptmt.corpus import BOS_ID

        # the first call runs <bos> and a multi-token prefix in one pass
        rows = [[BOS_ID] + [int(t) for t in rng.integers(4, cfg.vocab_size, size=4)]]
        state = DecoderState(params, cfg, enc, pad)
        logits = decoder_step(params, cfg, state, np.array(rows))
        full = decoder_logits(params, cfg, enc, pad, np.array(rows))
        np.testing.assert_allclose(logits, full, rtol=1e-12)
        for n in (3, 2, 4, 4):
            # re-rank: rows are gathered by parent, repeated and reordered
            parents = [int(r) for r in rng.integers(0, len(rows), size=n)]
            state.select(parents)
            new = rng.integers(4, cfg.vocab_size, size=(n, 1), dtype=np.int64)
            rows = [rows[p] + [int(t)] for p, t in zip(parents, new[:, 0])]
            logits = decoder_step(params, cfg, state, new)
            assert logits.shape == (n, 1, cfg.vocab_size)
            assert state.length == len(rows[0])
            full = decoder_logits(
                params, cfg, np.repeat(enc, n, axis=0), np.repeat(pad, n, axis=0),
                np.array(rows),
            )
            np.testing.assert_allclose(logits[:, -1], full[:, -1], rtol=1e-12)

    def test_feeding_past_max_positions_rejected(self):
        cfg = tiny_config(max_positions=4)
        params = init_params(cfg, seed=0)
        src, pad = np.array([[5, 6]]), np.ones((1, 2))
        state = DecoderState(params, cfg, encode_source(params, cfg, src, pad), pad)
        decoder_step(params, cfg, state, np.array([[1, 7, 8, 9]]))
        with pytest.raises(DataError, match="max_positions"):
            decoder_step(params, cfg, state, np.array([[10]]))


class TestLoss:
    def test_uniform_logits_analytic(self):
        batch = Batch(
            src=np.array([[5]]),
            src_pad=np.ones((1, 1)),
            out=np.array([[3, 7]]),
            loss_mask=np.array([[0.0, 1.0]]),
        )
        logits = np.zeros((1, 2, 4))
        batch = Batch(batch.src, batch.src_pad, np.array([[3, 1]]), batch.loss_mask)
        assert loss(logits, batch) == pytest.approx(np.log(4.0), rel=1e-12)

    def test_matches_per_position_oracle(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(3, 5, 7))
        out = rng.integers(0, 7, size=(3, 5), dtype=np.int64)
        mask = (rng.random((3, 5)) < 0.6).astype(float)
        mask[:, 2] = 1.0  # no all-zero rows
        batch = Batch(np.zeros((3, 1), dtype=np.int64), np.ones((3, 1)), out, mask)

        expected = 0.0
        for b in range(3):
            for t in range(5):
                if mask[b, t]:
                    row = logits[b, t]
                    logp = row[out[b, t]] - np.log(np.exp(row).sum())
                    expected -= logp
        expected /= 3
        assert abs(loss(logits, batch) - expected) <= 1e-10 * abs(expected)

    def test_mask_relabeling_invariance(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(2, 4, 6))
        out = rng.integers(0, 6, size=(2, 4), dtype=np.int64)
        mask = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        batch = Batch(np.zeros((2, 1), dtype=np.int64), np.ones((2, 1)), out, mask)
        base = loss(logits, batch)
        relabeled = out.copy()
        relabeled[mask == 0] = (relabeled[mask == 0] + 3) % 6
        batch2 = Batch(batch.src, batch.src_pad, relabeled, mask)
        assert loss(logits, batch2) == base


class TestGradients:
    def test_matches_finite_differences(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(12)
        batch = random_batch(rng, cfg, b=2, s=4, t=5)
        _, grads = loss_and_gradients(params, cfg, batch)
        worst, worst_name = check_gradients(
            params, cfg, batch, grads, rng, samples_per_tensor=4
        )
        assert worst < 1e-4, f"worst {worst:.2e} at {worst_name}"

    def test_matches_finite_differences_two_layers_dropout_padding(self):
        # two layers a side catch a wrong layer order in the backward and a
        # wrong sum of the encoder-output gradient over decoder layers
        cfg = tiny_config(n_enc_layers=2, n_dec_layers=2, dropout=0.2)
        self.check_dropout_padding(cfg, samples_per_tensor=4)

    def test_matches_finite_differences_at_pipeline_width(self):
        # at d_model 8 the flattened products in _dense round as the
        # batched ones did; at 64 they reorder float sums, as in training
        cfg = tiny_config(d_model=64, n_heads=4, d_ff=256, n_enc_layers=2,
                          n_dec_layers=2, dropout=0.2)
        self.check_dropout_padding(cfg, samples_per_tensor=2)

    @staticmethod
    def check_dropout_padding(cfg, samples_per_tensor):
        """Finite differences with dropout on and source row 1 padded."""
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(12)
        batch = random_batch(rng, cfg, b=2, s=4, t=5)
        batch.src[1, 2:] = PAD_ID
        batch.src_pad[1, 2:] = 0.0
        dropout_seed = 13
        _, grads = loss_and_gradients(
            params, cfg, batch, dropout_rng=np.random.default_rng(dropout_seed)
        )
        worst, worst_name = check_gradients(
            params, cfg, batch, grads, rng, samples_per_tensor=samples_per_tensor,
            dropout_seed=dropout_seed,
        )
        assert worst < 1e-4, f"worst {worst:.2e} at {worst_name}"

    def test_lookup_gradient_zero_for_absent_tokens(self):
        # only the tied projection touches unseen rows; the lookup path
        # contributes nothing
        from promptmt.model import _embed_backward, zeros_like_params

        cfg = tiny_config()
        params = init_params(cfg, seed=13)
        grads = zeros_like_params(params)
        ids = np.array([[4, 5], [5, 6]])
        _embed_backward(np.ones((2, 2, cfg.d_model)), ids, None, 1.0, grads)
        touched = sorted(set(ids.ravel().tolist()))
        assert touched == [4, 5, 6]
        untouched = [i for i in range(cfg.vocab_size) if i not in touched]
        assert np.all(grads["embed"][untouched] == 0.0)
        assert np.all(grads["embed"][touched] != 0.0)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((3, 5, 8), (3, 5, 8)),     # bld,ble->de: attention projections
        ((3, 5, 16), (3, 5, 8)),    # blf,bld->fd: feed-forward w2
        ((3, 5, 8), (3, 5, 16)),    # bld,blf->df: feed-forward w1
        ((2, 7, 19), (2, 7, 8)),    # btv,btd->vd: tied embedding
        ((1, 1, 4), (1, 1, 3)),
    ])
    def test_weight_grad_matches_einsum(self, shape_a, shape_b):
        from promptmt.model import _weight_grad

        rng = np.random.default_rng(14)
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        np.testing.assert_allclose(
            _weight_grad(a, b), einsum_weight_grad(a, b), rtol=1e-12
        )

    def test_weight_grad_non_contiguous_inputs(self):
        from promptmt.model import _merge_heads, _split_heads, _weight_grad

        rng = np.random.default_rng(15)
        heads = rng.normal(size=(3, 2, 5, 4))
        merged = _merge_heads(heads)  # what the attention backward passes in
        other = rng.normal(size=(5, 3, 6)).transpose(1, 0, 2)
        strided = _split_heads(rng.normal(size=(3, 5, 16)), 2)[:, 0]
        for a, b in [(merged, other), (other, merged), (merged, strided)]:
            assert not (a.flags.c_contiguous and b.flags.c_contiguous)
            np.testing.assert_allclose(
                _weight_grad(a, b), einsum_weight_grad(a, b), rtol=1e-12
            )


    @pytest.mark.parametrize("shape", [(64, 17, 64), (4, 1, 64), (64, 14, 48), (100, 30, 64)])
    def test_layer_norm_is_bit_identical_to_var_reference(self, shape):
        from promptmt.model import _layer_norm

        rng = np.random.default_rng(16)
        x = rng.normal(loc=0.3, scale=2.0, size=shape)
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        y, (xhat, inv) = _layer_norm(x, g, b)
        ref_y, (ref_xhat, ref_inv) = var_layer_norm(x, g, b)
        np.testing.assert_array_equal(inv, ref_inv)
        np.testing.assert_array_equal(xhat, ref_xhat)
        np.testing.assert_array_equal(y, ref_y)


def einsum_weight_grad(a, b):
    """Reference for model._weight_grad: the contraction it replaced."""
    return np.einsum("bld,ble->de", a, b)


def var_layer_norm(x, g, b):
    """Reference for model._layer_norm: the x.var form it replaced."""
    from promptmt.model import LN_EPS

    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def toy_vocab(n_words=8):
    return Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(n_words)])


def copy_examples(n, rng, n_words=8, lo=2, hi=5):
    out = []
    for i in range(n):
        length = rng.integers(lo, hi + 1)
        words = tuple(f"w{rng.integers(0, n_words)}" for _ in range(length))
        out.append(
            PromptedExample(
                id=i,
                input_tokens=("[Input]",) + words,
                output_tokens=("[Output]",) + words + ("<eos>",),
                loss_mask=(0,) + (1,) * (len(words) + 1),
            )
        )
    return out


class TestTraining:
    @pytest.mark.parametrize("bad_set", ["training", "validation"])
    def test_all_zero_mask_rejected(self, bad_set):
        # an inference example: nothing after [Output] to train on
        cfg = tiny_config(vocab_size=17)
        data = copy_examples(4, np.random.default_rng(29))
        bad = data[:2] + [PromptedExample(7, ("[Input]", "w1"), ("[Output]",), (0,))]
        sets = (bad, data) if bad_set == "training" else (data, bad)
        with pytest.raises(DataError, match=f"^{bad_set} set: example 7 has no loss position"):
            train(init_params(cfg), cfg, *sets, TrainConfig(max_epochs=1), toy_vocab())

    def test_example_over_max_positions_rejected_before_any_step(self):
        cfg = tiny_config(vocab_size=17, max_positions=6)
        data = copy_examples(4, np.random.default_rng(30), lo=2, hi=3)
        long = copy_examples(1, np.random.default_rng(31), lo=6, hi=6)[0]
        seen = []
        with pytest.raises(DataError, match=r"^held out: example 0 has 8 units, "
                                            r"more than max_positions 6$"):
            train(init_params(cfg), cfg, data, [long], TrainConfig(max_epochs=1), toy_vocab(),
                  log=seen.append, set_names=("train", "held out"))
        assert seen == []

    def test_zero_epochs_leaves_params_unchanged(self):
        cfg = tiny_config(vocab_size=17)
        params = init_params(cfg, seed=14)
        vocab = toy_vocab()
        data = copy_examples(4, np.random.default_rng(15))
        result = train(
            params, cfg, data, None, TrainConfig(max_epochs=0, batch_size=2), vocab
        )
        assert result.train_losses == []
        for k in params:
            assert np.array_equal(result.params[k], params[k])

    def test_deterministic_loss_curve(self):
        cfg = tiny_config(vocab_size=17, dropout=0.1)
        params = init_params(cfg, seed=16)
        vocab = toy_vocab()
        data = copy_examples(10, np.random.default_rng(17))
        tc = TrainConfig(max_epochs=3, batch_size=4, seed=5)
        r1 = train(params, cfg, data, data, tc, vocab)
        r2 = train(params, cfg, data, data, tc, vocab)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses

    def test_overfits_copy_task(self):
        cfg = ModelConfig(
            vocab_size=17,
            d_model=32,
            n_heads=4,
            n_enc_layers=1,
            n_dec_layers=1,
            d_ff=64,
            max_positions=16,
            dropout=0.0,
        )
        params = init_params(cfg, seed=18)
        vocab = toy_vocab()
        data = copy_examples(50, np.random.default_rng(19))
        tc = TrainConfig(
            lr=6e-3,
            max_epochs=30,
            batch_size=4,
            seed=6,
            warmup_steps=40,
            schedule="linear",
        )
        result = train(params, cfg, data, None, tc, vocab)
        assert result.train_losses[-1] < 0.1

    def test_early_stopping_on_flat_validation(self):
        cfg = tiny_config(vocab_size=17)
        params = init_params(cfg, seed=20)
        vocab = toy_vocab()
        data = copy_examples(6, np.random.default_rng(21))
        # lr 0 freezes the model, so validation never improves after epoch 0
        tc = TrainConfig(lr=0.0, max_epochs=50, patience=1, batch_size=3)
        result = train(params, cfg, data, data, tc, vocab)
        assert len(result.train_losses) == 2
        assert result.best_epoch == 0

    def test_divergence_aborts(self):
        cfg = tiny_config(vocab_size=17)
        params = init_params(cfg, seed=22)
        params["embed"][5, 0] = np.nan
        vocab = toy_vocab()
        data = copy_examples(4, np.random.default_rng(23))
        with pytest.raises(RuntimeError, match="diverged"):
            train(params, cfg, data, None, TrainConfig(max_epochs=1, batch_size=2), vocab)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the mallopt thresholds train sets are glibc's")
    def test_steps_reuse_freed_memory(self):
        # with glibc's default thresholds every step page-faulted its freed
        # working set back in, about 7,000 minor faults a step at this width
        import resource

        vocab = toy_vocab(190)
        rng = np.random.default_rng(26)
        data = [
            PromptedExample(
                id=i,
                input_tokens=("[Input]",) + tuple(f"w{t}" for t in rng.integers(0, 190, 13)),
                output_tokens=("[Output]",) + tuple(f"w{t}" for t in rng.integers(0, 190, 15))
                + ("<eos>",),
                loss_mask=(0,) + (1,) * 16,
            )
            for i in range(512)
        ]
        cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_heads=4, n_enc_layers=2,
                          n_dec_layers=2, d_ff=256, dropout=0.1)
        params = init_params(cfg, seed=27)
        tc = TrainConfig(batch_size=64, max_epochs=1)
        train(params, cfg, data, None, tc, vocab)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(params, cfg, data, None, tc, vocab)
        steps = len(data) // tc.batch_size
        per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
        assert per_step < 100, f"{per_step:.0f} minor page faults per training step"

    def test_lr_schedule(self):
        tc = TrainConfig(lr=1.0, warmup_steps=4, schedule="linear")
        assert tc.lr_at(1, 100) == 0.25
        assert tc.lr_at(4, 100) == 1.0
        assert tc.lr_at(50, 100) == 0.5
        assert tc.lr_at(100, 100) == 0.0
        constant = TrainConfig(lr=0.5)
        assert constant.lr_at(1, 100) == 0.5
        assert constant.lr_at(100, 100) == 0.5
        with pytest.raises(ValueError, match="schedule"):
            TrainConfig(schedule="cosine").lr_at(1, 10)

    def test_batch_size_below_one_rejected(self):
        # train would otherwise divide by it on its first line of work
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            TrainConfig(batch_size=0)

    def test_adam_zero_lr_freezes(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=24)
        before = {k: v.copy() for k, v in params.items()}
        opt = Adam(params, TrainConfig(lr=0.0))
        opt.step(params, {k: np.ones_like(v) for k, v in params.items()})
        for k in params:
            assert np.array_equal(params[k], before[k])


class TestBatch:
    def test_padding_layout(self):
        vocab = toy_vocab()
        examples = [
            PromptedExample(0, ("[Input]", "w0"), ("[Output]", "w1", "<eos>"), (0, 1, 1)),
            PromptedExample(
                1, ("[Input]", "w0", "w1", "w2"), ("[Output]", "w3", "w4", "<eos>"), (0, 1, 1, 1)
            ),
        ]
        batch = make_batch(examples, vocab)
        assert batch.src.shape == (2, 4)
        assert batch.src[0, 2] == 0  # pad id
        assert batch.src_pad[0].tolist() == [1.0, 1.0, 0.0, 0.0]
        assert batch.loss_mask[0].tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_too_long_rejected(self):
        vocab = toy_vocab()
        ex = PromptedExample(
            0, ("[Input]",) + ("w0",) * 20, ("[Output]", "w1", "<eos>"), (0, 1, 1)
        )
        cfg = tiny_config(vocab_size=len(vocab), max_positions=8)
        with pytest.raises(DataError, match="max_positions"):
            loss_and_gradients(init_params(cfg), cfg, make_batch([ex], vocab))

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            make_batch([], toy_vocab())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(vocab_size=17)
        params = init_params(cfg, seed=25)
        vocab = toy_vocab()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, vocab)
        loaded, loaded_cfg = load_checkpoint(path, vocab)
        assert loaded_cfg == cfg
        assert sorted(loaded) == sorted(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])

    def test_foreign_vocabulary_names_file(self, tmp_path):
        path = self.saved(tmp_path)
        with pytest.raises(DataError, match=r"model\.ckpt: checkpoint was trained with a "
                                            r"different vocabulary$"):
            load_checkpoint(path, toy_vocab(9))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path, toy_vocab())

    def test_missing_sidecar_rejected(self, tmp_path):
        cfg = tiny_config(vocab_size=17)
        params = init_params(cfg, seed=26)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, toy_vocab())
        (tmp_path / "model.ckpt.json").unlink()
        with pytest.raises(DataError, match="sidecar"):
            load_checkpoint(path, toy_vocab())

    def saved(self, tmp_path, **overrides):
        cfg = tiny_config(vocab_size=17, **overrides)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, seed=27), cfg, toy_vocab())
        return path

    def test_truncated_payload_names_file_and_byte_counts(self, tmp_path):
        path = self.saved(tmp_path)
        n_bytes = len(path.read_bytes()) - len(CHECKPOINT_MAGIC) - 2
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match=rf"model\.ckpt: truncated or corrupt checkpoint: "
                                            rf"the payload is {n_bytes - 8} bytes, "
                                            rf"the sidecar config needs {n_bytes}"):
            load_checkpoint(path, toy_vocab())

    def test_truncated_header_names_file(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(DataError, match=r"model\.ckpt: truncated or corrupt"):
            load_checkpoint(path, toy_vocab())

    def test_trailing_bytes_name_file_and_byte_counts(self, tmp_path):
        path = self.saved(tmp_path)
        n_bytes = len(path.read_bytes()) - len(CHECKPOINT_MAGIC) - 2
        path.write_bytes(path.read_bytes() + bytes(3))
        with pytest.raises(DataError, match=rf"model\.ckpt: .*the payload is {n_bytes + 3} "
                                            rf"bytes, the sidecar config needs {n_bytes}"):
            load_checkpoint(path, toy_vocab())

    def test_every_flipped_payload_byte_names_file(self, tmp_path):
        path = self.saved(tmp_path, d_model=2, n_heads=1, d_ff=2)
        data = path.read_bytes()
        for pos in range(len(CHECKPOINT_MAGIC) + 2, len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(DataError, match=r"model\.ckpt: payload sha256 differs"):
                load_checkpoint(path, toy_vocab())

    def test_non_finite_tensor_names_file(self, tmp_path):
        cfg = tiny_config(vocab_size=17)
        params = init_params(cfg, seed=28)
        params["dec0.ff.b1"][3] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, toy_vocab())
        with pytest.raises(DataError, match=r"model\.ckpt: non-finite value"):
            load_checkpoint(path, toy_vocab())

    def test_version_1_is_unsupported(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(CHECKPOINT_MAGIC) : len(CHECKPOINT_MAGIC) + 2] = (1).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match=r"model\.ckpt: unsupported checkpoint version 1$"):
            load_checkpoint(path, toy_vocab())

    def test_save_refuses_params_off_the_shape_table(self, tmp_path):
        cfg = tiny_config(vocab_size=17)
        params = init_params(cfg)
        params["enc0.ff.w1"] = params["enc0.ff.w1"].T
        with pytest.raises(ValueError, match="param_shapes"):
            save_checkpoint(tmp_path / "model.ckpt", params, cfg, toy_vocab())
        del params["enc0.ff.w1"]
        with pytest.raises(ValueError, match="param_shapes"):
            save_checkpoint(tmp_path / "model.ckpt", params, cfg, toy_vocab())
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("key, value", [("n_heads", 0), ("vocab_size", 1e3)])
    def test_bad_sidecar_size_names_it(self, tmp_path, key, value):
        path = self.saved(tmp_path)
        sidecar_path = tmp_path / "model.ckpt.json"
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        sidecar["config"][key] = value
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(DataError, match=r"model\.ckpt\.json: bad checkpoint sidecar"):
            load_checkpoint(path, toy_vocab())

    def test_malformed_sidecar_names_it(self, tmp_path):
        path = self.saved(tmp_path)
        (tmp_path / "model.ckpt.json").write_text('{"config": ', encoding="utf-8")
        with pytest.raises(DataError, match=r"model\.ckpt\.json: bad checkpoint sidecar"):
            load_checkpoint(path, toy_vocab())

    @pytest.mark.parametrize("field", ["payload_sha256", "vocab_sha256"])
    def test_sidecar_without_a_hash_names_it(self, tmp_path, field):
        path = self.saved(tmp_path)
        sidecar_path = tmp_path / "model.ckpt.json"
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        del sidecar[field]
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(DataError, match=rf"model\.ckpt\.json: bad checkpoint sidecar: "
                                            rf"KeyError\('{field}'\)"):
            load_checkpoint(path, toy_vocab())

    @pytest.mark.parametrize("key, value", [("d_ff", 32), ("n_dec_layers", 2)])
    def test_sidecar_config_must_match_tensors(self, tmp_path, key, value):
        path = self.saved(tmp_path, d_ff=16, n_dec_layers=1)
        n_bytes = len(path.read_bytes()) - len(CHECKPOINT_MAGIC) - 2
        sidecar_path = tmp_path / "model.ckpt.json"
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        sidecar["config"][key] = value
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
        config = tiny_config(vocab_size=17, **{"d_ff": 16, "n_dec_layers": 1, key: value})
        needed = 8 * sum(math.prod(shape) for shape in param_shapes(config).values())
        with pytest.raises(DataError, match=rf"model\.ckpt: .*the payload is {n_bytes} bytes, "
                                            rf"the sidecar config needs {needed}$"):
            load_checkpoint(path, toy_vocab())
