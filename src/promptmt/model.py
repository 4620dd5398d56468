"""Encoder-decoder transformer in plain numpy with analytic gradients.

Everything runs in float64 on the CPU. Parameters live in a flat
name -> array dict. Both stacks are built, run and differentiated from one
table, LAYER_SUBLAYERS: one loop, _layers, embeds a side's ids and runs
its sublayers in order, recording a cache, and one loop, _layers_backward,
walks that cache in reverse; the whole gradient is checkable against
finite differences. Every affine map is one _dense, and it and its
backward, _dense_backward, run each weight product as one 2-D matrix
product (BLAS GEMM) over the flattened batch and position axes: numpy runs
a 3-D activation times a 2-D weight as one small product per batch row,
about twice as slow at (64, 17, 64) @ (64, 256). _embed alone checks a
length against max_positions, and train each example's before it steps.
The loss is the mean over examples of the summed negative log likelihood
at masked output positions only, so knowledge prefixes condition the
decoder without being trained targets.

A training step frees a working set of tens of MB that the next step
allocates again. glibc's defaults serve large arrays from fresh mappings
and give freed heap tops back to the kernel, so every step page-faulted
its working set back in (about 7,000 minor faults a step at B 64, d_model
64). train and decode.beam_search call _keep_freed_memory, which sets
glibc's mmap threshold to 32 MB and its trim threshold to 256 MB, so freed
memory stays mapped and is reused. Both must be set: setting either one
turns glibc's dynamic thresholds off, and with the trim threshold alone
arrays above 128 kB still came from fresh mappings (over 50,000 faults a
step, glibc 2.36). Without mallopt (macOS, musl) nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import BOS_ID, PAD_ID, Vocab
from .errors import DataError, write_json

NEG_INF = -1e9
LN_EPS = 1e-5
# learning-rate schedules: "linear" decays to zero over all steps
SCHEDULES = ("constant", "linear")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
# (kind, parameter name) of each sublayer of an encoder or decoder layer, in
# order; sublayer j (from 1) of layer i is LN(x + dropout(sublayer(x))) with
# layer norm f"{side}{i}.ln{j}". "self" attends within the side's own
# sequence, "cross" attends to the encoder output, "ff" is the feed-forward.
LAYER_SUBLAYERS = {
    "enc": (("self", "attn"), ("ff", "ff")),
    "dec": (("self", "self"), ("cross", "cross"), ("ff", "ff")),
}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    max_positions: int = 96
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_enc_layers",
                     "n_dec_layers", "d_ff", "max_positions"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class Batch:
    """Padded id matrices: src (B,S), out (B,T), with float 0/1 masks.

    out is the unshifted decoder-side sequence; position j of the loss mask
    refers to predicting out[j] from out[<j]. Padding must sit at the end of
    every row: decoder self-attention relies on it being causal-safe.
    """

    src: np.ndarray
    src_pad: np.ndarray
    out: np.ndarray
    loss_mask: np.ndarray


def make_batch(examples, vocab: Vocab) -> Batch:
    """Encode and right-pad a list of PromptedExamples."""
    if not examples:
        raise DataError("cannot build an empty batch")
    src_rows = [vocab.encode(ex.input_tokens) for ex in examples]
    out_rows = [vocab.encode(ex.output_tokens) for ex in examples]
    s_max = max(len(r) for r in src_rows)
    t_max = max(len(r) for r in out_rows)
    n = len(examples)
    src = np.full((n, s_max), PAD_ID, dtype=np.int64)
    src_pad = np.zeros((n, s_max))
    out = np.full((n, t_max), PAD_ID, dtype=np.int64)
    loss_mask = np.zeros((n, t_max))
    for i, (s_row, o_row, ex) in enumerate(zip(src_rows, out_rows, examples)):
        src[i, : len(s_row)] = s_row
        src_pad[i, : len(s_row)] = 1.0
        out[i, : len(o_row)] = o_row
        loss_mask[i, : len(o_row)] = ex.loss_mask
    return Batch(src=src, src_pad=src_pad, out=out, loss_mask=loss_mask)


@functools.lru_cache(maxsize=8)
def sinusoidal_positions(max_positions: int, d_model: int) -> np.ndarray:
    """The (max_positions, d_model) sine/cosine table, computed once per
    shape and shared read-only by every caller."""
    pos = np.arange(max_positions)[:, None]
    dim = np.arange(0, d_model, 2)[None, :]
    angle = pos / np.power(10000.0, dim / d_model)
    pe = np.zeros((max_positions, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.setflags(write=False)
    return pe


def param_shapes(config: ModelConfig) -> dict:
    """{name: shape} of every parameter, in the order init_params draws them."""
    d, f = config.d_model, config.d_ff
    shapes = {"embed": (config.vocab_size, d)}
    for side in ("enc", "dec"):
        for i in range(getattr(config, f"n_{side}_layers")):
            for j, (kind, name) in enumerate(LAYER_SUBLAYERS[side], 1):
                prefix = f"{side}{i}.{name}"
                if kind == "ff":
                    shapes.update({f"{prefix}.w1": (d, f), f"{prefix}.b1": (f,),
                                   f"{prefix}.w2": (f, d), f"{prefix}.b2": (d,)})
                else:
                    shapes.update({f"{prefix}.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
                    # no key bias: softmax rows are invariant to it, so it
                    # would be a dead parameter with an identically zero gradient
                    shapes.update({f"{prefix}.{bias}": (d,) for bias in ("bq", "bv", "bo")})
                shapes[f"{side}{i}.ln{j}.g"] = (d,)
                shapes[f"{side}{i}.ln{j}.b"] = (d,)
    return shapes


def init_params(config: ModelConfig, seed: int = 0) -> dict:
    """Seeded uniform init of every matrix, scaled by fan-in (the model
    width for the embedding); layer-norm gains 1, biases 0."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            limit = np.sqrt(3.0 / (shape[1] if name == "embed" else shape[0]))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
    return params


def zeros_like_params(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed memory mapped for reuse (see the module docstring); once
    per process, and a no-op without glibc's mallopt."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to open by None (Windows)
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's largest
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


# the ufunc reductions are what np.max, np.sum and .mean run, minus their
# Python wrappers; .mean is add.reduce divided by the count
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))


class _Dropout:
    """Inverted dropout; a None generator disables it entirely."""

    def __init__(self, rate: float, rng):
        self.active = rng is not None and rate > 0.0
        self.rate = rate
        self.rng = rng

    def apply(self, x: np.ndarray):
        if not self.active:
            return x, None
        keep = (self.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * keep, keep

    @staticmethod
    def backward(dy: np.ndarray, keep):
        return dy if keep is None else dy * keep


def _layer_norm(x, g, b):
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    # x.var would recompute the mean and the centred difference; this is
    # the same arithmetic, so the variance is bit-identical
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layer_norm_backward(dy, cache, g):
    xhat, inv = cache
    lead = tuple(range(dy.ndim - 1))
    d = dy.shape[-1]
    dg = np.add.reduce(dy * xhat, axis=lead)
    db = np.add.reduce(dy, axis=lead)
    dxhat = dy * g
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _weight_grad(a, b):
    """Gradient (I, J) of W in y = a @ W, given a (..., I) and dL/dy b (..., J).

    Sums a[..., i] * b[..., j] over every leading axis as one 2-D matrix
    product, which runs on BLAS where np.einsum does not.
    """
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _dense(x, w, b=None):
    """The affine map x @ w, plus b if given, as one 2-D product over the
    rows of x flattened to (-1, x.shape[-1])."""
    y = (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])
    if b is not None:
        y += b
    return y


def _dense_backward(dy, x, params, grads, w, b=None):
    """Backward of y = _dense(x, params[w], params[b]) given dL/dy: adds the
    weight and bias gradients to grads and returns dL/dx."""
    grads[w] += _weight_grad(x, dy)
    if b is not None:
        grads[b] += dy.sum(axis=tuple(range(dy.ndim - 1)))
    return _dense(dy, params[w].T)


def _project_kv(params, prefix, x, n_heads):
    """Head-split keys and values (B, H, L, dh) of x for one attention block."""
    k = _split_heads(_dense(x, params[f"{prefix}.wk"]), n_heads)
    v = _split_heads(_dense(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"]), n_heads)
    return k, v


def _attention(params, prefix, x_q, x_kv, k, v, add_mask, n_heads, drop: _Dropout):
    """Multi-head attention block of x_q over keys k and values v, which
    _project_kv made from x_kv. add_mask, None for no mask, broadcasts onto
    (B,H,Lq,Lk), and so do k and v: one set of keys can serve every row of
    x_q."""
    q = _split_heads(_dense(x_q, params[f"{prefix}.wq"], params[f"{prefix}.bq"]), n_heads)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2) * scale
    if add_mask is not None:
        scores = scores + add_mask
    attn = softmax(scores)
    attn_d, keep = drop.apply(attn)
    ctx = _merge_heads(attn_d @ v)
    out = _dense(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    cache = (x_q, x_kv, q, k, v, attn, attn_d, keep, ctx, scale)
    return out, cache


def _attention_backward(dout, params, prefix, cache, n_heads, grads):
    x_q, x_kv, q, k, v, attn, attn_d, keep, ctx, scale = cache
    n = lambda name: f"{prefix}.{name}"
    dctx = _split_heads(_dense_backward(dout, ctx, params, grads, n("wo"), n("bo")), n_heads)

    dattn_d = dctx @ v.swapaxes(-1, -2)
    dv = attn_d.swapaxes(-1, -2) @ dctx
    dattn = _Dropout.backward(dattn_d, keep)
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = dscores @ k * scale
    dk = dscores.swapaxes(-1, -2) @ q * scale

    dx_q = _dense_backward(_merge_heads(dq), x_q, params, grads, n("wq"), n("bq"))
    dx_kv = (_dense_backward(_merge_heads(dk), x_kv, params, grads, n("wk"))
             + _dense_backward(_merge_heads(dv), x_kv, params, grads, n("wv"), n("bv")))
    return dx_q, dx_kv


def _feed_forward(params, prefix, x):
    h = _dense(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    r = np.maximum(h, 0.0)
    out = _dense(r, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return out, (x, h, r)


def _feed_forward_backward(dout, params, prefix, cache, grads):
    x, h, r = cache
    dh = _dense_backward(dout, r, params, grads, f"{prefix}.w2", f"{prefix}.b2") * (h > 0.0)
    return _dense_backward(dh, x, params, grads, f"{prefix}.w1", f"{prefix}.b1")


def _embed(params, config, ids, drop: _Dropout, start: int = 0):
    """Scaled embeddings plus positions start, ..., end - 1 of ids (B, L);
    a DataError if end is past max_positions."""
    end = start + ids.shape[1]
    if end > config.max_positions:
        raise DataError(f"sequence length {end} exceeds max_positions {config.max_positions}")
    scale = np.sqrt(config.d_model)
    emb = params["embed"][ids] * scale
    pe = sinusoidal_positions(config.max_positions, config.d_model)[start:end]
    return drop.apply(emb + pe)


def _embed_backward(dx, ids, keep, scale, grads):
    demb = _Dropout.backward(dx, keep) * scale
    d = demb.shape[-1]
    np.add.at(grads["embed"], ids.reshape(-1), demb.reshape(-1, d))


def _causal_mask(t: int, past: int = 0):
    """Mask for t new positions that see the past earlier ones and
    themselves up to their own position; None for one position, which
    sees every key."""
    if t == 1:
        return None
    mask = np.triu(np.full((t, past + t), NEG_INF), k=past + 1)
    return mask[None, None, :, :]


def _key_pad_mask(pad: np.ndarray):
    """Mask hiding padded keys; None when no key is padded."""
    if pad.all():
        return None
    return ((1.0 - pad) * NEG_INF)[:, None, None, :]


class DecoderState:
    """The keys and values incremental decoding reuses, per decoder layer.

    cross holds the cross-attention keys and values, projected once from
    the encoder output; with one source row they serve every hypothesis.
    self_kv holds the self-attention keys and values of the `length`
    positions fed so far, one row per hypothesis.
    """

    def __init__(self, params, config, enc_out, src_pad):
        self.src_mask = _key_pad_mask(src_pad)
        self.cross = [
            _project_kv(params, f"dec{i}.cross", enc_out, config.n_heads)
            for i in range(config.n_dec_layers)
        ]
        self.self_kv = [None] * config.n_dec_layers

    @property
    def length(self) -> int:
        return 0 if self.self_kv[0] is None else self.self_kv[0][0].shape[2]

    def append(self, layer: int, k, v):
        """The layer's keys and values with k, v (B, H, t, dh) appended."""
        if self.self_kv[layer] is not None:
            past_k, past_v = self.self_kv[layer]
            k = np.concatenate([past_k, k], axis=2)
            v = np.concatenate([past_v, v], axis=2)
        self.self_kv[layer] = (k, v)
        return k, v

    def select(self, rows) -> None:
        """Keep the self-attention rows of the given hypotheses, in order."""
        self.self_kv = [(k[rows], v[rows]) for k, v in self.self_kv]


def _layers(params, config, side, ids, self_mask, drop: _Dropout,
            memory=None, memory_mask=None, state=None, start=0):
    """Embed ids (B, L) at positions start, start+1, ... and run the layers
    of side ("enc" or "dec"); returns the output and the backward cache.

    Cross-attention reads memory, the encoder output. With a DecoderState,
    ids follow the positions already fed: their self-attention keys and
    values join the state's, and cross-attention uses the state's.
    """
    x, embed_keep = _embed(params, config, ids, drop, start)
    sublayers = []
    for i in range(getattr(config, f"n_{side}_layers")):
        for j, (kind, name) in enumerate(LAYER_SUBLAYERS[side], 1):
            prefix = f"{side}{i}.{name}"
            if kind == "ff":
                out, sub_cache = _feed_forward(params, prefix, x)
            else:
                x_kv, mask = (x, self_mask) if kind == "self" else (memory, memory_mask)
                if state is None:
                    k, v = _project_kv(params, prefix, x_kv, config.n_heads)
                elif kind == "self":
                    k, v = state.append(i, *_project_kv(params, prefix, x, config.n_heads))
                else:
                    k, v = state.cross[i]
                out, sub_cache = _attention(
                    params, prefix, x, x_kv, k, v, mask, config.n_heads, drop
                )
            ln = f"{side}{i}.ln{j}"
            dropped, keep = drop.apply(out)
            x, ln_cache = _layer_norm(x + dropped, params[f"{ln}.g"], params[f"{ln}.b"])
            sublayers.append((kind, prefix, ln, sub_cache, keep, ln_cache))
    return x, {"ids": ids, "embed_keep": embed_keep, "sublayers": sublayers}


def _layers_backward(dx, params, config, cache, grads):
    """Backward through the sublayers and embedding _layers recorded, given
    dx, the gradient of its output; returns the gradient of memory."""
    dmemory = 0.0
    for kind, prefix, ln, sub_cache, keep, ln_cache in reversed(cache["sublayers"]):
        dsum, dg, db = _layer_norm_backward(dx, ln_cache, params[f"{ln}.g"])
        grads[f"{ln}.g"] += dg
        grads[f"{ln}.b"] += db
        dout = _Dropout.backward(dsum, keep)
        if kind == "ff":
            dx = dsum + _feed_forward_backward(dout, params, prefix, sub_cache, grads)
        else:
            dq, dkv = _attention_backward(dout, params, prefix, sub_cache, config.n_heads, grads)
            dx = dsum + dq
            if kind == "self":
                dx += dkv
            else:
                dmemory = dmemory + dkv
    _embed_backward(dx, cache["ids"], cache["embed_keep"], np.sqrt(config.d_model), grads)
    return dmemory


def forward(params: dict, config: ModelConfig, batch: Batch, dropout_rng=None):
    """Logits (B, T, vocab) for every output position, plus backward cache.

    Position j is predicted from <bos> and output tokens < j; the shift
    happens here, so batches carry the unshifted output ids.
    """
    drop = _Dropout(config.dropout, dropout_rng)
    src_mask = _key_pad_mask(batch.src_pad)
    enc_out, enc_cache = _layers(params, config, "enc", batch.src, src_mask, drop)
    dec_in = np.concatenate(
        [np.full((len(batch.out), 1), BOS_ID, dtype=np.int64), batch.out[:, :-1]], axis=1
    )
    logits, y, dec_cache = _decode(params, config, dec_in, drop, enc_out, src_mask)
    return logits, {"enc": enc_cache, "dec": dec_cache, "dec_out": y}


def _decode(params, config, dec_in, drop: _Dropout, memory, memory_mask, state=None):
    """Run the decoder layers on dec_in (B, t), after the state's positions
    if a DecoderState is given, then the output projection, which is the
    tied embedding; returns the logits, the decoder output and its cache."""
    start = 0 if state is None else state.length
    y, cache = _layers(
        params, config, "dec", dec_in, _causal_mask(dec_in.shape[1], start), drop,
        memory=memory, memory_mask=memory_mask, state=state, start=start,
    )
    return _dense(y, params["embed"].T), y, cache


def loss(logits: np.ndarray, batch: Batch) -> float:
    """Mean over examples of summed NLL at masked positions."""
    logp = log_softmax(logits)
    b, t = batch.out.shape
    nll = -logp[np.arange(b)[:, None], np.arange(t)[None, :], batch.out]
    return float((nll * batch.loss_mask).sum() / b)


def _loss_backward(logits: np.ndarray, batch: Batch) -> np.ndarray:
    b, t = batch.out.shape
    probs = softmax(logits)
    onehot_grad = probs
    onehot_grad[np.arange(b)[:, None], np.arange(t)[None, :], batch.out] -= 1.0
    return onehot_grad * batch.loss_mask[:, :, None] / b


def loss_and_gradients(params, config, batch, dropout_rng=None):
    """Loss plus its analytic gradient for every parameter tensor."""
    logits, cache = forward(params, config, batch, dropout_rng)
    value = loss(logits, batch)
    grads = zeros_like_params(params)
    dlogits = _loss_backward(logits, batch)

    # the output projection is the tied embedding, stored transposed: its
    # gradient is laid out as the embedding's, so it is not _dense_backward's
    grads["embed"] += _weight_grad(dlogits, cache["dec_out"])
    dy = _dense(dlogits, params["embed"])
    denc_out = _layers_backward(dy, params, config, cache["dec"], grads)
    _layers_backward(denc_out, params, config, cache["enc"], grads)
    return value, grads


def encode_source(params, config, src: np.ndarray, src_pad: np.ndarray):
    """Encoder output for decoding; no dropout, no cache retention."""
    enc_out, _ = _layers(
        params, config, "enc", src, _key_pad_mask(src_pad), _Dropout(0.0, None)
    )
    return enc_out


def decoder_logits(params, config, enc_out, src_pad, dec_in: np.ndarray):
    """Logits (B, T, vocab) for explicit decoder input ids (starting <bos>).

    Runs the whole sequence with no state kept: the uncached reference for
    decoder_step.
    """
    return _decode(params, config, dec_in, _Dropout(0.0, None), enc_out, _key_pad_mask(src_pad))[0]


def decoder_step(params, config, state: DecoderState, dec_in: np.ndarray):
    """Logits (B, t, vocab) for ids dec_in (B, t) fed after the state's
    positions, whose keys and values join the state.

    The first call feeds <bos> and any forced prefix in one parallel pass;
    later calls feed the newest token of each hypothesis. The logits match
    those decoder_logits gives for the whole sequence.
    """
    return _decode(params, config, dec_in, _Dropout(0.0, None), None, state.src_mask, state)[0]


@dataclass
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 30
    seed: int = 0
    warmup_steps: int = 0
    schedule: str = "constant"

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        for k, low in (("batch_size", 1), ("max_epochs", 0), ("patience", 1), ("warmup_steps", 0)):
            if getattr(self, k) < low:
                raise ValueError(f"{k} must be >= {low}, got {getattr(self, k)}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}, pick from {SCHEDULES}")

    def lr_at(self, step: int, total_steps: int) -> float:
        """Step starts at 1. Warmup ramps to the peak; "linear" then decays
        toward zero at total_steps."""
        if self.warmup_steps > 0 and step <= self.warmup_steps:
            return self.lr * (step / self.warmup_steps)
        if self.schedule == "linear":
            return self.lr * max(0.0, 1.0 - step / max(total_steps, 1))
        return self.lr


@dataclass
class TrainResult:
    params: dict
    train_losses: list
    val_losses: list
    best_epoch: int


class Adam:
    def __init__(self, params: dict, cfg: TrainConfig):
        self.cfg = cfg
        self.m = zeros_like_params(params)
        self.v = zeros_like_params(params)
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float | None = None) -> None:
        self.t += 1
        if lr is None:
            lr = self.cfg.lr
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            # in place, in the order of m = b1 * m + (1 - b1) * g
            m, v = self.m[k], self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            params[k] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _dataset_loss(params, config, examples, vocab, batch_size) -> float:
    total = 0.0
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        batch = make_batch(chunk, vocab)
        logits, _ = forward(params, config, batch)
        total += loss(logits, batch) * len(chunk)
    return total / len(examples)


def train(
    params: dict,
    config: ModelConfig,
    train_set: list,
    val_set: list | None,
    train_config: TrainConfig,
    vocab: Vocab,
    log=None,
    set_names=("training set", "validation set"),
) -> TrainResult:
    """Adam training loop with early stopping on validation loss.

    Deterministic for a fixed seed: shuffling, dropout, and batch order all
    derive from one generator. Returns the best-validation parameters.
    An example with no loss position or over max_positions is a DataError
    before the first step, naming the example and its set from set_names.
    """
    if not train_set:
        raise DataError("training set is empty")
    for name, examples in zip(set_names, (train_set, val_set or ())):
        for ex in examples:
            if not any(ex.loss_mask):
                raise DataError(f"{name}: example {ex.id} has no loss position (inference data?)")
            longest = max(len(ex.input_tokens), len(ex.output_tokens))
            if longest > config.max_positions:
                raise DataError(f"{name}: example {ex.id} has {longest} units, "
                                f"more than max_positions {config.max_positions}")
    params = {k: v.copy() for k, v in params.items()}
    rng = np.random.default_rng(train_config.seed)
    optimizer = Adam(params, train_config)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = -1
    best_params = {k: v.copy() for k, v in params.items()}
    steps_per_epoch = -(-len(train_set) // train_config.batch_size)
    total_steps = steps_per_epoch * train_config.max_epochs
    step = 0
    _keep_freed_memory()

    for epoch in range(train_config.max_epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), train_config.batch_size):
            chunk = [train_set[i] for i in order[start : start + train_config.batch_size]]
            batch = make_batch(chunk, vocab)
            value, grads = loss_and_gradients(params, config, batch, dropout_rng=rng)
            if not np.isfinite(value):
                raise RuntimeError(
                    f"training diverged: loss {value} at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            step += 1
            optimizer.step(params, grads, train_config.lr_at(step, total_steps))
            epoch_loss += value * len(chunk)
        train_losses.append(epoch_loss / len(train_set))

        if val_set:
            val = _dataset_loss(params, config, val_set, vocab, train_config.batch_size)
            val_losses.append(val)
            if val < best_val:
                best_val = val
                best_epoch = epoch
                best_params = {k: v.copy() for k, v in params.items()}
        else:
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}

        if log is not None:
            msg = f"epoch {epoch}: train {train_losses[-1]:.4f}"
            if val_set:
                msg += f" val {val_losses[-1]:.4f}"
            log(msg)
        if val_set and epoch - best_epoch >= train_config.patience:
            break

    return TrainResult(
        params=best_params,
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
    )


CHECKPOINT_MAGIC = b"PMTCKPT"
CHECKPOINT_VERSION = 2
# the magic, then the version as a little-endian u16
_HEADER_BYTES = len(CHECKPOINT_MAGIC) + 2


def save_checkpoint(path: str | Path, params: dict, config: ModelConfig, vocab: Vocab) -> None:
    """Tensor file plus a <path>.json sidecar with the config, the payload's
    sha256 and the vocabulary's.

    The tensor file is the magic and a little-endian u16 version, then the
    payload: every tensor param_shapes(config) lists, in its order, as
    little-endian float64, row-major. The config fixes every name and
    shape, so the file holds none, and params must have exactly those
    shapes.
    """
    shapes = param_shapes(config)
    if {k: np.shape(v) for k, v in params.items()} != shapes:
        raise ValueError("params differ from the tensors param_shapes(config) lists")
    payload = b"".join(np.asarray(params[name], dtype="<f8").tobytes() for name in shapes)
    path = Path(path)
    path.write_bytes(CHECKPOINT_MAGIC + CHECKPOINT_VERSION.to_bytes(2, "little") + payload)
    sidecar = {
        "config": asdict(config),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "vocab_sha256": vocab.sha256(),
    }
    write_json(str(path) + ".json", sidecar)


def load_checkpoint(path: str | Path, vocab: Vocab):
    """Returns (params, ModelConfig).

    Checks, in order: the magic, the version, the sidecar, that the
    checkpoint was trained with vocab, the payload length the sidecar's
    config needs, the payload's sha256, and that every value is finite. A
    failure raises a DataError naming the file at fault.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    if len(data) < _HEADER_BYTES:
        raise DataError(f"{path}: truncated or corrupt checkpoint: no version")
    version = int.from_bytes(data[len(CHECKPOINT_MAGIC) : _HEADER_BYTES], "little")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise DataError(f"{sidecar_path}: checkpoint sidecar missing")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        if sidecar["vocab_sha256"] != vocab.sha256():
            raise DataError(f"{path}: checkpoint was trained with a different vocabulary")
        config = ModelConfig(**sidecar["config"])
        shapes = param_shapes(config)
        want_sha256 = sidecar["payload_sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and bad sizes,
        # such as 0 or 1e3; KeyError and TypeError a missing or unknown field
        raise DataError(f"{sidecar_path}: bad checkpoint sidecar: {exc!r}") from exc
    payload = memoryview(data)[_HEADER_BYTES:]
    sizes = [math.prod(shape) for shape in shapes.values()]
    n_bytes = 8 * sum(sizes)
    if len(payload) != n_bytes:
        raise DataError(f"{path}: truncated or corrupt checkpoint: the payload is "
                        f"{len(payload)} bytes, the sidecar config needs {n_bytes}")
    if hashlib.sha256(payload).hexdigest() != want_sha256:
        raise DataError(f"{path}: payload sha256 differs from the sidecar's")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: non-finite value in the payload")
    views = np.split(flat, np.cumsum(sizes)[:-1])
    params = {name: view.reshape(shape) for (name, shape), view in zip(shapes.items(), views)}
    return params, config
