"""Probe points, per-layer metrics and the map from each to the end-to-end
metric and workload it should move.

Probes wrap public functions of the program at the boundaries between its
modules. A pass that is not traced installs only the few probes its
workload needs for its end-to-end numbers and checks (see
Workload.needs); a traced pass installs all of them. Per-layer metrics are
per pass: totals over the traced passes divided by their number, and each
*_ms metric is the self time of its span (duration minus the time covered
by probed calls made inside it).
"""

from __future__ import annotations

from promptmt import decode, model, pipeline, prompt, retrieval, terminology
from promptmt.corpus import EOS_ID, OUTPUT, PAD_ID

from .spans import Probe, self_times


def step_flop(cfg, b: int, s: int, t: int) -> float:
    """Multiply-adds x 2 of one training step (forward plus a backward of
    twice its cost) for a batch of b rows, s source and t target positions."""
    d, f = cfg.d_model, cfg.d_ff
    enc = b * s * (8 * d * d + 4 * s * d + 4 * d * f)
    dec = b * (t * (8 * d * d + 4 * t * d) + t * 4 * d * d + s * 4 * d * d
               + t * 4 * s * d + t * 4 * d * f)
    out = b * t * 2 * d * cfg.vocab_size
    return 3.0 * (cfg.n_enc_layers * enc + cfg.n_dec_layers * dec + out)


def _train(attrs, args, result):
    train_set = args[2]
    attrs["train_losses"] = list(result.train_losses)
    attrs["val_losses"] = list(result.val_losses)
    attrs["tokens"] = len(result.train_losses) * sum(len(ex.output_tokens) for ex in train_set)


def _step(attrs, args, result):
    cfg, batch = args[1], args[2]
    b, s = batch.src.shape
    attrs["flop"] = step_flop(cfg, b, s, batch.out.shape[1])


def _batch(attrs, args, result):
    attrs["real"] = int(result.src_pad.sum()) + int((result.out != PAD_ID).sum())
    attrs["slots"] = result.src.size + result.out.size


def _translate(attrs, args, result):
    attrs["forced"] = result[1].tokens_forced
    attrs["generated"] = result[1].tokens_generated


def _beam(attrs, args, result):
    attrs["ids"] = result


def _decoder(attrs, args, result):
    attrs["positions"] = args[4].shape[0] * args[4].shape[1]


def _retrieve(attrs, args, result):
    attrs["hit"] = result is not None


def _match(attrs, args, result):
    attrs["terms"] = len(result)


def _assemble(attrs, args, result):
    attrs["prefix"] = result.output_tokens.index(OUTPUT)


PROBES = (
    Probe(pipeline, "generate", "synth.generate"),
    Probe(pipeline, "train_bpe", "corpus.train_bpe"),
    Probe(pipeline, "bpe_encode_sequence", "corpus.bpe_encode_sequence"),
    Probe(prompt, "bpe_encode_sequence", "corpus.bpe_encode_sequence"),
    Probe(pipeline, "build_bundles", "pipeline.build_bundles"),
    Probe(retrieval.TmIndex, "__init__", "retrieval.index_build"),
    Probe(retrieval.TmIndex, "retrieve_best", "retrieval.retrieve_best", _retrieve),
    Probe(terminology.TermDictionary, "match", "terminology.match", _match),
    Probe(prompt, "assemble", "prompt.assemble", _assemble),
    Probe(pipeline, "train", "model.train", _train),
    Probe(model, "make_batch", "model.make_batch", _batch),
    Probe(model, "forward", "model.forward"),
    Probe(model, "loss_and_gradients", "model.loss_and_gradients", _step),
    Probe(model.Adam, "step", "model.adam"),
    Probe(pipeline, "save_checkpoint", "model.checkpoint_save"),
    Probe(pipeline, "load_checkpoint", "model.checkpoint_load"),
    Probe(pipeline, "batch_translate", "decode.batch_translate"),
    Probe(decode, "translate", "decode.translate", _translate),
    Probe(decode, "beam_search", "decode.beam_search", _beam),
    Probe(decode, "encode_source", "decode.encode_source"),
    Probe(decode, "decoder_logits", "decode.decoder_logits", _decoder),
    Probe(pipeline, "evaluate", "metrics.evaluate"),
)


def probes_for(names, traced: bool) -> list:
    return [p for p in PROBES if traced or p.name in names]


# name, unit, better, what it measures, which end-to-end metric on which
# workload it should move; "no change" entries are predictions too
PER_LAYER = (
    ("model.steps", "count", "lower", "training steps per pass",
     "run_s and throughput_per_s on pipeline-term"),
    ("model.make_batch_ms", "ms", "lower", "make_batch of training steps",
     "run_s and throughput_per_s on pipeline-term"),
    ("model.forward_ms", "ms", "lower", "forward inside training steps",
     "throughput_per_s, op_ms_p50 and run_s on pipeline-term; the shared layer code "
     "may also move decode-long"),
    ("model.backward_ms", "ms", "lower", "loss_and_gradients self time",
     "throughput_per_s, op_ms_p50 and run_s on pipeline-term; no change on decode-long"),
    ("model.adam_ms", "ms", "lower", "Adam.step",
     "throughput_per_s, op_ms_p50 and run_s on pipeline-term; no change on decode-long"),
    ("model.val_pass_ms", "ms", "lower", "validation make_batch plus forward inside train",
     "run_s on pipeline-term"),
    ("model.pad_ratio", "ratio", "higher", "real over padded positions in make_batch",
     "throughput_per_s on pipeline-term"),
    ("model.step_gflop", "GFLOP", "lower", "mean training-step work from batch shapes",
     "throughput_per_s on pipeline-term"),
    ("model.achieved_gflops", "GFLOP/s", "higher", "step work over loss_and_gradients time",
     "throughput_per_s and op_ms_p50 on pipeline-term"),
    ("model.checkpoint_save_ms", "ms", "lower", "save_checkpoint",
     "run_s on pipeline-term, a little"),
    ("model.checkpoint_load_ms", "ms", "lower", "load_checkpoint",
     "run_s on pipeline-term, a little"),
    ("decode.encode_ms", "ms", "lower", "encode_source",
     "throughput_per_s and op_ms_* on decode-long; no change in run_s on pipeline-term"),
    ("decode.decoder_calls", "count", "lower", "decoder_logits calls",
     "throughput_per_s and op_ms_* on decode-long; no change in run_s on pipeline-term"),
    ("decode.decoder_ms", "ms", "lower", "decoder_logits",
     "throughput_per_s and op_ms_* on decode-long; no change in run_s on pipeline-term"),
    ("decode.decoder_positions", "count", "lower", "rows x length fed to decoder_logits",
     "throughput_per_s and op_ms_* on decode-long; no change in run_s on pipeline-term"),
    ("decode.useful_ratio", "ratio", "higher", "generated tokens over decoder positions",
     "throughput_per_s and op_ms_* on decode-long; no change in run_s on pipeline-term"),
    ("decode.bookkeeping_ms", "ms", "lower", "beam_search self time",
     "throughput_per_s and op_ms_* on decode-long; no change in run_s on pipeline-term"),
    ("decode.forced_tokens_mean", "tokens", "lower",
     "forced prefix per sentence, [Output] included",
     "op_ms_* on decode-long (workload property)"),
    ("decode.generated_tokens_mean", "tokens", "lower", "generated tokens per sentence",
     "throughput_per_s on decode-long (workload property)"),
    ("decode.finished_ratio", "ratio", "higher", "beam_search results ending in <eos>",
     "throughput_per_s on decode-long (workload property)"),
    ("retrieval.index_build_ms", "ms", "lower", "TmIndex construction",
     "run_s on tm-prep"),
    ("retrieval.queries", "count", "lower", "retrieve_best calls",
     "throughput_per_s and op_ms_tail on tm-prep"),
    ("retrieval.query_ms", "ms", "lower", "retrieve_best",
     "throughput_per_s and op_ms_tail on tm-prep"),
    ("retrieval.hit_ratio", "ratio", "higher", "queries with a hit above the threshold",
     "throughput_per_s and op_ms_tail on tm-prep (workload property)"),
    ("terminology.match_calls", "count", "lower", "TermDictionary.match calls",
     "throughput_per_s on tm-prep"),
    ("terminology.match_ms", "ms", "lower", "TermDictionary.match",
     "throughput_per_s on tm-prep"),
    ("terminology.terms_per_call", "count", "higher", "entries matched per call",
     "throughput_per_s on tm-prep (workload property)"),
    ("prompt.assemble_calls", "count", "lower", "assemble calls",
     "throughput_per_s on tm-prep"),
    ("prompt.assemble_ms", "ms", "lower", "assemble self time",
     "throughput_per_s on tm-prep"),
    ("prompt.prefix_tokens_mean", "tokens", "lower", "target units before [Output]",
     "throughput_per_s on tm-prep (workload property)"),
    ("corpus.bpe_encode_sequence_ms", "ms", "lower", "bpe_encode_sequence",
     "throughput_per_s on tm-prep"),
    ("pipeline.build_bundles_ms", "ms", "lower", "build_bundles self time",
     "throughput_per_s on tm-prep"),
    ("synth.generate_ms", "ms", "lower", "synth.generate", "run_s on pipeline-term"),
    ("corpus.train_bpe_ms", "ms", "lower", "train_bpe", "run_s on pipeline-term"),
    ("metrics.evaluate_ms", "ms", "lower", "metrics.evaluate", "run_s on pipeline-term"),
    ("trace.spans", "count", "lower", "spans recorded", "tracing cost, on every workload"),
    ("trace.overhead_s", "s", "lower", "traced run_s minus untraced run_s",
     "tracing cost, on every workload"),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, n_passes: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric from the spans of n_passes traced passes."""
    selft = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def ms(name, keep=lambda s: True):
        return 1000.0 * sum(selft[s.id] for s in named(name) if keep(s)) / n_passes

    def count(name):
        return len(named(name)) / n_passes

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name))

    # inside train, a make_batch directly followed by forward belongs to
    # the validation pass; one followed by loss_and_gradients to a step
    span_of = {s.id: s for s in spans}
    val_ms = 0.0
    val_batches = set()
    for parent in named("model.train"):
        kids = [s for s in spans if s.parent == parent.id]
        for i, kid in enumerate(kids):
            if kid.name == "model.forward":
                start = kid.start
                if i > 0 and kids[i - 1].name == "model.make_batch":
                    start = kids[i - 1].start
                    val_batches.add(kids[i - 1].id)
                val_ms += 1000.0 * (kid.end - start)
    steps = named("model.loss_and_gradients")
    step_s = sum(s.duration for s in steps)
    flop = attr_sum("model.loss_and_gradients", "flop")
    positions = attr_sum("decode.decoder_logits", "positions")
    beams = named("decode.beam_search")
    queries = named("retrieval.retrieve_best")
    matches = named("terminology.match")

    def in_step(span):
        parent = span_of.get(span.parent)
        return parent is not None and parent.name == "model.loss_and_gradients"

    values = {
        "model.steps": count("model.loss_and_gradients"),
        "model.make_batch_ms": ms("model.make_batch", lambda s: s.id not in val_batches),
        "model.forward_ms": ms("model.forward", in_step),
        "model.backward_ms": ms("model.loss_and_gradients"),
        "model.adam_ms": ms("model.adam"),
        "model.val_pass_ms": val_ms / n_passes,
        "model.pad_ratio": _ratio(attr_sum("model.make_batch", "real"),
                                  attr_sum("model.make_batch", "slots")),
        "model.step_gflop": _ratio(flop, len(steps)) / 1e9,
        "model.achieved_gflops": _ratio(flop, step_s) / 1e9,
        "model.checkpoint_save_ms": ms("model.checkpoint_save"),
        "model.checkpoint_load_ms": ms("model.checkpoint_load"),
        "decode.encode_ms": ms("decode.encode_source"),
        "decode.decoder_calls": count("decode.decoder_logits"),
        "decode.decoder_ms": ms("decode.decoder_logits"),
        "decode.decoder_positions": positions / n_passes,
        "decode.useful_ratio": _ratio(attr_sum("decode.translate", "generated"), positions),
        "decode.bookkeeping_ms": ms("decode.beam_search"),
        "decode.forced_tokens_mean": _mean(s.attrs["forced"] for s in named("decode.translate")),
        "decode.generated_tokens_mean": _mean(
            s.attrs["generated"] for s in named("decode.translate")),
        "decode.finished_ratio": _ratio(
            sum(1 for s in beams if s.attrs["ids"][-1] == EOS_ID), len(beams)),
        "retrieval.index_build_ms": ms("retrieval.index_build"),
        "retrieval.queries": count("retrieval.retrieve_best"),
        "retrieval.query_ms": ms("retrieval.retrieve_best"),
        "retrieval.hit_ratio": _ratio(sum(s.attrs["hit"] for s in queries), len(queries)),
        "terminology.match_calls": count("terminology.match"),
        "terminology.match_ms": ms("terminology.match"),
        "terminology.terms_per_call": _ratio(attr_sum("terminology.match", "terms"), len(matches)),
        "prompt.assemble_calls": count("prompt.assemble"),
        "prompt.assemble_ms": ms("prompt.assemble"),
        "prompt.prefix_tokens_mean": _mean(s.attrs["prefix"] for s in named("prompt.assemble")),
        "corpus.bpe_encode_sequence_ms": ms("corpus.bpe_encode_sequence"),
        "pipeline.build_bundles_ms": ms("pipeline.build_bundles"),
        "synth.generate_ms": ms("synth.generate"),
        "corpus.train_bpe_ms": ms("corpus.train_bpe"),
        "metrics.evaluate_ms": ms("metrics.evaluate"),
        "trace.spans": len(spans) / n_passes,
        "trace.overhead_s": overhead_s,
    }
    units = {name: unit for name, unit, *_ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
