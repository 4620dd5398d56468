"""The three workloads: each makes its inputs from a seed, runs passes over
them, checks the outputs and turns the passes into end-to-end metrics.

All workloads are closed-loop with one caller: one process, one Python
thread, the next call made when the previous one returns.

End-to-end metrics mean the same on every workload:
  run_s             median wall time of one pass
  throughput_per_s  the workload's unit of work per second
  op_ms_p50/tail    latency of one operation: the median and the highest
                    percentile with ten operations beyond it (p90 for 100
                    operations a pass), per pass, median over passes
The unit and the operation differ:
  pipeline-term  pass = one run_pipeline; unit = trained decoder position
                 (non-pad, over all steps) per second of train; operation =
                 one training step (loss_and_gradients plus Adam.step)
  decode-long    pass = translate every sentence once; unit = sentence;
                 operation = one translate call
  tm-prep        pass = build the TM index, then prepare every query;
                 unit = prepared example; operation = build_bundles plus
                 assemble for one query
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from promptmt import corpus, decode, model, pipeline, prompt, retrieval, synth
from promptmt.corpus import OUTPUT, SentencePair
from promptmt.pipeline import RunConfig
from promptmt.synth import SynthConfig
from promptmt.terminology import TermDictionary, TermEntry

from . import checks as chk
from .stats import median, percentile, tail_percentile


@dataclass
class PassResult:
    seconds: float
    latencies_ms: list
    work: float  # units of work done in work_seconds
    work_seconds: float
    outputs: object  # compared across passes: same seed, same outputs
    extra: dict = field(default_factory=dict)


def end_to_end(passes) -> dict:
    """Medians over passes. op_ms_tail is the highest percentile of one
    pass's operations with at least ten beyond it."""
    tail = tail_percentile(len(passes[0].latencies_ms))
    return {
        "run_s": median([p.seconds for p in passes]),
        "throughput_per_s": median([p.work / p.work_seconds for p in passes]),
        "op_ms_p50": median([percentile(p.latencies_ms, 50) for p in passes]),
        "op_ms_tail": median([percentile(p.latencies_ms, tail) for p in passes]),
    }


class Workload:
    name = ""
    # probe names an untraced pass needs for its metrics and checks
    needs: tuple = ()

    def setup(self, seed: int, out_dir: Path):
        raise NotImplementedError

    def run_pass(self, state, tracer) -> PassResult:
        raise NotImplementedError

    def check(self, state, passes, tracer, checks: chk.Checks) -> None:
        """Outputs of every pass are compared with the first pass's."""
        for p in passes[1:]:
            checks.expect(p.outputs == passes[0].outputs,
                          f"{self.name}: pass outputs differ for one seed")

    def details(self, state, passes) -> dict:
        return {}


# --- pipeline-term ---------------------------------------------------------

PIPELINE_STAGE_EPOCHS = (2, 6)


def pipeline_config(seed: int) -> RunConfig:
    """The criterion-9 configuration with a short fixed epoch budget;
    patience exceeds every stage, so each run takes the same steps."""
    stage1, stage2 = PIPELINE_STAGE_EPOCHS
    return RunConfig(
        seed=seed,
        knowledge=("term",),
        mix_plain=True,
        synth=SynthConfig(n_train=1400, len_min=2, len_max=5),
        d_model=64,
        n_heads=4,
        n_enc_layers=2,
        n_dec_layers=2,
        d_ff=256,
        dropout=0.05,
        batch_size=64,
        lr=2e-3,
        warmup_steps=150,
        schedule="linear",
        stage1_epochs=stage1,
        stage2_epochs=stage2,
        patience=30,
    )


@dataclass
class PipelineState:
    cfg: RunConfig
    out_dir: Path


class PipelineTerm(Workload):
    name = "pipeline-term"
    needs = ("model.train", "model.loss_and_gradients", "model.adam")

    def setup(self, seed, out_dir):
        cfg = pipeline_config(seed)
        # one training step at the workload's shapes, so lazy numpy and
        # BLAS start-up is paid before the first timed pass
        mcfg = cfg.model_config(64)
        params = model.init_params(mcfg, seed=seed)
        rng = np.random.default_rng(seed)
        batch = model.Batch(
            src=rng.integers(9, 64, size=(cfg.batch_size, 7)),
            src_pad=np.ones((cfg.batch_size, 7)),
            out=rng.integers(9, 64, size=(cfg.batch_size, 8)),
            loss_mask=np.ones((cfg.batch_size, 8)),
        )
        _, grads = model.loss_and_gradients(params, mcfg, batch, np.random.default_rng(seed))
        model.Adam(params, cfg.train_config(1, seed)).step(params, grads)
        return PipelineState(cfg=cfg, out_dir=out_dir)

    def run_pass(self, state, tracer):
        work = Path(tempfile.mkdtemp(prefix="pipeline-", dir=state.out_dir))
        try:
            start = time.perf_counter()
            result = pipeline.run_pipeline(state.cfg, work)
            seconds = time.perf_counter() - start
            hyps = [
                (work / name).read_text(encoding="utf-8").splitlines()
                for name in ("hyp.prompted.txt", "hyp.plain.txt")
            ]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        trains = tracer.named("model.train", tracer.run)
        steps = tracer.named("model.loss_and_gradients", tracer.run)
        adams = tracer.named("model.adam", tracer.run)
        latencies = [1000.0 * (s.duration + a.duration) for s, a in zip(steps, adams)]
        stats = dict(result["stats"])
        stats.pop("sentences_per_second")
        outputs = {
            "prompted": result["prompted"].to_dict(),
            "unprompted": result["unprompted"].to_dict(),
            "stats": stats,
            "hyps": hyps,
            "losses": [(t.attrs["train_losses"], t.attrs["val_losses"]) for t in trains],
        }
        return PassResult(
            seconds=seconds,
            latencies_ms=latencies,
            work=sum(t.attrs["tokens"] for t in trains),
            work_seconds=sum(t.duration for t in trains),
            outputs=outputs,
            extra={"steps": len(steps), "adams": len(adams)},
        )

    def check(self, state, passes, tracer, checks):
        n_test = state.cfg.synth.n_test
        for p in passes:
            losses = p.outputs["losses"]
            checks.expect(len(losses) == 2, f"pipeline-term: {len(losses)} train calls, not 2")
            for train_losses, val_losses in losses:
                checks.expect(chk.all_finite(train_losses + val_losses),
                              "pipeline-term: a loss is not finite")
            checks.expect(len(losses) == 2 and chk.loss_falls(losses[-1][0]),
                          "pipeline-term: stage-2 training loss does not fall")
            for hyps in p.outputs["hyps"]:
                checks.expect(len(hyps) == n_test,
                              f"pipeline-term: {len(hyps)} hypotheses, not {n_test}")
            checks.expect(p.extra["steps"] == p.extra["adams"] > 0,
                          "pipeline-term: steps and optimizer updates do not pair up")
        super().check(state, passes, tracer, checks)

    def details(self, state, passes):
        out = passes[0].outputs
        return {
            "epochs": list(PIPELINE_STAGE_EPOCHS),
            "bleu_prompted": out["prompted"]["bleu"],
            "bleu_unprompted": out["unprompted"]["bleu"],
            "term_exact_match_prompted": out["prompted"]["exact_match"],
            "term_exact_match_unprompted": out["unprompted"]["exact_match"],
            "final_val_loss": out["losses"][-1][1][-1],
            "steps_per_pass": passes[0].extra["steps"],
            "train_s_per_pass": median([p.work_seconds for p in passes]),
        }


# --- decode-long -----------------------------------------------------------

DECODE_SENTENCES = 100
DECODE_NEW_TOKENS = 48
DECODE_LEN = (8, 16)  # source tokens, the ambiguous term included
# fixed so that every seed decodes with the same kind of untrained model,
# whose beams run to the token limit
DECODE_INIT_SEED = 11


def _stratified(pairs, n):
    """n pairs, the same number of each source length (the longest lengths
    take the remainder), so every seed decodes the same amount of work."""
    by_len = {}
    for pair in pairs:
        by_len.setdefault(len(pair.source), []).append(pair)
    lengths = sorted(by_len)
    chosen = []
    for i, length in enumerate(lengths):
        want = n // len(lengths) + (1 if len(lengths) - i <= n % len(lengths) else 0)
        if len(by_len[length]) < want:
            raise ValueError(f"only {len(by_len[length])} sentences of length {length}")
        chosen += by_len[length][:want]
    return chosen


@dataclass
class DecodeState:
    params: dict
    config: model.ModelConfig
    vocab: corpus.Vocab
    bpe: corpus.BpeModel
    examples: list
    prefixes: list
    beam: decode.BeamConfig


class DecodeLong(Workload):
    name = "decode-long"
    needs = ("decode.beam_search",)

    def setup(self, seed, out_dir):
        train_pairs, test, dictionary, tm_entries = synth.generate(SynthConfig(
            n_train=200, n_test=4 * DECODE_SENTENCES, len_min=DECODE_LEN[0] - 1,
            len_max=DECODE_LEN[1] - 1, seed=seed,
        ))
        test = _stratified(test, DECODE_SENTENCES)
        pairs = train_pairs + test
        bpe = corpus.train_bpe(
            [list(p.source) for p in pairs] + [list(p.target) for p in pairs], num_merges=300
        )
        sides = [(p.source, p.target) for p in pairs]
        sides += [(e.source, e.target) for e in dictionary.entries]
        sides += [(src, tgt) for _, src, tgt in tm_entries]
        vocab = corpus.Vocab.build(
            unit for side in sides for tokens in side
            for unit in corpus.bpe_encode_sequence(bpe, tokens)
        )
        cfg = RunConfig(knowledge=("term", "sent"))
        bundles = pipeline.build_bundles(test, dictionary, retrieval.TmIndex(tm_entries), cfg)
        examples = prompt.build_dataset(test, bundles, include_target=False, bpe=bpe)
        mcfg = model.ModelConfig(
            vocab_size=len(vocab), d_model=64, n_heads=4, n_enc_layers=2, n_dec_layers=2,
            d_ff=256, max_positions=96, dropout=0.05,
        )
        params = model.init_params(mcfg, seed=DECODE_INIT_SEED)
        prefixes = [
            vocab.encode(ex.output_tokens[: ex.output_tokens.index(OUTPUT) + 1]) for ex in examples
        ]
        return DecodeState(
            params=params, config=mcfg, vocab=vocab, bpe=bpe, examples=examples,
            prefixes=prefixes,
            beam=decode.BeamConfig(beam_size=4, max_new_tokens=DECODE_NEW_TOKENS),
        )

    def run_pass(self, state, tracer):
        outputs = []
        latencies = []
        generated = 0
        start = time.perf_counter()
        for ex in state.examples:
            t0 = time.perf_counter()
            tokens, stats = decode.translate(
                state.params, state.config, state.vocab, ex, state.beam, bpe=state.bpe
            )
            latencies.append(1000.0 * (time.perf_counter() - t0))
            outputs.append(tokens)
            generated += stats.tokens_generated
        seconds = time.perf_counter() - start
        return PassResult(
            seconds=seconds,
            latencies_ms=latencies,
            work=len(outputs),
            work_seconds=sum(latencies) / 1000.0,
            outputs=outputs,
            extra={"generated": generated},
        )

    def check(self, state, passes, tracer, checks):
        for run, p in enumerate(passes):
            beams = tracer.named("decode.beam_search", run)
            checks.expect(len(beams) == len(state.examples),
                          f"decode-long: {len(beams)} beam searches for "
                          f"{len(state.examples)} sentences")
            for span, prefix, tokens in zip(beams, state.prefixes, p.outputs):
                ids = span.attrs["ids"]
                checks.expect(chk.starts_with_prefix(ids, prefix),
                              "decode-long: a beam_search result does not start with its prefix")
                checks.expect(
                    tokens == chk.expected_translation(ids, prefix, state.vocab, state.bpe),
                    "decode-long: translate did not return the material after the prefix",
                )
        # criterion-8 oracle on a fixed sample: beam 1 is greedy decoding;
        # greedy_decode is a test oracle and may leave the library
        greedy_decode = getattr(decode, "greedy_decode", None)
        one = decode.BeamConfig(beam_size=1, max_new_tokens=DECODE_NEW_TOKENS)
        sample = list(zip(state.examples, state.prefixes))[:3] if greedy_decode else []
        for ex, prefix in sample:
            src = np.array([state.vocab.encode(ex.input_tokens)], dtype=np.int64)
            pad = np.ones_like(src, dtype=np.float64)
            beam_ids = decode.beam_search(state.params, state.config, src, pad, prefix, one)
            greedy_ids = greedy_decode(
                state.params, state.config, src, pad, prefix, DECODE_NEW_TOKENS
            )
            checks.expect(beam_ids == greedy_ids, "decode-long: beam 1 differs from greedy_decode")
        super().check(state, passes, tracer, checks)

    def details(self, state, passes):
        generated = sum(p.extra["generated"] for p in passes)
        return {
            "generated_tokens_per_s": generated / sum(p.work_seconds for p in passes),
            "forced_tokens_mean": float(np.mean([len(x) for x in state.prefixes])),
            "generated_tokens_mean": passes[0].extra["generated"] / len(state.examples),
        }


# --- tm-prep ---------------------------------------------------------------

TM_ENTRIES = 20_000
TM_WORDS = 3_000
TM_LEN = (3, 40)
TM_QUERIES = 100
# near-duplicate queries come first; with two clusters of latency, a 50/50
# split would put the median between them, where it jumps from run to run
TM_NEAR = 40
TM_THRESHOLD = 0.5
TM_TERMS = 400
TM_CHECKED = 4  # near-duplicate and random queries each checked by brute force


@dataclass
class TmState:
    entries: list
    dictionary: TermDictionary
    bpe: corpus.BpeModel
    queries: list
    cfg: RunConfig
    index: object = None


def _words(prefix, ids):
    return tuple(f"{prefix}{i}" for i in ids)


def tm_inputs(seed: int):
    """Memory entries, term dictionary and queries for one seed.

    Source words w<i> follow a Zipf-like law over TM_WORDS words and
    translate word for word to x<i>. Entry lengths cycle over TM_LEN so
    every seed has the same length profile. The first TM_NEAR queries are
    near-duplicates of an entry, the rest random sentences of 12-40 words
    drawn uniformly, which share too little with any entry to pass the
    threshold; query lengths also cycle.
    """
    rng = np.random.default_rng(seed)
    lo, hi = TM_LEN
    lengths = lo + np.arange(TM_ENTRIES) % (hi - lo + 1)
    weights = 1.0 / (np.arange(TM_WORDS) + 20.0)
    flat = rng.choice(TM_WORDS, size=int(lengths.sum()), p=weights / weights.sum())
    entries = []
    pos = 0
    for eid, length in enumerate(lengths):
        ids = flat[pos : pos + length]
        pos += length
        entries.append((eid, _words("w", ids), _words("x", ids)))

    terms = {}
    while len(terms) < TM_TERMS:
        ids = tuple(int(i) for i in rng.integers(30, 600, size=int(rng.integers(1, 3))))
        terms.setdefault(ids, len(terms))
    dictionary = TermDictionary(
        [TermEntry(source=_words("w", ids), target=_words("x", ids), id=i)
         for ids, i in terms.items()]
    )

    queries = []
    for k in range(TM_NEAR):
        # an entry of length 8..40, in turn: one substitution and one deletion
        length = 8 + k % (hi - 7)
        eid = (length - lo) + (hi - lo + 1) * int(rng.integers(0, TM_ENTRIES // (hi - lo + 1)))
        ids = [int(t[1:]) for t in entries[eid][1]]
        ids[int(rng.integers(0, len(ids)))] = int(rng.integers(0, TM_WORDS))
        del ids[int(rng.integers(0, len(ids)))]
        queries.append(ids)
    for k in range(TM_QUERIES - TM_NEAR):
        queries.append([int(i) for i in rng.integers(0, TM_WORDS, size=12 + k % (hi - 11))])
    pairs = [SentencePair(_words("w", ids), _words("x", ids), id=k)
             for k, ids in enumerate(queries)]
    return entries, dictionary, pairs


class TmPrep(Workload):
    name = "tm-prep"

    def setup(self, seed, out_dir):
        entries, dictionary, queries = tm_inputs(seed)
        bpe = corpus.train_bpe(
            [list(s) for _, s, _ in entries] + [list(t) for _, _, t in entries], num_merges=100
        )
        cfg = RunConfig(knowledge=("term", "sent"), threshold=TM_THRESHOLD)
        return TmState(entries=entries, dictionary=dictionary, bpe=bpe, queries=queries, cfg=cfg)

    def run_pass(self, state, tracer):
        start = time.perf_counter()
        index = retrieval.TmIndex(state.entries)
        build_s = time.perf_counter() - start
        latencies = []
        outputs = []
        for query in state.queries:
            t0 = time.perf_counter()
            (bundle,) = pipeline.build_bundles([query], state.dictionary, index, state.cfg)
            example = prompt.assemble(query, bundle, bpe=state.bpe)
            latencies.append(1000.0 * (time.perf_counter() - t0))
            outputs.append((bundle, example))
        seconds = time.perf_counter() - start
        state.index = index
        return PassResult(
            seconds=seconds,
            latencies_ms=latencies,
            work=len(outputs),
            work_seconds=sum(latencies) / 1000.0,
            outputs=outputs,
            extra={"build_s": build_s,
                   "hits": sum(1 for b, _ in outputs if b.similar is not None)},
        )

    def check(self, state, passes, tracer, checks):
        outputs = passes[0].outputs
        near = min(TM_NEAR, len(state.queries) // 2)
        sample = list(range(TM_CHECKED)) + list(range(near, near + TM_CHECKED))
        for k in sample:
            query = state.queries[k]
            hit = state.index.retrieve_best(query.source, TM_THRESHOLD)
            expected = chk.brute_force_best(query.source, state.entries, TM_THRESHOLD)
            checks.expect(chk.same_hit(hit, expected),
                          f"tm-prep: query {k} retrieved {hit and hit.id}, brute force {expected}")
            similar = outputs[k][0].similar
            checks.expect(similar == (None if hit is None else (hit.src, hit.tgt)),
                          f"tm-prep: query {k} bundle does not carry its TM hit")
        for _, example in outputs:
            checks.expect(chk.mask_ones_exactly_after_output(example),
                          f"tm-prep: example {example.id} loss mask is not 1 "
                          f"exactly after {OUTPUT}")
        super().check(state, passes, tracer, checks)

    def details(self, state, passes):
        return {
            "index_build_s": median([p.extra["build_s"] for p in passes]),
            "hits_per_pass": passes[0].extra["hits"],
            "queries_per_pass": len(state.queries),
        }


WORKLOADS = {w.name: w for w in (PipelineTerm(), DecodeLong(), TmPrep())}
