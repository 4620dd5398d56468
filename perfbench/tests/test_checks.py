"""Each output check passes on real outputs and fails on a planted bad one."""

import math
import types

import numpy as np
import pytest

from perfbench import checks as chk
from perfbench.layers import probes_for
from perfbench.spans import Tracer
from perfbench.workloads import (
    DecodeLong,
    DecodeState,
    PassResult,
    PipelineState,
    PipelineTerm,
    TmPrep,
    TmState,
    pipeline_config,
)
from promptmt.corpus import INPUT, OUTPUT, SPECIAL_TOKENS, TERM, SentencePair, Vocab, train_bpe
from promptmt.decode import BeamConfig
from promptmt.model import ModelConfig, init_params
from promptmt.pipeline import RunConfig
from promptmt.prompt import PromptedExample
from promptmt.retrieval import RetrievalHit, TmIndex
from promptmt.terminology import TermDictionary, TermEntry


def run_checks(workload, state, passes, tracer):
    checks = chk.Checks()
    workload.check(state, passes, tracer, checks)
    return checks


def one_pass(workload, state, tracer, run=0):
    tracer.run = run
    with tracer.probing(probes_for(workload.needs, traced=False)):
        return workload.run_pass(state, tracer)


# --- decode-long -----------------------------------------------------------

@pytest.fixture
def decode_case():
    vocab = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(8)])
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                         n_dec_layers=1, d_ff=16, max_positions=64, dropout=0.0)
    examples = [
        PromptedExample(id=i, input_tokens=(INPUT, f"w{i}", "w5"),
                        output_tokens=(TERM, f"w{i + 1}", OUTPUT), loss_mask=(0, 0, 0))
        for i in range(3)
    ]
    state = DecodeState(
        params=init_params(config, seed=3), config=config, vocab=vocab, bpe=None,
        examples=examples, prefixes=[vocab.encode(ex.output_tokens) for ex in examples],
        beam=BeamConfig(beam_size=4, max_new_tokens=6),
    )
    tracer = Tracer()
    workload = DecodeLong()
    return workload, state, tracer, one_pass(workload, state, tracer)


def test_decode_checks_pass_on_real_output(decode_case):
    workload, state, tracer, p = decode_case
    checks = run_checks(workload, state, [p], tracer)
    assert checks.failed == 0 and checks.attempted > 0


def test_decode_that_drops_its_prefix_fails(decode_case):
    workload, state, tracer, p = decode_case
    span = tracer.spans[0]
    span.attrs["ids"] = span.attrs["ids"][len(state.prefixes[0]):]
    assert run_checks(workload, state, [p], tracer).failed > 0


def test_translation_that_is_not_the_material_after_the_prefix_fails(decode_case):
    workload, state, tracer, p = decode_case
    p.outputs[1] = p.outputs[1] + ["w7"]
    assert run_checks(workload, state, [p], tracer).failed > 0


def test_passes_that_disagree_fail(decode_case):
    workload, state, tracer, p = decode_case
    q = one_pass(workload, state, tracer, run=1)
    assert run_checks(workload, state, [p, q], tracer).failed == 0
    q.outputs[0] = ["w1"]
    assert run_checks(workload, state, [p, q], tracer).failed > 0


def test_starts_with_prefix_and_expected_translation():
    vocab = Vocab(list(SPECIAL_TOKENS) + ["a", "b"])
    prefix = vocab.encode([TERM, "a", OUTPUT])
    full = prefix + vocab.encode(["b", "a", "<eos>"])
    assert chk.starts_with_prefix(full, prefix)
    assert not chk.starts_with_prefix(full[1:], prefix)
    assert chk.expected_translation(full, prefix, vocab, None) == ["b", "a"]


# --- tm-prep ---------------------------------------------------------------

def tm_state():
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(12)]
    entries = []
    for eid in range(60):
        src = tuple(words[i] for i in rng.integers(0, 12, size=int(rng.integers(3, 9))))
        entries.append((eid, src, tuple(w.upper() for w in src)))
    entries.append((60, entries[7][1], entries[7][2]))  # duplicate source: tie on id
    queries = []
    for k in range(8):
        src = list(entries[k * 3][1])
        if k < 4:
            src[0] = "w11"
        else:
            src = [words[i] for i in rng.integers(0, 12, size=6)]
        queries.append(SentencePair(tuple(src), tuple(w.upper() for w in src), id=k))
    dictionary = TermDictionary([TermEntry(source=("w1",), target=("W1",), id=0)])
    bpe = train_bpe([list(s) for _, s, _ in entries], num_merges=10)
    return TmState(entries=entries, dictionary=dictionary, bpe=bpe, queries=queries,
                   cfg=RunConfig(knowledge=("term", "sent"), threshold=0.5))


def test_tm_checks_pass_on_real_output():
    workload, state, tracer = TmPrep(), tm_state(), Tracer()
    p = one_pass(workload, state, tracer)
    checks = run_checks(workload, state, [p], tracer)
    assert checks.failed == 0 and checks.attempted >= 16


def test_wrong_tm_hit_fails():
    workload, state, tracer = TmPrep(), tm_state(), Tracer()
    p = one_pass(workload, state, tracer)
    real = state.index

    class WrongIndex:
        def retrieve_best(self, query, threshold):
            hit = real.retrieve_best(query, threshold)
            if hit is None:
                return None
            return RetrievalHit(id=hit.id + 1, score=hit.score, src=hit.src, tgt=hit.tgt)

    state.index = WrongIndex()
    assert run_checks(workload, state, [p], tracer).failed > 0


def test_bad_loss_mask_fails():
    workload, state, tracer = TmPrep(), tm_state(), Tracer()
    p = one_pass(workload, state, tracer)
    bundle, example = p.outputs[0]
    bad = types.SimpleNamespace(id=example.id, output_tokens=example.output_tokens,
                                loss_mask=(1,) * len(example.loss_mask))
    p.outputs[0] = (bundle, bad)
    assert run_checks(workload, state, [p], tracer).failed > 0


def test_brute_force_follows_retrieve_best_rules():
    entries = [
        (5, ("a", "b", "c"), ("A",)),
        (2, ("a", "b", "d"), ("B",)),  # same score as id 5: lower id wins
        (1, ("a", "b", "e", "f"), ("C",)),
        (0, ("a", "b", "c", "d"), ("D",)),  # perfect match: skipped
    ]
    query = ("a", "b", "c", "d")
    assert chk.brute_force_best(query, entries, 0.5) == (2, 0.75)
    assert chk.brute_force_best(query, entries, 0.75) is None
    rng = np.random.default_rng(0)
    for _ in range(50):
        memory = [(i, tuple(f"t{j}" for j in rng.integers(0, 4, size=int(rng.integers(1, 7)))), ())
                  for i in range(20)]
        q = tuple(f"t{j}" for j in rng.integers(0, 4, size=int(rng.integers(1, 7))))
        hit = TmIndex(memory).retrieve_best(q, 0.3)
        assert chk.same_hit(hit, chk.brute_force_best(q, memory, 0.3))


# --- pipeline-term ---------------------------------------------------------

def pipeline_pass(train_losses=(3.0, 2.0), n_hyps=48):
    outputs = {
        "losses": [([4.0, 3.0], [3.5, 3.0]), (list(train_losses), [2.5, 2.4])],
        "hyps": [["x"] * n_hyps, ["y"] * n_hyps],
    }
    return PassResult(seconds=1.0, latencies_ms=[1.0], work=1, work_seconds=1.0,
                      outputs=outputs, extra={"steps": 3, "adams": 3})


@pytest.mark.parametrize("planted, ok", [
    ({}, True),
    ({"train_losses": (3.0, math.nan)}, False),
    ({"train_losses": (2.0, 3.0)}, False),
    ({"n_hyps": 47}, False),
])
def test_pipeline_checks(planted, ok):
    state = PipelineState(cfg=pipeline_config(0), out_dir=None)
    checks = chk.Checks()
    PipelineTerm().check(state, [pipeline_pass(**planted)], None, checks)
    assert (checks.failed == 0) == ok
