"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check measures the implementation against an independent oracle
(textbook DP, brute-force scans, finite differences, hand arithmetic) or
runs the full synthetic experiment and asserts the directional result.
Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
the two end-to-end experiments dominate the runtime (several minutes
each, budget 15 min apiece).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from fd import check_gradients
from promptmt.corpus import (
    INPUT,
    OUTPUT,
    SPECIAL_TOKENS,
    Vocab,
    bpe_decode_sequence,
    bpe_encode,
    train_bpe,
)
from promptmt.decode import BeamConfig, batch_translate, beam_search, greedy_decode, translate
from promptmt.metrics import corpus_bleu
from promptmt.model import (
    Batch,
    ModelConfig,
    init_params,
    loss,
    loss_and_gradients,
)
from promptmt.pipeline import RunConfig, run_pipeline
from promptmt.prompt import PromptedExample
from promptmt.retrieval import TmIndex, similarity, token_edit_distance
from promptmt.synth import SynthConfig
from promptmt.template import ParseTree, extract_template, parse_ptb
from promptmt.terminology import TermDictionary, TermEntry


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {detail}")


# --------------------------------------------------------------------------
# oracles


def dp_edit_distance(a, b) -> int:
    """Textbook Wagner-Fischer over full rows."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def dp_edit_distances(queries, sources) -> np.ndarray:
    """(len(queries), len(sources)) edit distances: the Wagner-Fischer
    recurrence run cell by cell over sequences padded to the longest, each
    cell for every pair at once. Cells past a sequence's end are computed
    but never read, as D[i, j] depends only on cells above and left of it."""
    ids = {}
    q_len = np.array([len(x) for x in queries])
    s_len = np.array([len(x) for x in sources])

    def padded(seqs, width, pad):
        out = np.full((len(seqs), width), pad)
        for row, seq in enumerate(seqs):
            out[row, : len(seq)] = [ids.setdefault(tok, len(ids)) for tok in seq]
        return out

    q = padded(queries, q_len.max(), -1)
    s = padded(sources, s_len.max(), -2)
    # prev[j] and cur[j] hold D[i - 1, j] and D[i, j] for every pair
    prev = np.broadcast_to(
        np.arange(s.shape[1] + 1)[:, None, None], (s.shape[1] + 1, len(queries), len(sources))
    ).astype(np.int16)
    dist = np.zeros((len(queries), len(sources)), dtype=np.int16)
    columns = np.arange(len(sources))
    for i in range(q.shape[1] + 1):
        if i > 0:
            cur = np.empty_like(prev)
            cur[0] = i
            for j in range(1, s.shape[1] + 1):
                substitute = prev[j - 1] + (q[:, i - 1, None] != s[None, :, j - 1])
                cur[j] = np.minimum(np.minimum(prev[j] + 1, cur[j - 1] + 1), substitute)
            prev = cur
        done = q_len == i
        dist[done] = prev[s_len, :, columns].T[done]
    return dist


def contains(haystack, needle) -> bool:
    n = len(needle)
    return n > 0 and any(
        list(haystack[i : i + n]) == list(needle) for i in range(len(haystack) - n + 1)
    )


def random_tree(rng, depth_left: int) -> ParseTree:
    labels = ["S", "NP", "VP", "PP"]
    words = ["the", "cat", "sat", "on", "mat", "a"]
    if depth_left == 1 or rng.random() < 0.3:
        word = words[rng.integers(0, len(words))]
        return ParseTree(label="NN", word=word)
    n_children = int(rng.integers(1, 4))
    children = tuple(random_tree(rng, depth_left - 1) for _ in range(n_children))
    return ParseTree(label=labels[rng.integers(0, len(labels))], children=children)


# --------------------------------------------------------------------------
# criteria


def test_criterion_1_edit_distance_oracle():
    rng = np.random.default_rng(1)
    alphabet = [f"w{i}" for i in range(8)]
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        a = [alphabet[i] for i in rng.integers(0, 8, size=rng.integers(0, 31))]
        b = [alphabet[i] for i in rng.integers(0, 8, size=rng.integers(0, 31))]
        assert token_edit_distance(a, b) == dp_edit_distance(a, b)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 1000 and elapsed < 5.0
    verdict(1, ok, f"edit distance == DP oracle on {checked} pairs in {elapsed:.2f}s (< 5s)")
    assert ok


def test_criterion_2_retrieval_oracle():
    rng = np.random.default_rng(2)
    alphabet = [f"w{i}" for i in range(6)]

    def sentence(lo=1, hi=12):
        return [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(lo, hi + 1))]

    start = time.perf_counter()
    queries = [sentence() for _ in range(200)]
    entries = []
    # noisy copies of the queries guarantee hits at every threshold
    for qid, q in enumerate(queries):
        noisy = list(q)
        for _ in range(int(rng.integers(0, 3))):
            if noisy:
                noisy[rng.integers(0, len(noisy))] = alphabet[rng.integers(0, 6)]
        entries.append((qid, noisy, ["t"] * len(noisy)))
    while len(entries) < 5000:
        s = sentence()
        entries.append((len(entries), s, ["t"] * len(s)))
    index = TmIndex(entries)
    hits = {lam: [index.retrieve_best(q, lam) for q in queries] for lam in (0.4, 0.5, 0.6)}
    elapsed = time.perf_counter() - start

    # the score matrix is threshold-free; compute it once
    longest = np.maximum.outer([len(q) for q in queries], [len(src) for _, src, _ in entries])
    oracle_scores = 1.0 - dp_edit_distances(queries, [src for _, src, _ in entries]) / longest
    eids = np.array([eid for eid, _, _ in entries])
    coverage = {}
    for lam, lam_hits in hits.items():
        for q, scores, hit in zip(queries, oracle_scores, lam_hits):
            eligible = (scores > lam) & (scores < 1.0)
            if not eligible.any():
                assert hit is None, (q, lam)
                continue
            # best score, ties to the lowest entry id
            score = scores[eligible].max()
            eid = eids[eligible & (scores == score)].min()
            assert hit is not None and (hit.id, hit.score) == (eid, score), (q, lam)
        coverage[lam] = sum(hit is not None for hit in lam_hits)
    monotone = coverage[0.4] >= coverage[0.5] >= coverage[0.6]
    ok = monotone and elapsed < 30.0
    verdict(2, ok, f"retrieval == brute force, coverage {coverage[0.4]}/{coverage[0.5]}/"
                   f"{coverage[0.6]} at 0.4/0.5/0.6, index and queries in {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_3_soft_match_oracle():
    rng = np.random.default_rng(3)
    alphabet = [f"w{i}" for i in range(5)]

    def phrase(hi=3):
        return tuple(alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, hi + 1)))

    for case in range(500):
        entries = [
            TermEntry(source=phrase(), target=phrase(), id=i)
            for i in range(int(rng.integers(1, 20)))
        ]
        dictionary = TermDictionary(entries)
        source = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 10))]
        target = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 10))]

        want_src = [e for e in entries if contains(source, e.source)]
        assert dictionary.match_source_only(source) == want_src, case
        want_both = [
            e for e in entries
            if contains(source, e.source) and contains(target, e.target)
        ]
        assert dictionary.match(source, target) == want_both, case
    verdict(3, True, "soft match == brute-force containment on 500 instances")


def test_criterion_4_bpe_round_trip():
    rng = np.random.default_rng(4)
    alphabet = "abcdef"
    corpus_tokens = [
        "".join(alphabet[i] for i in rng.integers(0, 6, size=rng.integers(1, 9)))
        for _ in range(400)
    ]
    model = train_bpe([corpus_tokens], num_merges=80)
    retrained = train_bpe([corpus_tokens], num_merges=80)
    deterministic = model.merges == retrained.merges

    ok_round_trip = True
    for _ in range(10_000):
        token = "".join(alphabet[i] for i in rng.integers(0, 6, size=rng.integers(1, 12)))
        if bpe_decode_sequence(model, bpe_encode(model, token)) != [token]:
            ok_round_trip = False
            break
    ok = deterministic and ok_round_trip
    verdict(4, ok, "decode(encode(token)) identity on 10,000 tokens; retraining deterministic")
    assert ok_round_trip
    assert deterministic


def test_criterion_5_template_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        tree = random_tree(rng, depth_left=5)
        while tree.is_leaf:
            tree = random_tree(rng, depth_left=5)
        depth = tree.height() + int(rng.integers(0, 3))
        assert extract_template(tree, depth) == tree.words()
    example = parse_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
    depth_one = extract_template(example, depth=1)
    ok = depth_one == ["NP", "VP"]
    verdict(5, ok, f"full-depth identity on 100 trees; depth-1 example -> {depth_one}")
    assert ok


def test_criterion_6_gradient_check():
    start = time.perf_counter()
    config = ModelConfig(
        vocab_size=12,
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        max_positions=16,
        dropout=0.0,
    )
    params = init_params(config, seed=6)
    rng = np.random.default_rng(6)
    src = rng.integers(4, 12, size=(2, 5), dtype=np.int64)
    out = rng.integers(4, 12, size=(2, 6), dtype=np.int64)
    mask = np.zeros((2, 6))
    mask[:, 2:] = 1.0
    batch = Batch(src=src, src_pad=np.ones((2, 5)), out=out, loss_mask=mask)
    _, grads = loss_and_gradients(params, config, batch)
    worst, worst_at = check_gradients(params, config, batch, grads, rng,
                                      samples_per_tensor=20)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(6, ok, f"worst relative gradient error {worst:.2e} (< 1e-4) "
                   f"over >=20 samples/tensor in {elapsed:.1f}s (< 60s)")
    assert ok, f"worst {worst:.2e} at {worst_at}"


def test_criterion_7_loss_oracle():
    rng = np.random.default_rng(7)
    b, t, v = 3, 5, 9
    logits = rng.normal(size=(b, t, v))
    out = rng.integers(0, v, size=(b, t), dtype=np.int64)
    mask = (rng.random(size=(b, t)) < 0.6).astype(float)
    mask[:, -1] = 1.0  # no all-zero rows
    batch = Batch(np.zeros((b, 1), dtype=np.int64), np.ones((b, 1)), out, mask)

    expected = 0.0
    for i in range(b):
        for j in range(t):
            if mask[i, j]:
                row = logits[i, j]
                logp = row[out[i, j]] - np.log(np.exp(row - row.max()).sum()) - row.max()
                expected -= logp
    expected /= b
    got = loss(logits, batch)
    rel = abs(got - expected) / abs(expected)

    relabeled = out.copy()
    relabeled[mask == 0] = (relabeled[mask == 0] + 1) % v
    invariant = loss(logits, Batch(batch.src, batch.src_pad, relabeled, mask)) == got
    ok = rel < 1e-10 and invariant
    verdict(7, ok, f"loss matches per-position NLL oracle (rel err {rel:.1e} < 1e-10); "
                   f"relabeling masked-out positions is a no-op")
    assert ok


def test_criterion_8_forced_prefix_fidelity():
    config = ModelConfig(
        vocab_size=17, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_ff=16, max_positions=64, dropout=0.0,
    )
    params = init_params(config, seed=8)
    vocab = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(17 - len(SPECIAL_TOKENS))])
    rng = np.random.default_rng(8)
    beam = BeamConfig(beam_size=1, max_new_tokens=8)
    wide = BeamConfig(beam_size=4, max_new_tokens=8)

    for _ in range(100):
        words = [int(i) for i in
                 rng.integers(len(SPECIAL_TOKENS), 17, size=int(rng.integers(1, 7)))]
        prefix = [int(i) for i in
                  rng.integers(len(SPECIAL_TOKENS), 17, size=rng.integers(0, 6))]
        example = PromptedExample(
            id=0,
            input_tokens=(INPUT,) + tuple(vocab.token_of(i) for i in words),
            output_tokens=tuple(vocab.token_of(i) for i in prefix) + (OUTPUT,),
            loss_mask=(0,) * (len(prefix) + 1),
        )
        src = np.array([vocab.encode(example.input_tokens)], dtype=np.int64)
        src_pad = np.ones_like(src, dtype=np.float64)

        full = beam_search(params, config, src, src_pad, prefix, wide)
        assert full[: len(prefix)] == prefix

        narrow = beam_search(params, config, src, src_pad, prefix, beam)
        assert narrow == greedy_decode(params, config, src, src_pad, prefix, 8)

        tokens, stats = translate(params, config, vocab, example, wide)
        assert stats.tokens_forced == len(prefix) + 1
        # the returned translation is exactly the post-prefix material
        full_ids = beam_search(params, config, src, src_pad,
                               prefix + [vocab.id_of(OUTPUT)], wide)
        want = [vocab.token_of(i) for i in full_ids[len(prefix) + 1 :]]
        if want and want[-1] == "<eos>":
            want = want[:-1]
        assert tokens == want
    verdict(8, True, "100 random prefixes: beam output begins with the prefix, "
                     "translation excludes it, beam_size=1 == greedy")


CRITERION_9_CONFIG = RunConfig(
    seed=7,
    knowledge=("term",),
    mix_plain=True,
    synth=SynthConfig(n_train=1400, len_min=2, len_max=5),
    d_model=64,
    n_heads=4,
    d_ff=256,
    dropout=0.05,
    batch_size=64,
    lr=2e-3,
    warmup_steps=150,
    schedule="linear",
    stage1_epochs=8,
    stage2_epochs=120,
    patience=30,
)

CRITERION_10_CONFIG = RunConfig(
    seed=7,
    knowledge=("sent",),
    mix_plain=True,
    synth=SynthConfig(n_train=1400, len_min=2, len_max=5, term_position="final"),
    d_model=64,
    n_heads=4,
    d_ff=256,
    dropout=0.05,
    batch_size=64,
    lr=2e-3,
    warmup_steps=150,
    schedule="linear",
    stage1_epochs=10,
    stage2_epochs=90,
    patience=60,
)


def test_criterion_9_term_prompts_resolve_ambiguity(tmp_path):
    start = time.perf_counter()
    out = run_pipeline(CRITERION_9_CONFIG, tmp_path / "run")
    elapsed = time.perf_counter() - start
    prompted, plain = out["prompted"], out["unprompted"]
    ok = (
        prompted.exact_match >= 0.90
        and plain.exact_match <= 0.65
        and prompted.bleu > plain.bleu
        and elapsed < 900
    )
    verdict(9, ok, f"[Term] prompts: exact match {prompted.exact_match:.3f} (>= 0.90) "
                   f"vs unprompted {plain.exact_match:.3f} (<= 0.65), "
                   f"BLEU {prompted.bleu:.2f} > {plain.bleu:.2f}, "
                   f"{elapsed / 60:.1f} min (< 15)")
    assert ok


def test_criterion_10_retrieval_prompts_help(tmp_path):
    start = time.perf_counter()
    cfg = CRITERION_10_CONFIG
    out = run_pipeline(cfg, tmp_path / "run")
    elapsed = time.perf_counter() - start

    # the variant's guarantee: every test source has a >= 0.6-similar TM pair
    from promptmt.synth import generate
    import dataclasses

    _, test, _, tm_entries = generate(dataclasses.replace(cfg.synth, seed=cfg.seed))
    floor = min(
        max(similarity(pair.source, src) for _, src, _ in tm_entries)
        for pair in test
    )
    prompted, plain = out["prompted"], out["unprompted"]
    ok = floor >= 0.6 and prompted.bleu >= plain.bleu + 2.0 and elapsed < 900
    verdict(10, ok, f"[Sentence] prompts: BLEU {prompted.bleu:.2f} vs {plain.bleu:.2f} "
                    f"(gap {prompted.bleu - plain.bleu:+.2f} >= 2), similarity floor "
                    f"{floor:.2f} >= 0.6, {elapsed / 60:.1f} min (< 15)")
    assert ok


def test_criterion_11_bleu_sanity():
    corpus = [
        ["the", "cat", "sat", "on", "the", "mat"],
        ["a", "dog", "ran", "down", "the", "road"],
    ]
    identity = corpus_bleu(corpus, corpus, smooth=False)
    repeated = corpus_bleu([["the", "the", "the", "the"]],
                           [["the", "cat", "sat", "down"]], smooth=False)
    ok = abs(identity - 100.0) <= 0.01 and abs(repeated - 0.0) <= 0.01
    verdict(11, ok, f"identity corpus -> {identity:.2f} (100.00); repeated-token "
                    f"hypothesis -> {repeated:.2f} (0 unsmoothed), both to 0.01")
    assert ok


def test_criterion_12_forced_token_accounting():
    config = ModelConfig(
        vocab_size=17, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_ff=16, max_positions=64, dropout=0.0,
    )
    params = init_params(config, seed=12)
    vocab = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(17 - len(SPECIAL_TOKENS))])
    # forced prefixes of 3, 5, and 4 tokens ([Output] included): mean 4.0
    fixture = [
        PromptedExample(id=0, input_tokens=(INPUT, "w0"),
                        output_tokens=("w1", "w2", OUTPUT), loss_mask=(0, 0, 0)),
        PromptedExample(id=1, input_tokens=(INPUT, "w0", "w3"),
                        output_tokens=("w1", "w2", "w3", "w4", OUTPUT),
                        loss_mask=(0,) * 5),
        PromptedExample(id=2, input_tokens=(INPUT, "w2"),
                        output_tokens=("w5", "w6", "w7", OUTPUT), loss_mask=(0,) * 4),
    ]
    _, stats = batch_translate(params, config, vocab, fixture,
                               BeamConfig(beam_size=2, max_new_tokens=6))
    ok = stats["mean_forced"] == (3 + 5 + 4) / 3
    verdict(12, ok, f"mean forced tokens {stats['mean_forced']:.1f} == (3+5+4)/3 = 4.0")
    assert ok
