"""End-to-end pipeline behavior on deliberately tiny configurations."""

import dataclasses
import json

import pytest

from promptmt.pipeline import RunConfig, build_bundles, run_pipeline
from promptmt.metrics import EvalReport
from promptmt.retrieval import TmIndex
from promptmt.synth import SynthConfig, generate


def tiny_config(**overrides):
    base = dict(
        synth=SynthConfig(n_regular=8, n_ambiguous_terms=2, len_min=2, len_max=4,
                          n_train=40, n_test=4),
        bpe_merges=40,
        d_model=16,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=32,
        dropout=0.0,
        max_positions=64,
        batch_size=16,
        stage1_epochs=2,
        stage2_epochs=2,
        patience=5,
        beam_size=2,
        max_new_tokens=12,
        seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_rejects_unknown_knowledge_kind(self):
        with pytest.raises(ValueError, match="unknown knowledge"):
            RunConfig(knowledge=("term", "prosody"))

    def test_model_config_carries_vocab_size(self):
        cfg = tiny_config()
        assert cfg.model_config(99).vocab_size == 99
        assert cfg.model_config(99).d_model == cfg.d_model

    def test_beam_config_mirrors_fields(self):
        beam = tiny_config(beam_size=3, length_penalty=0.7).beam_config()
        assert beam.beam_size == 3
        assert beam.length_penalty == 0.7


class TestBuildBundles:
    def setup_method(self):
        self.cfg = tiny_config()
        self.train, self.test, self.dictionary, self.tm = generate(
            dataclasses.replace(self.cfg.synth, seed=3)
        )

    def test_term_bundle_uses_reference_rendering(self):
        bundles = build_bundles(self.test, self.dictionary, None,
                                tiny_config(knowledge=("term",)))
        for pair, bundle in zip(self.test, bundles):
            assert bundle.similar is None
            for src, tgt in bundle.terms:
                # the matched rendering is the one the reference uses
                assert list(tgt) == [t for t in pair.target if t == tgt[0]]

    def test_sent_bundle_is_best_hit_above_threshold(self):
        index = TmIndex(self.tm)
        bundles = build_bundles(self.test, None, index,
                                tiny_config(knowledge=("sent",)))
        for pair, bundle in zip(self.test, bundles):
            assert bundle.terms == ()
            hit = index.retrieve_best(pair.source, 0.4)
            want = None if hit is None else (hit.src, hit.tgt)
            assert bundle.similar == want

    def test_no_knowledge_kinds_gives_empty_bundles(self):
        bundles = build_bundles(self.test, self.dictionary, TmIndex(self.tm),
                                tiny_config(knowledge=()))
        assert all(b.is_empty for b in bundles)


class TestRunPipeline:
    def test_smoke_artifacts_and_reports(self, tmp_path):
        out = run_pipeline(tiny_config(), tmp_path / "run")
        assert isinstance(out["prompted"], EvalReport)
        assert isinstance(out["unprompted"], EvalReport)
        assert set(out["stats"]) == {"mean_forced", "mean_generated",
                                     "sentences_per_second"}
        for name in [
            "train.src", "train.tgt", "val.src", "val.tgt", "test.src", "test.tgt",
            "dict.jsonl", "tm.jsonl", "bpe.txt", "vocab.txt",
            "train.prompted.jsonl", "model.ckpt", "model.ckpt.json",
            "test.prompted.jsonl", "test.plain.jsonl",
            "hyp.prompted.txt", "hyp.plain.txt",
            "stats.prompted.json", "stats.plain.json",
            "report.prompted.json", "report.plain.json",
        ]:
            assert (tmp_path / "run" / name).exists(), name

    def test_each_condition_writes_its_own_report_and_stats(self, tmp_path):
        out = run_pipeline(tiny_config(), tmp_path / "run")

        def saved(name):
            return json.loads((tmp_path / "run" / name).read_text(encoding="utf-8"))

        assert saved("report.prompted.json") == dataclasses.asdict(out["prompted"])
        assert saved("report.plain.json") == dataclasses.asdict(out["unprompted"])
        # the returned stats are the prompted decode's, which forces the
        # knowledge prefix; plain decoding forces only [Output]
        assert saved("stats.prompted.json") == out["stats"]
        assert out["stats"]["mean_forced"] > saved("stats.plain.json")["mean_forced"] == 1.0

    def test_same_seed_reproduces_everything(self, tmp_path):
        cfg = tiny_config()
        a = run_pipeline(cfg, tmp_path / "a")
        b = run_pipeline(cfg, tmp_path / "b")
        assert a["prompted"].to_dict() == b["prompted"].to_dict()
        assert a["unprompted"].to_dict() == b["unprompted"].to_dict()
        for name in ["hyp.prompted.txt", "hyp.plain.txt", "vocab.txt"]:
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

    def test_different_seeds_differ(self, tmp_path):
        a = run_pipeline(tiny_config(seed=3), tmp_path / "a")
        b = run_pipeline(tiny_config(seed=4), tmp_path / "b")
        src_a = (tmp_path / "a" / "train.src").read_text()
        src_b = (tmp_path / "b" / "train.src").read_text()
        assert src_a != src_b

    def test_mix_plain_doubles_stage_two(self, tmp_path):
        lines = []
        run_pipeline(tiny_config(mix_plain=True), tmp_path / "run", log=lines.append)
        stage2 = next(l for l in lines if l.startswith("stage 2:"))
        # 36 prompted training examples plus the same 36 plain ones
        assert "72 prompted examples" in stage2

    def test_prompted_decode_forces_more_tokens(self, tmp_path):
        out = run_pipeline(tiny_config(), tmp_path / "run")
        # every sentence carries a term, so the prompted prefix is at
        # least [Term] gloss [Output]; plain decoding forces only [Output]
        assert out["stats"]["mean_forced"] >= 3.0
