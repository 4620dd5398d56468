"""Subcommand plumbing: file formats, exit codes, config precedence.

Each test drives the installed module through a real subprocess so the
argparse wiring, stdout contract, and exit codes are what a shell user
sees.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from promptmt.cli import build_parser, load_config_file
from promptmt.decode import BeamConfig
from promptmt.errors import DataError
from promptmt.model import (
    ModelConfig,
    TrainConfig,
    init_params,
    save_checkpoint,
)
from promptmt.pipeline import RunConfig, build_bundles
from promptmt.prompt import assemble, build_dataset, load_dataset, save_dataset
from promptmt.retrieval import load_tm
from promptmt.terminology import load_dictionary
from promptmt.corpus import BpeModel, SentencePair, Vocab, load_parallel, load_tokenized
from promptmt.synth import SynthConfig, generate


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "promptmt.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    """One tiny generated task shared by the read-only subcommand tests."""
    out = tmp_path_factory.mktemp("task")
    r = run_cli("synth", "--out", out, "--n-train", 40, "--n-test", 4,
                "--n-regular", 8, "--len-min", 2, "--len-max", 4, "--seed", 3)
    assert r.returncode == 0, r.stderr
    return out


class TestSynth:
    def test_writes_all_artifacts(self, task_dir):
        for name in ["train.src", "train.tgt", "test.src", "test.tgt",
                     "dict.jsonl", "tm.jsonl"]:
            assert (task_dir / name).exists(), name
        assert len(load_tokenized(task_dir / "train.src")) == 40

    def test_deterministic(self, tmp_path, task_dir):
        r = run_cli("synth", "--out", tmp_path, "--n-train", 40, "--n-test", 4,
                    "--n-regular", 8, "--len-min", 2, "--len-max", 4, "--seed", 3)
        assert r.returncode == 0
        assert (tmp_path / "train.src").read_text() == (task_dir / "train.src").read_text()

    def test_rejects_bad_lengths(self, tmp_path):
        r = run_cli("synth", "--out", tmp_path, "--len-min", 9, "--len-max", 3)
        assert r.returncode == 1

    def test_every_flag_reaches_the_task(self, tmp_path):
        flags = {"n_regular": 5, "n_ambiguous_terms": 3, "renderings_per_term": 3,
                 "len_min": 3, "len_max": 4, "n_train": 12, "n_test": 5,
                 "term_position": "final", "seed": 9}
        assert set(flags) == {f.name for f in dataclasses.fields(SynthConfig)}
        args = [a for name, value in flags.items()
                for a in ("--" + name.replace("_", "-"), value)]
        assert run_cli("synth", "--out", tmp_path, *args).returncode == 0
        train = load_parallel(tmp_path / "train.src", tmp_path / "train.tgt")
        test = load_parallel(tmp_path / "test.src", tmp_path / "test.tgt")
        assert (len(train), len(test)) == (12, 5)
        for pair in train + test:
            regular = [tok for tok in pair.source if tok.startswith("s")]
            assert 3 <= len(regular) <= 4
            assert pair.source[-1].startswith("term")
        assert len(load_dictionary(tmp_path / "dict.jsonl")) == 9
        assert (train, test) == generate(SynthConfig(**flags))[:2]


class TestBpeTrain:
    def test_learns_and_saves(self, task_dir, tmp_path):
        out = tmp_path / "bpe.txt"
        r = run_cli("bpe-train", "--corpus", task_dir / "train.src",
                    task_dir / "train.tgt", "--merges", 30, "--out", out)
        assert r.returncode == 0
        assert len(BpeModel.load(out).merges) == 30


class TestBuildTm:
    def test_round_trips_through_loader(self, task_dir, tmp_path):
        out = tmp_path / "tm.jsonl"
        r = run_cli("build-tm", "--src", task_dir / "train.src",
                    "--tgt", task_dir / "train.tgt", "--out", out)
        assert r.returncode == 0
        assert len(load_tm(out)) == 40


class TestRetrieve:
    def test_stdout_is_jsonl_with_null_misses(self, task_dir):
        r = run_cli("retrieve", "--tm", task_dir / "tm.jsonl",
                    "--query", task_dir / "train.src", "--lambda", 0.9)
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 40
        for line in lines:
            rec = json.loads(line)
            if rec is not None:
                assert rec["score"] >= 0.9

    def test_out_file_holds_the_stdout_records(self, task_dir, tmp_path):
        out = tmp_path / "hits.jsonl"
        args = ["retrieve", "--tm", task_dir / "tm.jsonl",
                "--query", task_dir / "test.src", "--lambda", 0.4]
        r = run_cli(*args, "--out", out)
        assert r.returncode == 0
        printed = run_cli(*args).stdout
        assert out.read_text(encoding="utf-8") == printed
        assert len(printed.splitlines()) == 4

    def test_malformed_tm_is_two_and_named(self, task_dir, tmp_path):
        bad = tmp_path / "tm.jsonl"
        bad.write_text('{"id": 0, "src": ["a"], "tgt": ["b"]}\n{"id": 0, "src": "a"}\n',
                       encoding="utf-8")
        r = run_cli("retrieve", "--tm", bad, "--query", task_dir / "test.src")
        assert r.returncode == 2, r.stderr
        assert f"{bad}: bad TM record at line 2: " in r.stderr


class TestMatchTerms:
    def test_bilingual_pins_one_rendering(self, task_dir, tmp_path):
        out = tmp_path / "m.jsonl"
        r = run_cli("match-terms", "--dict", task_dir / "dict.jsonl",
                    "--src", task_dir / "test.src", "--tgt", task_dir / "test.tgt",
                    "--out", out)
        assert r.returncode == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(len(rec["terms"]) == 1 for rec in recs)

    def test_source_only_lists_all_candidates(self, task_dir, tmp_path):
        out = tmp_path / "m.jsonl"
        r = run_cli("match-terms", "--dict", task_dir / "dict.jsonl",
                    "--src", task_dir / "test.src", "--out", out)
        assert r.returncode == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        # source-only matching cannot disambiguate renderings
        assert all(len(rec["terms"]) == 2 for rec in recs)


class TestExtractTemplates:
    def test_truncates_to_depth(self, tmp_path):
        trees = tmp_path / "trees.txt"
        trees.write_text("(S (NP (DT the) (NN cat)) (VP (VBD sat)))\n")
        out = tmp_path / "templates.txt"
        r = run_cli("extract-templates", "--trees", trees, "--depth", 1, "--out", out)
        assert r.returncode == 0
        assert out.read_text().strip() == "NP VP"

    def test_blank_tree_line_gives_blank_template_line(self, tmp_path):
        trees = tmp_path / "trees.txt"
        trees.write_text("(S (NP (DT the) (NN cat)) (VP (VBD sat)))\n\n(NN cat)\n")
        out = tmp_path / "templates.txt"
        r = run_cli("extract-templates", "--trees", trees, "--depth", 1, "--out", out)
        assert r.returncode == 0, r.stderr
        assert out.read_text() == "NP VP\n\ncat\n"


SAT = "the cat sat on the mat".split()
ASSIS = "le chat assis sur le tapis".split()
SAT_TREE = "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT the) (NN mat)))))"


class TestBuildDataset:
    def test_inference_examples_have_no_reference(self, task_dir, tmp_path):
        out = tmp_path / "test.jsonl"
        r = run_cli("build-dataset", "--src", task_dir / "test.src",
                    "--tgt", task_dir / "test.tgt", "--dict", task_dir / "dict.jsonl",
                    "--tm", task_dir / "tm.jsonl", "--inference", "--out", out)
        assert r.returncode == 0
        for ex in load_dataset(out):
            assert ex.output_tokens[-1] == "[Output]"
            assert not any(ex.loss_mask)

    def test_training_examples_mask_prefix_only(self, task_dir, tmp_path):
        out = tmp_path / "train.jsonl"
        r = run_cli("build-dataset", "--src", task_dir / "train.src",
                    "--tgt", task_dir / "train.tgt", "--dict", task_dir / "dict.jsonl",
                    "--out", out)
        assert r.returncode == 0
        for ex in load_dataset(out):
            cut = list(ex.output_tokens).index("[Output]")
            assert not any(ex.loss_mask[: cut + 1])
            assert all(ex.loss_mask[cut + 1 :])

    def test_blank_tree_line_gets_no_template(self, task_dir, tmp_path):
        # a blank line is a sentence with no parse; the first tree yields
        # the first source sentence, as build-dataset checks
        words = load_tokenized(task_dir / "test.src")[0]
        tree = "(S (NP " + " ".join(f"(NN {w})" for w in words) + "))"
        trees = tmp_path / "trees.txt"
        trees.write_text(tree + "\n\n\n\n", encoding="utf-8")
        out = tmp_path / "test.jsonl"
        r = run_cli("build-dataset", "--src", task_dir / "test.src",
                    "--tgt", task_dir / "test.tgt", "--trees", trees, "--depth", 1,
                    "--inference", "--out", out)
        assert r.returncode == 0, r.stderr
        examples = load_dataset(out)
        assert len(examples) == 4
        assert "[Template]" in examples[0].input_tokens
        for ex in examples[1:]:
            assert "[Template]" not in ex.input_tokens + ex.output_tokens

    @pytest.fixture
    def parsed(self, tmp_path):
        """Two pairs, the first with a parse tree and the second without."""
        (tmp_path / "src.txt").write_text(" ".join(SAT) + "\na dog\n", encoding="utf-8")
        (tmp_path / "tgt.txt").write_text(" ".join(ASSIS) + "\nun chien\n", encoding="utf-8")
        (tmp_path / "trees.txt").write_text(SAT_TREE + "\n\n", encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize("depth, labels", [
        (1, ["NP", "VP"]),
        (2, ["the", "cat", "sat", "PP"]),  # words above the cut stay words
    ])
    def test_template_block_layout_training(self, parsed, depth, labels):
        out = parsed / "train.jsonl"
        r = run_cli("build-dataset", "--src", parsed / "src.txt", "--tgt", parsed / "tgt.txt",
                    "--trees", parsed / "trees.txt", "--depth", depth, "--out", out)
        assert r.returncode == 0, r.stderr
        first, second = load_dataset(out)
        # the same whole labels on both sides, ahead of [Input] / [Output]
        assert list(first.input_tokens) == ["[Template]", *labels, "[Input]", *SAT]
        assert list(first.output_tokens) == ["[Template]", *labels, "[Output]", *ASSIS, "<eos>"]
        assert list(second.input_tokens) == ["[Input]", "a", "dog"]
        assert list(second.output_tokens) == ["[Output]", "un", "chien", "<eos>"]

    def test_template_block_layout_inference(self, parsed):
        out = parsed / "test.jsonl"
        r = run_cli("build-dataset", "--src", parsed / "src.txt", "--tgt", parsed / "tgt.txt",
                    "--trees", parsed / "trees.txt", "--depth", 1, "--inference", "--out", out)
        assert r.returncode == 0, r.stderr
        first, second = load_dataset(out)
        assert list(first.input_tokens) == ["[Template]", "NP", "VP", "[Input]", *SAT]
        assert list(first.output_tokens) == ["[Template]", "NP", "VP", "[Output]"]
        assert list(second.output_tokens) == ["[Output]"]

    @pytest.mark.parametrize("inference", [False, True])
    def test_tree_of_another_sentence_is_exit_two(self, parsed, inference):
        # the trees file shifted by one line: line 2 parses "the cat sat ..."
        trees = parsed / "shifted.txt"
        trees.write_text("\n" + SAT_TREE + "\n", encoding="utf-8")
        r = run_cli("build-dataset", "--src", parsed / "src.txt", "--tgt", parsed / "tgt.txt",
                    "--trees", trees, *(["--inference"] if inference else []),
                    "--out", parsed / "out.jsonl")
        assert r.returncode == 2
        assert f"{trees}: line 2: the tree yields 'the cat sat on the mat'" in r.stderr
        assert not (parsed / "out.jsonl").exists()

    def test_max_positions_drops_blocks_then_names_the_pair(self, parsed):
        # with its template the first pair's output is 11 units, without it 8
        argv = ["build-dataset", "--src", parsed / "src.txt", "--tgt", parsed / "tgt.txt",
                "--trees", parsed / "trees.txt", "--depth", 1]
        out = parsed / "train.jsonl"
        r = run_cli(*argv, "--max-positions", 10, "--out", out)
        assert r.returncode == 0, r.stderr
        first, _ = load_dataset(out)
        assert list(first.output_tokens) == ["[Output]", *ASSIS, "<eos>"]
        r = run_cli(*argv, "--max-positions", 7, "--out", parsed / "short.jsonl")
        assert r.returncode == 2, r.stderr
        assert "pair 0: " in r.stderr and "max_positions 7" in r.stderr
        assert not (parsed / "short.jsonl").exists()

    @pytest.mark.parametrize("inference", [False, True])
    def test_writes_the_pipeline_bundles(self, task_dir, tmp_path, inference):
        out = tmp_path / "cli.jsonl"
        r = run_cli("build-dataset", "--src", task_dir / "test.src",
                    "--tgt", task_dir / "test.tgt", "--dict", task_dir / "dict.jsonl",
                    "--tm", task_dir / "tm.jsonl", "--lambda", 0.3,
                    *(["--inference"] if inference else []), "--out", out)
        assert r.returncode == 0, r.stderr
        pairs = load_parallel(task_dir / "test.src", task_dir / "test.tgt")
        bundles = build_bundles(
            pairs, load_dictionary(task_dir / "dict.jsonl"), load_tm(task_dir / "tm.jsonl"),
            RunConfig(threshold=0.3), source_only=inference,
        )
        assert any(b.similar is not None for b in bundles)
        save_dataset(build_dataset(pairs, bundles, include_target=not inference),
                     tmp_path / "lib.jsonl")
        assert out.read_bytes() == (tmp_path / "lib.jsonl").read_bytes()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """synth -> bpe -> datasets -> 2-epoch train -> shared paths."""
    work = tmp_path_factory.mktemp("work")
    task = work / "task"
    assert run_cli("synth", "--out", task, "--n-train", 40, "--n-test", 4,
                   "--n-regular", 8, "--len-min", 2, "--len-max", 4,
                   "--seed", 3).returncode == 0
    assert run_cli("bpe-train", "--corpus", task / "train.src", task / "train.tgt",
                   "--merges", 30, "--out", work / "bpe.txt").returncode == 0
    assert run_cli("build-dataset", "--src", task / "train.src",
                   "--tgt", task / "train.tgt", "--dict", task / "dict.jsonl",
                   "--bpe", work / "bpe.txt",
                   "--out", work / "train.jsonl").returncode == 0
    assert run_cli("build-dataset", "--src", task / "test.src",
                   "--tgt", task / "test.tgt", "--dict", task / "dict.jsonl",
                   "--bpe", work / "bpe.txt", "--inference",
                   "--out", work / "test.jsonl").returncode == 0

    # the vocabulary must cover the dataset; train on everything seen
    seen = []
    for ex in load_dataset(work / "train.jsonl"):
        seen += list(ex.input_tokens) + list(ex.output_tokens)
    for ex in load_dataset(work / "test.jsonl"):
        seen += list(ex.input_tokens) + list(ex.output_tokens)
    Vocab.build(seen).save(work / "vocab.txt")

    r = run_cli("train", "--data", work / "train.jsonl",
                "--vocab", work / "vocab.txt", "--out", work / "model.ckpt",
                "--d-model", 16, "--n-heads", 2, "--d-ff", 32,
                "--epochs", 2, "--batch-size", 16, "--seed", 1)
    assert r.returncode == 0, r.stderr
    return work, task


class TestTrainTranslateEvaluate:
    def test_train_writes_checkpoint_and_sidecar(self, artifacts):
        work, _ = artifacts
        assert (work / "model.ckpt").exists()
        assert "vocab_sha256" in json.loads((work / "model.ckpt.json").read_text())

    def test_sidecar_config_follows_train_flags(self, artifacts):
        work, _ = artifacts
        config = json.loads((work / "model.ckpt.json").read_text())["config"]
        assert config == {
            "vocab_size": len(Vocab.load(work / "vocab.txt")),
            "d_model": 16,
            "n_heads": 2,
            "n_enc_layers": 2,
            "n_dec_layers": 2,
            "d_ff": 32,
            "max_positions": 96,
            "dropout": 0.1,
        }

    def test_default_sidecar_config_is_the_dataclass_default(self, artifacts, tmp_path):
        work, _ = artifacts
        data = tmp_path / "four.jsonl"
        data.write_text("".join((work / "train.jsonl").read_text().splitlines(True)[:4]))
        r = run_cli("train", "--data", data, "--vocab", work / "vocab.txt",
                    "--out", tmp_path / "m.ckpt")
        assert r.returncode == 0, r.stderr
        config = json.loads((tmp_path / "m.ckpt.json").read_text())["config"]
        default = ModelConfig(vocab_size=len(Vocab.load(work / "vocab.txt")))
        assert config == dataclasses.asdict(default)

    @pytest.mark.parametrize("case", ["one-example-data", "empty-val"])
    def test_too_few_examples_is_two_and_named(self, artifacts, tmp_path, case):
        work, _ = artifacts
        if case == "one-example-data":
            bad = tmp_path / "one.jsonl"
            bad.write_text((work / "train.jsonl").read_text().splitlines(True)[0])
            args = ["--data", bad]
        else:
            bad = tmp_path / "empty.jsonl"
            bad.write_text("")
            args = ["--data", work / "train.jsonl", "--val", bad]
        r = run_cli("train", *args, "--vocab", work / "vocab.txt", "--out", tmp_path / "m.ckpt")
        assert r.returncode == 2, r.stderr
        assert f"error: {bad}: " in r.stderr
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("case", ["inference-data", "inference-val", "over-max-positions"])
    def test_unusable_example_is_two_and_named_before_any_epoch(self, artifacts, tmp_path, case):
        work, _ = artifacts
        args, named = {
            "inference-data": (["--data", work / "test.jsonl"],
                               f"{work / 'test.jsonl'}: training set: example 0 has no loss"),
            "inference-val": (["--data", work / "train.jsonl", "--val", work / "test.jsonl"],
                              f"{work / 'test.jsonl'}: validation set: example 0 has no loss"),
            "over-max-positions": (["--data", work / "train.jsonl", "--max-positions", 6],
                                   f"{work / 'train.jsonl'}: training set: example "),
        }[case]
        r = run_cli("train", *args, "--vocab", work / "vocab.txt", "--out", tmp_path / "m.ckpt")
        assert r.returncode == 2, r.stderr
        assert f"error: {named}" in r.stderr
        if case == "over-max-positions":
            assert "units, more than max_positions 6" in r.stderr
        assert "epoch" not in r.stdout
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_init_rejects_foreign_vocabulary(self, artifacts, tmp_path):
        work, _ = artifacts
        Vocab.build(["completely", "different"]).save(tmp_path / "v.txt")
        r = run_cli("train", "--data", work / "train.jsonl", "--vocab", tmp_path / "v.txt",
                    "--init", work / "model.ckpt", "--out", tmp_path / "m.ckpt")
        assert r.returncode == 2, r.stderr
        assert f"{work / 'model.ckpt'}: checkpoint was trained with a different vocabulary" \
            in r.stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_translate_writes_one_line_per_example(self, artifacts):
        work, _ = artifacts
        r = run_cli("translate", "--ckpt", work / "model.ckpt",
                    "--data", work / "test.jsonl", "--vocab", work / "vocab.txt",
                    "--bpe", work / "bpe.txt", "--out", work / "hyp.txt",
                    "--stats", work / "stats.json",
                    "--beam-size", 2, "--max-new-tokens", 8)
        assert r.returncode == 0, r.stderr
        assert len((work / "hyp.txt").read_text().splitlines()) == 4
        assert json.loads((work / "stats.json").read_text())["mean_forced"] >= 1.0

    def test_no_knowledge_strips_the_prefix(self, artifacts):
        work, _ = artifacts
        r = run_cli("translate", "--ckpt", work / "model.ckpt",
                    "--data", work / "test.jsonl", "--vocab", work / "vocab.txt",
                    "--out", work / "hyp0.txt", "--stats", work / "stats0.json",
                    "--no-knowledge", "--beam-size", 2, "--max-new-tokens", 8)
        assert r.returncode == 0, r.stderr
        # a bare [Output] is the only forced token once knowledge is gone
        assert json.loads((work / "stats0.json").read_text())["mean_forced"] == 1.0

    def test_translate_rejects_foreign_vocabulary(self, artifacts, tmp_path):
        work, _ = artifacts
        Vocab.build(["completely", "different"]).save(tmp_path / "v.txt")
        r = run_cli("translate", "--ckpt", work / "model.ckpt",
                    "--data", work / "test.jsonl", "--vocab", tmp_path / "v.txt",
                    "--out", tmp_path / "h.txt")
        assert r.returncode == 2
        assert "different vocabulary" in r.stderr

    def test_translate_rejects_truncated_checkpoint(self, artifacts, tmp_path):
        work, _ = artifacts
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes((work / "model.ckpt").read_bytes()[:-100])
        (tmp_path / "cut.ckpt.json").write_text((work / "model.ckpt.json").read_text())
        r = run_cli("translate", "--ckpt", ckpt,
                    "--data", work / "test.jsonl", "--vocab", work / "vocab.txt",
                    "--out", tmp_path / "h.txt")
        assert r.returncode == 2
        assert "cut.ckpt: truncated" in r.stderr

    @pytest.mark.parametrize("corrupt", ["payload-byte", "sidecar-n-heads", "sidecar-no-vocab-hash"])
    def test_translate_rejects_corrupt_checkpoint(self, artifacts, tmp_path, corrupt):
        work, _ = artifacts
        ckpt = tmp_path / "bad.ckpt"
        data = bytearray((work / "model.ckpt").read_bytes())
        sidecar = json.loads((work / "model.ckpt.json").read_text())
        if corrupt == "payload-byte":
            data[len(data) // 2] ^= 0x01
            named = f"{ckpt}: payload sha256 differs"
        elif corrupt == "sidecar-n-heads":
            sidecar["config"]["n_heads"] = 0
            named = f"{ckpt}.json: bad checkpoint sidecar"
        else:
            del sidecar["vocab_sha256"]
            named = f"{ckpt}.json: bad checkpoint sidecar"
        ckpt.write_bytes(bytes(data))
        (tmp_path / "bad.ckpt.json").write_text(json.dumps(sidecar))
        r = run_cli("translate", "--ckpt", ckpt,
                    "--data", work / "test.jsonl", "--vocab", work / "vocab.txt",
                    "--out", tmp_path / "h.txt")
        assert r.returncode == 2, r.stderr
        assert named in r.stderr
        assert not (tmp_path / "h.txt").exists()

    def test_translate_source_past_max_positions_is_two_and_named(self, tmp_path):
        vocab = Vocab.build(["a", "b"])
        vocab.save(tmp_path / "vocab.txt")
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                             n_dec_layers=1, d_ff=8, max_positions=6)
        save_checkpoint(tmp_path / "m.ckpt", init_params(config), config, vocab)
        long_input = assemble(SentencePair(("a",) * 9, ("b",), 0), include_target=False)
        save_dataset([long_input], tmp_path / "test.jsonl")
        r = run_cli("translate", "--ckpt", tmp_path / "m.ckpt", "--data", tmp_path / "test.jsonl",
                    "--vocab", tmp_path / "vocab.txt", "--out", tmp_path / "h.txt")
        assert r.returncode == 2, r.stderr
        assert "error: example 0: sequence length 10 exceeds max_positions 6" in r.stderr
        assert not (tmp_path / "h.txt").exists()

    def test_evaluate_json_and_table(self, artifacts):
        work, task = artifacts
        r = run_cli("evaluate", "--hyp", task / "test.tgt", "--ref", task / "test.tgt")
        assert r.returncode == 0
        assert json.loads(r.stdout)["bleu"] == 100.0
        r = run_cli("evaluate", "--hyp", task / "test.tgt", "--ref", task / "test.tgt",
                    "--table")
        assert "BLEU" in r.stdout and "100.00" in r.stdout

    def test_evaluate_with_terms(self, artifacts, tmp_path):
        work, task = artifacts
        matches = tmp_path / "m.jsonl"
        assert run_cli("match-terms", "--dict", task / "dict.jsonl",
                       "--src", task / "test.src", "--tgt", task / "test.tgt",
                       "--out", matches).returncode == 0
        r = run_cli("evaluate", "--hyp", task / "test.tgt", "--ref", task / "test.tgt",
                    "--terms", matches)
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        assert rec["exact_match"] == 1.0
        assert rec["n_terms"] == 4


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("retrieve", "--tm", "x").returncode == 1
        assert run_cli("no-such-command").returncode == 1

    def test_data_error_is_two(self, tmp_path):
        assert run_cli("evaluate", "--hyp", tmp_path / "nope.txt",
                       "--ref", tmp_path / "nope.txt").returncode == 2

    @pytest.mark.parametrize("hyp_text, ref_text, message", [
        ("a b\nc\n", "a b\n", "{hyp}: 2 hypotheses but {ref}: 1 references"),
        ("", "", "{hyp}, {ref}: no sentences to score"),
    ], ids=["line-counts-differ", "empty"])
    def test_evaluate_corpus_mismatch_is_two_and_named(self, tmp_path, hyp_text, ref_text,
                                                       message):
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text(hyp_text, encoding="utf-8")
        ref.write_text(ref_text, encoding="utf-8")
        r = run_cli("evaluate", "--hyp", hyp, "--ref", ref)
        assert r.returncode == 2, r.stderr
        assert message.format(hyp=hyp, ref=ref) in r.stderr

    def test_non_utf8_input_is_two_and_named(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        hyp.write_bytes(b"\xff\xfet\x00h\x00e\x00\n\x00")
        ref = tmp_path / "ref.txt"
        ref.write_text("the\n", encoding="utf-8")
        r = run_cli("evaluate", "--hyp", hyp, "--ref", ref)
        assert r.returncode == 2
        assert f"{hyp}: not UTF-8" in r.stderr

    @pytest.mark.parametrize("flag, what", [
        ("--tm", "TM"), ("--dict", "term"), ("--terms", "match"), ("--data", "example"),
    ])
    @pytest.mark.parametrize("record", [
        '{"id": 1, "src": 5, "tgt": ["a"], "terms": 5, "input": 5, "output": 5, "mask": 5}',
        '{"id": 1, "src": "ab", "tgt": "a", "terms": ["ab"], "input": "ab", "output": "a", '
        '"mask": [0]}',
        '{"id": "x", "src": ["a"], "tgt": ["b"], "terms": [], "input": ["[Input]"], '
        '"output": ["[Output]"], "mask": [0]}',
        "null",
    ], ids=["non-list", "string-tokens", "string-id", "null"])
    def test_malformed_record_is_two_and_named(self, task_dir, tmp_path, flag, what, record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n", encoding="utf-8")
        src, tgt, out = task_dir / "test.src", task_dir / "test.tgt", tmp_path / "out"
        args = {
            "--tm": ["build-dataset", "--src", src, "--tgt", tgt, "--out", out],
            "--dict": ["match-terms", "--src", src, "--out", out],
            "--terms": ["evaluate", "--hyp", src, "--ref", src],
            "--data": ["train", "--vocab", bad, "--out", out],
        }[flag]
        r = run_cli(*args, flag, bad)
        assert r.returncode == 2, r.stderr
        assert f"{bad}: bad {what} record at line 1: " in r.stderr

    def test_unknown_schedule_is_one_before_any_work(self, artifacts, tmp_path):
        work, _ = artifacts
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schedule = bogus\n")
        for i, how in enumerate([["--schedule", "bogus"], ["--config", cfg]]):
            run = tmp_path / f"run{i}"
            r = run_cli("pipeline", "--work", run, *how)
            assert r.returncode == 1, r.stderr
            assert "unknown schedule 'bogus'" in r.stderr
            assert not run.exists() or not any(run.iterdir())
        r = run_cli("train", "--data", work / "train.jsonl", "--vocab", work / "vocab.txt",
                    "--out", tmp_path / "m.ckpt", "--schedule", "bogus")
        assert r.returncode == 1, r.stderr
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--d-model", 50), ("--n-heads", 0), ("--beam-size", 0), ("--dropout", 1.0),
        ("--batch-size", 0), ("--bpe-merges", -1), ("--threshold", 1.5),
        ("--lr", "nan"), ("--lr", -1), ("--patience", 0), ("--warmup-steps", -1),
        ("--stage1-epochs", -1), ("--stage2-epochs", -1), ("--length-penalty", "nan"),
    ])
    def test_invalid_pipeline_value_is_one_before_any_work(self, tmp_path, flag, value):
        run = tmp_path / "run"
        r = run_cli("pipeline", "--work", run, flag, value)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error: ")
        # the message names the field the flag sets
        assert flag[2:].replace("-", "_") in r.stderr
        assert not run.exists()

    def test_train_lr_nan_is_one_before_any_work(self, artifacts, tmp_path):
        # it used to train, then end in a traceback: "training diverged"
        work, _ = artifacts
        r = run_cli("train", "--data", work / "train.jsonl", "--vocab", work / "vocab.txt",
                    "--out", tmp_path / "m.ckpt", "--lr", "nan")
        assert r.returncode == 1, r.stderr
        assert r.stderr == "error: lr must be finite and >= 0, got nan\n"
        assert r.stdout == ""
        assert not (tmp_path / "m.ckpt").exists()

    def test_max_input_len_is_gone(self, tmp_path):
        # max_positions is the one length limit
        for argv in (["pipeline", "--work", tmp_path / "run"],
                     ["build-dataset", "--src", "s", "--tgt", "t", "--out", "o"]):
            r = run_cli(*argv, "--max-input-len", 512)
            assert r.returncode == 1
            assert "unrecognized arguments: --max-input-len" in r.stderr
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_input_len = 512\n")
        with pytest.raises(DataError, match="unknown key 'max_input_len'"):
            load_config_file(cfg)

    def test_help_is_zero(self):
        assert run_cli("--help").returncode == 0
        for sub in ["bpe-train", "build-tm", "retrieve", "match-terms",
                    "extract-templates", "build-dataset", "train", "translate",
                    "evaluate", "synth", "pipeline"]:
            assert run_cli(sub, "--help").returncode == 0, sub


class TestConfigFile:
    def test_parses_types_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "seed = 5\n"
            "lr = 2e-3   # inline comment\n"
            "mix_plain = true\n"
            "knowledge = term , sent\n"
            "synth.n_train = 50\n"
            "len_max = 6\n"
        )
        values = load_config_file(cfg)
        assert values == {
            "seed": 5,
            "lr": 2e-3,
            "mix_plain": True,
            "knowledge": ("term", "sent"),
            "synth.n_train": 50,
            "synth.len_max": 6,
        }

    def test_unknown_key_is_an_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        with pytest.raises(DataError, match="unknown key"):
            load_config_file(cfg)

    def test_task_seed_is_not_a_key(self, tmp_path):
        # the pipeline seeds the task from seed; a synth.seed would be ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.seed = 3\n")
        with pytest.raises(DataError, match="unknown key 'synth.seed'"):
            load_config_file(cfg)

    def test_missing_equals_is_an_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed 5\n")
        with pytest.raises(DataError, match="expected key = value"):
            load_config_file(cfg)

    @pytest.mark.parametrize("raw, kinds", [("term,", ("term",)),
                                            ("term , sent", ("term", "sent"))])
    def test_knowledge_flag_parses_like_the_file(self, tmp_path, raw, kinds):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"knowledge = {raw}\n")
        args = build_parser().parse_args(["pipeline", "--knowledge", raw])
        assert args.knowledge == load_config_file(cfg)["knowledge"] == kinds


def names(cls, skip=()) -> set:
    return {f.name for f in dataclasses.fields(cls)} - set(skip)


class TestConfigFlags:
    @pytest.mark.parametrize("argv, plain, expected", [
        (["train", "--data", "d", "--vocab", "v", "--out", "o"],
         {"data", "val", "vocab", "init", "out"},
         names(ModelConfig, ["vocab_size"]) | names(TrainConfig)),
        (["translate", "--ckpt", "c", "--data", "d", "--vocab", "v", "--out", "o"],
         {"ckpt", "data", "vocab", "bpe", "out", "stats", "no_knowledge"},
         names(BeamConfig)),
        (["synth", "--out", "o"], {"out"}, names(SynthConfig)),
        (["pipeline"], {"work", "config", "verbose"},
         names(RunConfig, ["synth"]) | {"synth_" + n for n in names(SynthConfig, ["seed"])}),
    ], ids=["train", "translate", "synth", "pipeline"])
    def test_flags_are_the_dataclass_fields(self, argv, plain, expected):
        args = vars(build_parser().parse_args(argv))
        config = {k: v for k, v in args.items() if k not in plain | {"command", "func"}}
        assert set(config) == expected
        # None leaves the default to the dataclass
        assert all(v is None for v in config.values())

    def test_epochs_is_max_epochs(self):
        args = build_parser().parse_args(["train", "--data", "d", "--vocab", "v",
                                          "--out", "o", "--epochs", "3"])
        assert args.max_epochs == 3

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_train_epochs_below_one_is_one_and_named(self, tmp_path, epochs):
        # rejected before --data is read: it does not exist
        r = run_cli("train", "--data", tmp_path / "absent.jsonl", "--vocab", tmp_path / "v",
                    "--out", tmp_path / "m.ckpt", "--epochs", epochs)
        assert r.returncode == 1, r.stderr
        assert "--epochs" in r.stderr
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "m.ckpt.json").exists()

    @pytest.mark.parametrize("argv, value", [([], None), (["--mix-plain"], True),
                                             (["--mix-plain", "false"], False)])
    def test_bool_flag_bare_or_with_value(self, argv, value):
        assert build_parser().parse_args(["pipeline", *argv]).mix_plain is value


class TestPipelineCommand:
    TINY = ["--synth-n-train", 40, "--synth-n-test", 4, "--synth-n-regular", 8,
            "--synth-len-min", 2, "--synth-len-max", 4, "--bpe-merges", 40,
            "--d-model", 16, "--n-heads", 2, "--n-enc-layers", 1,
            "--n-dec-layers", 1, "--d-ff", 32, "--dropout", 0.0,
            "--batch-size", 16, "--stage1-epochs", 2, "--stage2-epochs", 2,
            "--beam-size", 2, "--max-new-tokens", 12]

    @staticmethod
    def reports(stdout: str) -> tuple:
        # drop decode throughput, the one wall-clock-dependent number
        rec = json.loads(stdout)
        return rec["prompted"], rec["unprompted"]

    def test_same_seed_prints_identical_reports(self, tmp_path):
        a = run_cli("pipeline", "--work", tmp_path / "a", "--seed", 7, *self.TINY)
        b = run_cli("pipeline", "--work", tmp_path / "b", "--seed", 7, *self.TINY)
        assert a.returncode == 0, a.stderr
        assert b.returncode == 0, b.stderr
        assert self.reports(a.stdout) == self.reports(b.stdout)
        assert {"prompted", "unprompted", "stats"} <= set(json.loads(a.stdout))

    def test_every_dataset_fits_max_positions(self, tmp_path):
        """A budget too small for the knowledge blocks drops them while the
        datasets are built, so training and decoding never meet an example
        over it."""
        work = tmp_path / "run"
        r = run_cli("pipeline", "--work", work, "--max-positions", 12,
                    "--synth-len-max", 8, "--synth-n-train", 40, "--synth-n-test", 4,
                    "--stage1-epochs", 2, "--stage2-epochs", 1,
                    "--d-model", 8, "--d-ff", 8, "--n-heads", 2)
        assert r.returncode == 0, r.stderr
        train_set = load_dataset(work / "train.prompted.jsonl")
        test_set = load_dataset(work / "test.prompted.jsonl")
        assert all(len(ex.input_tokens) <= 12 and len(ex.output_tokens) <= 12
                   for ex in train_set)
        # an inference prefix leaves a position to generate into
        assert all(len(ex.input_tokens) <= 12 and len(ex.output_tokens) <= 11
                   for ex in test_set)
        # blocks are dropped only where they do not fit
        assert any(len(ex.input_tokens) > ex.input_tokens.index("[Input]") + 1
                   for ex in train_set)

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nn_test = 4\nn_train = 40\nn_regular = 8\n"
                       "len_min = 2\nlen_max = 4\n")
        a = run_cli("pipeline", "--work", tmp_path / "a", "--config", cfg,
                    "--seed", 7, *self.TINY)
        b = run_cli("pipeline", "--work", tmp_path / "b", "--seed", 7, *self.TINY)
        assert a.returncode == 0, a.stderr
        # the flag seed (7) wins over the file seed (1)
        assert self.reports(a.stdout) == self.reports(b.stdout)
