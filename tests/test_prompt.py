"""Prompted-example assembly, masks, and the dataset format."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptmt.corpus import SentencePair, train_bpe
from promptmt.errors import DataError
from promptmt.prompt import (
    EMPTY_BUNDLE,
    KnowledgeBundle,
    PromptedExample,
    assemble,
    build_dataset,
    load_dataset,
    save_dataset,
    strip_knowledge,
)

PAIR = SentencePair(("the", "cat", "sat"), ("die", "Katze", "sass"), 0)

FULL_BUNDLE = KnowledgeBundle(
    similar=(("the", "dog", "sat"), ("der", "Hund", "sass")),
    terms=(
        (("cat",), ("Katze",)),
        (("sat",), ("sass",)),
    ),
    template=(("NP", "VP"), ("NP", "VP")),
)


class TestAssemble:
    def test_empty_bundle(self):
        ex = assemble(PAIR, EMPTY_BUNDLE)
        assert ex.input_tokens == ("[Input]", "the", "cat", "sat")
        assert ex.output_tokens == ("[Output]", "die", "Katze", "sass", "<eos>")
        assert ex.loss_mask == (0, 1, 1, 1, 1)

    def test_terms_only(self):
        bundle = KnowledgeBundle(terms=((("cat",), ("Katze",)),))
        ex = assemble(PAIR, bundle)
        assert ex.input_tokens == ("[Term]", "cat", "[Input]", "the", "cat", "sat")
        assert ex.output_tokens == (
            "[Term]", "Katze", "[Output]", "die", "Katze", "sass", "<eos>",
        )
        assert ex.loss_mask == (0, 0, 0, 1, 1, 1, 1)

    def test_full_bundle_block_order(self):
        ex = assemble(PAIR, FULL_BUNDLE)
        assert ex.input_tokens == (
            "[Sentence]", "the", "dog", "sat",
            "[Term]", "cat",
            "[Term]", "sat",
            "[Template]", "NP", "VP",
            "[Input]", "the", "cat", "sat",
        )
        assert ex.output_tokens == (
            "[Sentence]", "der", "Hund", "sass",
            "[Term]", "Katze",
            "[Term]", "sass",
            "[Template]", "NP", "VP",
            "[Output]", "die", "Katze", "sass", "<eos>",
        )

    def test_mask_sums_to_target_plus_one(self):
        for bundle in (EMPTY_BUNDLE, FULL_BUNDLE):
            ex = assemble(PAIR, bundle)
            assert sum(ex.loss_mask) == len(PAIR.target) + 1

    def test_assembly_is_deterministic(self):
        assert assemble(PAIR, FULL_BUNDLE) == assemble(PAIR, FULL_BUNDLE)

    def test_inference_mode_stops_at_output(self):
        ex = assemble(PAIR, FULL_BUNDLE, include_target=False)
        assert ex.output_tokens[-1] == "[Output]"
        assert sum(ex.loss_mask) == 0

    def test_bpe_applied_after_assembly(self):
        bpe = train_bpe([list(PAIR.source), list(PAIR.target)], num_merges=0)
        ex = assemble(PAIR, KnowledgeBundle(terms=((("cat",), ("Katze",)),)), bpe=bpe)
        # specials survive whole; words split to characters
        assert ex.input_tokens[0] == "[Term]"
        assert ex.input_tokens[1] == "c"
        assert "[Input]" in ex.input_tokens
        cut = ex.output_tokens.index("[Output]")
        assert ex.loss_mask == (0,) * (cut + 1) + (1,) * (len(ex.output_tokens) - cut - 1)
        # mask ones cover the subword-encoded target plus <eos>; zero merges
        # split each word into exactly len(word) character units
        assert sum(ex.loss_mask) == sum(len(t) for t in PAIR.target) + 1

    def test_overlong_input_drops_template_first(self):
        # input 15 and output 16 units with every block, 12 and 13 without
        # the template
        ex = assemble(PAIR, FULL_BUNDLE, max_positions=13)
        assert "[Template]" not in ex.input_tokens
        assert "[Sentence]" in ex.input_tokens
        assert "[Template]" not in ex.output_tokens

    def test_then_sentence_then_terms(self):
        ex = assemble(PAIR, FULL_BUNDLE, max_positions=9)
        assert "[Sentence]" not in ex.input_tokens
        assert "[Term]" in ex.input_tokens
        ex = assemble(PAIR, FULL_BUNDLE, max_positions=5)
        assert ex.input_tokens == ("[Input]", "the", "cat", "sat")
        assert ex == assemble(PAIR, EMPTY_BUNDLE)

    def test_overlong_output_alone_drops_blocks(self):
        # the input is 6 units, the output 10
        long_term = KnowledgeBundle(terms=((("cat",), ("die", "Katze", "Tier", "x")),))
        assert assemble(PAIR, long_term, max_positions=10) == assemble(PAIR, long_term)
        assert assemble(PAIR, long_term, max_positions=9) == assemble(PAIR, EMPTY_BUNDLE)

    def test_inference_prefix_leaves_a_position(self):
        # the inference output is the 6-unit prefix up to [Output]
        long_term = KnowledgeBundle(terms=((("cat",), ("die", "Katze", "Tier", "x")),))
        kept = assemble(PAIR, long_term, include_target=False, max_positions=7)
        assert kept == assemble(PAIR, long_term, include_target=False)
        dropped = assemble(PAIR, long_term, include_target=False, max_positions=6)
        assert dropped.output_tokens == ("[Output]",)

    @pytest.mark.parametrize("include_target", [True, False])
    def test_every_limit_fits_or_names_the_pair(self, include_target):
        bare = assemble(PAIR, EMPTY_BUNDLE, include_target=include_target)
        for limit in range(1, 18):
            if max(len(bare.input_tokens), len(bare.output_tokens) + (not include_target)) > limit:
                with pytest.raises(DataError, match="pair 0"):
                    assemble(PAIR, FULL_BUNDLE, include_target=include_target,
                             max_positions=limit)
                continue
            ex = assemble(PAIR, FULL_BUNDLE, include_target=include_target, max_positions=limit)
            assert len(ex.input_tokens) <= limit
            assert len(ex.output_tokens) + (not include_target) <= limit

    def test_bare_sentence_never_truncated(self):
        # a bare pair over the limit is an error, not a cut sentence
        with pytest.raises(DataError, match="pair 0: .* max_positions 4"):
            assemble(PAIR, EMPTY_BUNDLE, max_positions=4)
        with pytest.raises(ValueError, match="max_positions"):
            assemble(PAIR, EMPTY_BUNDLE, max_positions=0)

    def test_limit_counts_subword_units(self):
        bpe = train_bpe([list(PAIR.source), list(PAIR.target)], num_merges=0)
        bare = assemble(PAIR, EMPTY_BUNDLE, bpe=bpe)
        # zero merges: "die Katze sass" is 3 + 5 + 4 units, plus [Output] and <eos>
        assert len(bare.output_tokens) == 14
        assert assemble(PAIR, FULL_BUNDLE, bpe=bpe, max_positions=14) == bare
        with pytest.raises(DataError, match="pair 0"):
            assemble(PAIR, FULL_BUNDLE, bpe=bpe, max_positions=13)


class TestSplitOutput:
    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=5),
        st.lists(st.sampled_from("xyz"), min_size=1, max_size=5),
    )
    def test_round_trip_through_assemble(self, src, tgt):
        pair = SentencePair(tuple(src), tuple(tgt), 1)
        ex = assemble(pair, FULL_BUNDLE)
        cut = ex.output_tokens.index("[Output]")
        assert ex.output_tokens[cut + 1 :] == pair.target + ("<eos>",)


class TestStripKnowledge:
    def test_strips_both_sides(self):
        ex = assemble(PAIR, FULL_BUNDLE)
        bare = strip_knowledge(ex)
        assert bare == assemble(PAIR, EMPTY_BUNDLE)

    def test_noop_on_bare_example(self):
        ex = assemble(PAIR, EMPTY_BUNDLE)
        assert strip_knowledge(ex) == ex

    def test_inference_example(self):
        ex = assemble(PAIR, FULL_BUNDLE, include_target=False)
        bare = strip_knowledge(ex)
        assert bare.output_tokens == ("[Output]",)
        assert bare.loss_mask == (0,)


class TestExampleValidation:
    def test_mask_must_match_marker_position(self):
        with pytest.raises(DataError, match="mask"):
            PromptedExample(0, ("[Input]", "a"), ("[Output]", "b"), (1, 1))

    def test_output_marker_required(self):
        with pytest.raises(DataError, match=r"\[Output\]"):
            PromptedExample(0, ("[Input]", "a"), ("b",), (1,))


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        examples = [
            assemble(PAIR, FULL_BUNDLE),
            assemble(SentencePair(("dog",), ("Hund",), 1), EMPTY_BUNDLE),
        ]
        save_dataset(examples, tmp_path / "data.jsonl")
        assert load_dataset(tmp_path / "data.jsonl") == examples

    def test_malformed_record_names_line(self, tmp_path):
        (tmp_path / "data.jsonl").write_text('{"id": 0}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_dataset(tmp_path / "data.jsonl")

    def test_build_dataset_checks_alignment(self):
        with pytest.raises(DataError):
            build_dataset([PAIR], [])

    def test_build_dataset_assembles_in_order(self):
        pairs = [PAIR, SentencePair(("dog",), ("Hund",), 1)]
        out = build_dataset(pairs, [FULL_BUNDLE, EMPTY_BUNDLE])
        assert [ex.id for ex in out] == [0, 1]
        assert "[Sentence]" in out[0].input_tokens
        assert out[1].input_tokens == ("[Input]", "dog")
