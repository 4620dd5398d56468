"""Bracketed tree parsing and template extraction."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptmt.errors import DataError
from promptmt.template import (
    ParseTree,
    build_templates,
    extract_template,
    load_trees,
    parse_ptb,
)

CAT_SAT = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"


def render(tree: ParseTree) -> str:
    """The bracketed text of tree, the inverse parse_ptb is checked against."""
    if tree.is_leaf:
        return f"({tree.label} {tree.word})"
    return f"({tree.label} " + " ".join(render(c) for c in tree.children) + ")"


def trees(max_depth=4):
    """Random well-formed parse trees."""
    labels = st.sampled_from(["S", "NP", "VP", "PP", "DT", "NN"])
    words = st.sampled_from(["the", "cat", "sat", "on", "mat"])
    leaf = st.builds(lambda l, w: ParseTree(label=l, word=w), labels, words)
    return st.recursive(
        leaf,
        lambda inner: st.builds(
            lambda l, cs: ParseTree(label=l, children=tuple(cs)),
            labels,
            st.lists(inner, min_size=1, max_size=3),
        ),
        max_leaves=8,
    )


class TestParse:
    def test_known_tree(self):
        tree = parse_ptb(CAT_SAT)
        assert tree.label == "S"
        assert [c.label for c in tree.children] == ["NP", "VP"]
        assert tree.words() == ["the", "cat", "sat"]
        assert tree.height() == 2

    def test_extra_whitespace_tolerated(self):
        tree = parse_ptb("  (S   (NN  cat  ) )  ")
        assert tree.words() == ["cat"]

    def test_render_round_trip(self):
        tree = parse_ptb(CAT_SAT)
        assert render(tree) == CAT_SAT
        assert parse_ptb(render(tree)) == tree

    @given(trees())
    def test_render_parse_inverse(self, tree):
        assert parse_ptb(render(tree)) == tree

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(S (NN cat)", 11),  # missing close
            ("(S (NN cat))x", 12),  # trailing junk
            ("S (NN cat)", 0),  # missing open
            ("()", 1),  # no label
        ],
    )
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(DataError, match=f"offset {offset}"):
            parse_ptb(text)

    def test_node_shape_enforced(self):
        with pytest.raises(DataError):
            ParseTree(label="X")  # neither children nor word


class TestExtractTemplate:
    def test_depth_one_keeps_top_labels(self):
        assert extract_template(parse_ptb(CAT_SAT), depth=1) == ["NP", "VP"]

    def test_cut_mixes_labels_and_words(self):
        # on the cut, the internal NP becomes its label while leaves keep
        # their words
        tree = parse_ptb("(S (NP (DT the) (NP (NN big) (NN cat))) (VBD sat))")
        assert extract_template(tree, depth=2) == ["the", "NP", "sat"]

    def test_deep_cut_returns_the_words(self):
        tree = parse_ptb(CAT_SAT)
        assert extract_template(tree, depth=3) == tree.words()
        assert extract_template(tree, depth=10) == tree.words()

    def test_shallow_leaf_survives_as_word(self):
        tree = parse_ptb("(S (NN cat) (VP (VBD sat) (PP (IN on))))")
        assert extract_template(tree, depth=2) == ["cat", "sat", "PP"]

    def test_depth_at_least_height_is_identity(self):
        tree = parse_ptb("(S (NP (NP (DT the) (NN cat)) (PP (IN on))) (VP (VBD sat)))")
        assert extract_template(tree, depth=tree.height()) == tree.words()

    @given(trees(), st.integers(min_value=1, max_value=6))
    def test_identity_property(self, tree, depth):
        template = extract_template(tree, depth)
        if depth >= tree.height():
            assert template == tree.words()
        # a template is never longer than the sentence
        assert len(template) <= len(tree.words())

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            extract_template(parse_ptb(CAT_SAT), depth=0)


class TestTreeFiles:
    def test_round_trip_with_blank_lines(self, tmp_path):
        src = [parse_ptb(CAT_SAT), None, parse_ptb("(NN cat)")]
        (tmp_path / "trees.txt").write_text(f"{CAT_SAT}\n\n(NN cat)\n", encoding="utf-8")
        loaded = load_trees(tmp_path / "trees.txt")
        assert loaded == src

    def test_parse_error_names_the_line(self, tmp_path):
        (tmp_path / "trees.txt").write_text("(NN cat)\n(broken\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_trees(tmp_path / "trees.txt")

    def test_build_templates_skips_missing(self):
        out = build_templates([parse_ptb(CAT_SAT), None], depth=1)
        assert out == [["NP", "VP"], None]
