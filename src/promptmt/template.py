"""Bracketed constituency trees and depth-pruned sentence templates.

Trees use the Penn Treebank text form, e.g.
(S (NP (DT the) (NN cat)) (VP (VBD sat))). A template is the tree read off
at a fixed depth: internal nodes above the cut recurse, an internal node on
the cut contributes its label, and words above or on the cut survive as
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, read_text

# the cut depth of extract-templates and build-dataset --trees
DEFAULT_DEPTH = 4


@dataclass(frozen=True)
class ParseTree:
    """A constituency tree node: leaves carry a word, internal nodes children."""

    label: str
    children: tuple["ParseTree", ...] = ()
    word: str | None = None

    def __post_init__(self):
        if (self.word is None) == (not self.children):
            raise DataError(
                f"node {self.label!r} must have either children or a word"
            )

    @property
    def is_leaf(self) -> bool:
        return self.word is not None

    def words(self) -> list[str]:
        if self.is_leaf:
            return [self.word]
        out = []
        for child in self.children:
            out.extend(child.words())
        return out

    def height(self) -> int:
        """Leaves have height 0."""
        if self.is_leaf:
            return 0
        return 1 + max(child.height() for child in self.children)


def parse_ptb(text: str) -> ParseTree:
    """Parse one bracketed tree; errors carry the character offset."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_atom() -> str:
        nonlocal pos
        start = pos
        while pos < n and not text[pos].isspace() and text[pos] not in "()":
            pos += 1
        if pos == start:
            raise DataError(f"expected a label or word at offset {start}")
        return text[start:pos]

    def read_node() -> ParseTree:
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != "(":
            raise DataError(f"expected '(' at offset {pos}")
        pos += 1
        skip_ws()
        label = read_atom()
        skip_ws()
        if pos < n and text[pos] == "(":
            children = []
            while pos < n and text[pos] == "(":
                children.append(read_node())
                skip_ws()
            if pos >= n or text[pos] != ")":
                raise DataError(f"expected ')' at offset {pos}")
            pos += 1
            return ParseTree(label=label, children=tuple(children))
        word = read_atom()
        skip_ws()
        if pos >= n or text[pos] != ")":
            raise DataError(f"expected ')' at offset {pos}")
        pos += 1
        return ParseTree(label=label, word=word)

    tree = read_node()
    skip_ws()
    if pos != n:
        raise DataError(f"trailing text at offset {pos}")
    return tree


def extract_template(tree: ParseTree, depth: int = DEFAULT_DEPTH) -> list[str]:
    """Template tokens from pruning the tree at the given depth.

    The root sits at depth 0. A node shallower than the cut recurses into
    its children; an internal node on the cut becomes its label; a leaf at
    or above the cut becomes its word.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")

    def walk(node: ParseTree, level: int) -> list[str]:
        if node.is_leaf:
            return [node.word]
        if level == depth:
            return [node.label]
        out = []
        for child in node.children:
            out.extend(walk(child, level + 1))
        return out

    return walk(tree, 0)


def load_trees(path: str | Path) -> list:
    """One tree per line; a blank line means no parse and loads as None."""
    trees = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            trees.append(None)
            continue
        try:
            trees.append(parse_ptb(line))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return trees


def build_templates(trees, depth: int = DEFAULT_DEPTH) -> list:
    """Template token list per tree, None where there is no tree."""
    return [None if t is None else extract_template(t, depth) for t in trees]


def check_yield(tree, sentence, where: str) -> None:
    """A DataError starting with where unless the tree's words are the
    sentence; a None tree (no parse) always passes."""
    if tree is not None and tuple(tree.words()) != tuple(sentence):
        raise DataError(
            f"{where}: the tree yields {' '.join(tree.words())!r}, "
            f"not the sentence {' '.join(sentence)!r}"
        )
