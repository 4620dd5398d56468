"""Assembly of knowledge-prompted training and inference examples.

Each example pairs an encoder sequence with a decoder sequence. Knowledge
blocks come first, every block opened by its special token, then [Input]
introduces the source sentence and [Output] the target. The loss mask is 1
exactly on decoder positions strictly after [Output], so training sees the
knowledge prefix but is never penalized on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import (
    EOS,
    INPUT,
    OUTPUT,
    SENTENCE,
    TEMPLATE,
    TERM,
    SentencePair,
    bpe_encode_sequence,
)
from .errors import DataError, integer, read_jsonl, tokens, write_jsonl


@dataclass(frozen=True)
class KnowledgeBundle:
    """Optional knowledge attached to one sentence pair.

    similar: a retrieved (source, target) pair; terms: matched dictionary
    entries as (source_term, target_term) token tuples; template: a
    (source_template, target_template) pair of token tuples. Any component
    may be absent.
    """

    similar: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    terms: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    template: tuple[tuple[str, ...], tuple[str, ...]] | None = None

    @property
    def is_empty(self) -> bool:
        return self.similar is None and not self.terms and self.template is None


EMPTY_BUNDLE = KnowledgeBundle()


@dataclass(frozen=True)
class PromptedExample:
    """One encoder/decoder sequence pair with its per-position loss mask."""

    id: int
    input_tokens: tuple[str, ...]
    output_tokens: tuple[str, ...]
    loss_mask: tuple[int, ...]

    def __post_init__(self):
        if self.input_tokens.count(INPUT) != 1:
            raise DataError(f"example {self.id}: input needs exactly one {INPUT}")
        if self.output_tokens.count(OUTPUT) != 1:
            raise DataError(f"example {self.id}: output needs exactly one {OUTPUT}")
        if len(self.loss_mask) != len(self.output_tokens):
            raise DataError(
                f"example {self.id}: mask length {len(self.loss_mask)} != "
                f"output length {len(self.output_tokens)}"
            )
        cut = self.output_tokens.index(OUTPUT)
        expected = (0,) * (cut + 1) + (1,) * (len(self.output_tokens) - cut - 1)
        if tuple(self.loss_mask) != expected:
            raise DataError(
                f"example {self.id}: mask must be 1 exactly after {OUTPUT}"
            )


def _blocks(bundle: KnowledgeBundle, side: int) -> list[str]:
    """Knowledge prefix for one side (0 = source, 1 = target)."""
    out: list[str] = []
    if bundle.similar is not None:
        out.append(SENTENCE)
        out.extend(bundle.similar[side])
    for term in bundle.terms:
        out.append(TERM)
        out.extend(term[side])
    if bundle.template is not None:
        out.append(TEMPLATE)
        out.extend(bundle.template[side])
    return out


def _encode_side(tokens: list[str], bpe) -> list[str]:
    return tokens if bpe is None else bpe_encode_sequence(bpe, tokens)


def assemble(
    pair: SentencePair,
    bundle: KnowledgeBundle = EMPTY_BUNDLE,
    *,
    include_target: bool = True,
    bpe=None,
    max_positions: int | None = None,
) -> PromptedExample:
    """Build one example; blocks appear in the order Sentence, Term, Template.

    With include_target False (inference data) the output stops at [Output]
    and the mask is empty of ones. When bpe is given, both sides are
    subword-encoded after assembly (special tokens pass through whole).
    max_positions (None: no limit) is the model's position budget, counted
    in subword units: the input and a training output must fit in it, and
    an inference output must leave one position to generate into. An
    example over it drops whole knowledge blocks, template first, then
    sentence, then terms, from both sides so the prompt stays aligned; a
    bare sentence pair still over it is a DataError.
    """
    if max_positions is not None and max_positions < 1:
        raise ValueError(f"max_positions must be >= 1, got {max_positions}")

    trimmed = bundle
    while True:
        input_units = _encode_side(_blocks(trimmed, 0) + [INPUT] + list(pair.source), bpe)
        output_tokens = _blocks(trimmed, 1) + [OUTPUT]
        if include_target:
            output_tokens += list(pair.target) + [EOS]
        output_units = _encode_side(output_tokens, bpe)
        if max_positions is None or (
            len(input_units) <= max_positions
            # an inference output is a decoder prefix, which must leave a
            # position to generate into
            and len(output_units) <= max_positions - (not include_target)
        ):
            break
        if trimmed.is_empty:
            raise DataError(
                f"pair {pair.id}: {len(input_units)} input and {len(output_units)} output "
                f"units do not fit max_positions {max_positions} even without knowledge"
            )
        if trimmed.template is not None:
            trimmed = replace(trimmed, template=None)
        elif trimmed.similar is not None:
            trimmed = replace(trimmed, similar=None)
        else:
            trimmed = replace(trimmed, terms=())

    cut = output_units.index(OUTPUT)
    mask = (0,) * (cut + 1) + (1,) * (len(output_units) - cut - 1)
    return PromptedExample(
        id=pair.id,
        input_tokens=tuple(input_units),
        output_tokens=tuple(output_units),
        loss_mask=mask,
    )


def strip_knowledge(example: PromptedExample) -> PromptedExample:
    """The same example with every knowledge block removed from both sides."""
    input_tokens = example.input_tokens[example.input_tokens.index(INPUT) :]
    output_tokens = example.output_tokens[example.output_tokens.index(OUTPUT) :]
    mask = example.loss_mask[len(example.loss_mask) - len(output_tokens) :]
    return PromptedExample(example.id, input_tokens, output_tokens, mask)


def save_dataset(examples, path: str | Path) -> None:
    """Write examples as JSONL {"id", "input", "output", "mask"} records."""
    write_jsonl(
        path,
        (
            {
                "id": ex.id,
                "input": list(ex.input_tokens),
                "output": list(ex.output_tokens),
                "mask": list(ex.loss_mask),
            }
            for ex in examples
        ),
    )


def load_dataset(path: str | Path) -> list:
    return read_jsonl(
        path, "example",
        lambda rec, _: PromptedExample(
            id=integer(rec["id"]),
            input_tokens=tokens(rec["input"]),
            output_tokens=tokens(rec["output"]),
            loss_mask=tuple(integer(b) for b in rec["mask"]),
        ),
    )


def build_dataset(pairs, bundles, **options) -> list:
    """Assemble aligned pairs and bundles into a dataset; options are
    assemble's keywords."""
    if len(pairs) != len(bundles):
        raise DataError(f"{len(pairs)} pairs but {len(bundles)} knowledge bundles")
    return [assemble(p, b, **options) for p, b in zip(pairs, bundles)]
