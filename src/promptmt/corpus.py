"""Tokenized corpus I/O, vocabulary, and joint byte-pair encoding.

Text files are UTF-8, one sentence per line, tokens separated by spaces.
A BPE model file holds one merge per line ("left right", order significant);
a vocab file holds one token per line where the line number is the id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, read_text

# Reserved tokens, lowest vocabulary ids in exactly this order.
PAD = "<pad>"
UNK = "<unk>"
BOS = "<bos>"
EOS = "<eos>"
SENTENCE = "[Sentence]"
TERM = "[Term]"
TEMPLATE = "[Template]"
INPUT = "[Input]"
OUTPUT = "[Output]"

SPECIAL_TOKENS = (PAD, UNK, BOS, EOS, SENTENCE, TERM, TEMPLATE, INPUT, OUTPUT)
_SPECIAL_SET = frozenset(SPECIAL_TOKENS)

PAD_ID = SPECIAL_TOKENS.index(PAD)
UNK_ID = SPECIAL_TOKENS.index(UNK)
BOS_ID = SPECIAL_TOKENS.index(BOS)
EOS_ID = SPECIAL_TOKENS.index(EOS)

# Marks the final subword of each encoded token so decoding is unambiguous.
END_OF_WORD = "‸"


def is_special(token: str) -> bool:
    return token in _SPECIAL_SET


@dataclass(frozen=True)
class SentencePair:
    """An aligned, whitespace-tokenized source/target sentence pair."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    id: int


def _parse_line(line: str, path: str, lineno: int) -> tuple[str, ...]:
    tokens = tuple(line.split())
    if not tokens:
        raise DataError(f"{path}: empty sentence at line {lineno}")
    for tok in tokens:
        if is_special(tok):
            raise DataError(
                f"{path}: reserved token {tok!r} in sentence at line {lineno}"
            )
    return tokens


def load_parallel(source_path: str | Path, target_path: str | Path) -> list[SentencePair]:
    """Load an aligned pair of text files into SentencePairs with ids 0..n-1."""
    src_lines = read_text(source_path).splitlines()
    tgt_lines = read_text(target_path).splitlines()
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line count mismatch: {source_path} has {len(src_lines)} lines, "
            f"{target_path} has {len(tgt_lines)}"
        )
    pairs = []
    for i, (src, tgt) in enumerate(zip(src_lines, tgt_lines)):
        pairs.append(
            SentencePair(
                source=_parse_line(src, str(source_path), i + 1),
                target=_parse_line(tgt, str(target_path), i + 1),
                id=i,
            )
        )
    return pairs


def load_tokenized(path) -> list:
    """One whitespace-tokenized sentence per line."""
    return [line.split() for line in read_text(path).splitlines()]


def write_tokenized(sentences, path: str | Path) -> None:
    """Write each token sequence as one space-joined line."""
    Path(path).write_text("".join(" ".join(s) + "\n" for s in sentences), encoding="utf-8")


class Vocab:
    """Bijective token <-> id map with the reserved tokens at ids 0..8."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise DataError(
                "vocabulary must start with the reserved tokens "
                + " ".join(SPECIAL_TOKENS)
            )
        self._token_of = list(tokens)
        self._id_of = {tok: i for i, tok in enumerate(tokens)}
        if len(self._id_of) != len(self._token_of):
            dupes = [t for t, c in Counter(tokens).items() if c > 1]
            raise DataError(f"duplicate vocabulary tokens: {dupes[:5]}")

    @classmethod
    def build(cls, token_iter) -> "Vocab":
        """Vocabulary over all tokens seen, most frequent first (ties lexicographic)."""
        counts = Counter(tok for tok in token_iter if not is_special(tok))
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(list(SPECIAL_TOKENS) + ordered)

    def __len__(self) -> int:
        return len(self._token_of)

    def id_of(self, token: str) -> int:
        return self._id_of.get(token, self._id_of[UNK])

    def token_of(self, idx: int) -> str:
        return self._token_of[idx]

    def encode(self, tokens) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self._token_of[i] for i in ids]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("".join(t + "\n" for t in self._token_of), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = read_text(path).splitlines()
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                raise DataError(f"{path}: blank vocabulary line {lineno}")
        try:
            return cls(lines)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc

    def sha256(self) -> str:
        import hashlib

        return hashlib.sha256("\n".join(self._token_of).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BpeModel:
    """An ordered list of learned symbol-pair merges.

    A token is split into characters followed by a separate END_OF_WORD
    symbol; merges are applied in list order, each pass fusing every
    occurrence left to right. After the last merge the trailing marker is
    attached to the final subword, so a subword ending in END_OF_WORD closes
    a token. Reserved tokens pass through unsplit.
    """

    merges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(set(self.merges)) != len(self.merges):
            raise DataError("BPE merge list contains duplicates")

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            "".join(f"{a} {b}\n" for a, b in self.merges), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "BpeModel":
        merges = []
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            parts = line.split(" ")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(f"{path}: malformed merge at line {lineno}: {line!r}")
            merges.append((parts[0], parts[1]))
        try:
            return cls(merges=tuple(merges))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _merge_symbols(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    a, b = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def train_bpe(corpus: list, num_merges: int) -> BpeModel:
    """Learn num_merges greedy highest-frequency pair merges over the corpus.

    corpus is a list of token sequences. Ties on pair frequency are broken
    lexicographically, so retraining on the same corpus is deterministic.
    """
    if num_merges < 0:
        raise ValueError(f"num_merges must be >= 0, got {num_merges}")
    if not corpus:
        raise DataError("cannot train BPE on an empty corpus")

    word_freq = Counter()
    for sentence in corpus:
        word_freq.update(sentence)

    # word -> (symbols, frequency), symbols end with the standalone marker
    table = {w: [list(w) + [END_OF_WORD], f] for w, f in word_freq.items()}

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pair_freq = Counter()
        for symbols, freq in table.values():
            for i in range(len(symbols) - 1):
                pair_freq[(symbols[i], symbols[i + 1])] += freq
        if not pair_freq:
            break
        best_count = max(pair_freq.values())
        best = min(p for p, c in pair_freq.items() if c == best_count)
        merges.append(best)
        for entry in table.values():
            entry[0] = _merge_symbols(entry[0], best)
    return BpeModel(merges=tuple(merges))


def bpe_encode(model: BpeModel, token: str) -> list[str]:
    """Split one token into subword units, the last one marker-terminated."""
    if not token:
        raise ValueError("cannot encode an empty token")
    if is_special(token):
        return [token]
    symbols = list(token) + [END_OF_WORD]
    marked = token + END_OF_WORD
    for pair in model.merges:
        # adjacent symbols always concatenate to a substring of the marked token
        if pair[0] + pair[1] not in marked:
            continue
        symbols = _merge_symbols(symbols, pair)
        if len(symbols) == 1:
            break
    if symbols[-1] == END_OF_WORD:
        symbols = symbols[:-1]
        symbols[-1] += END_OF_WORD
    return symbols


def bpe_encode_sequence(model: BpeModel, tokens) -> list[str]:
    units: list[str] = []
    for tok in tokens:
        units.extend(bpe_encode(model, tok))
    return units


def bpe_decode_sequence(model: BpeModel, units) -> list[str]:
    """Regroup a flat subword stream into whole tokens.

    A unit ending in the marker closes the current token; reserved tokens
    stand alone. A trailing unterminated group (e.g. decoding stopped at a
    length limit) is emitted as-is.
    """
    tokens: list[str] = []
    current: list[str] = []
    for unit in units:
        if is_special(unit):
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(unit)
        elif unit.endswith(END_OF_WORD):
            current.append(unit.removesuffix(END_OF_WORD))
            tokens.append("".join(current))
            current = []
        else:
            current.append(unit)
    if current:
        tokens.append("".join(current))
    return tokens
