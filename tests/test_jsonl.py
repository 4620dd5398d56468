"""The JSONL record format shared by the four knowledge files the
toolkit reads: the TM, the term dictionary, term matches and prompted
datasets.

Every loader reads through errors.read_jsonl, so a bad record anywhere
is a DataError naming the file and the line, and nothing else escapes.
The corruption sweeps also cover the other files a user hands the
toolkit: the vocabulary and BPE merges, parse trees, and both halves of
a checkpoint, the tensor file and its sidecar. Retrieval hits and
evaluation reports are written but never read back, so they have no
loader to sweep.
"""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmt.corpus import BpeModel, SentencePair, Vocab, train_bpe
from promptmt.errors import DataError, read_jsonl, write_jsonl
from promptmt.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from promptmt.prompt import KnowledgeBundle, assemble, load_dataset, save_dataset
from promptmt.retrieval import load_tm, save_tm
from promptmt.template import load_trees
from promptmt.terminology import (
    TermDictionary,
    TermEntry,
    load_dictionary,
    load_matches,
    save_dictionary,
    save_matches,
)

CAT = TermEntry(("chat", "noir"), ("猫",), 0)
DOG = TermEntry(("chien",), ("Hund", "é"), 1)
PAIR = SentencePair(("le", "chat", "noir"), ("der", "schwarze", "猫"), 0)
# the vocabulary a checkpoint is saved and loaded with
CKPT_VOCAB = Vocab.build(PAIR.source)


def _write_valid(kind, path):
    """A small valid file of each kind, non-ASCII tokens included; a
    checkpoint also writes its sidecar, path + ".json"."""
    if kind == "tm":
        save_tm([(0, ["le", "chat"], ["猫"]), (1, ["chien"], ["Hund", "é"])], path)
    elif kind == "dict":
        save_dictionary(TermDictionary([CAT, DOG]), path)
    elif kind == "matches":
        save_matches([(0, [CAT, DOG]), (1, [])], path)
    elif kind == "vocab":
        Vocab.build(PAIR.source + PAIR.target).save(path)
    elif kind == "merges":
        train_bpe([PAIR.source, PAIR.target], 8).save(path)
    elif kind == "trees":
        # a blank line is a sentence without a parse
        path.write_text("(S (NP (DT le) (NN chat)) (VP (VB é)))\n\n(X y)\n", encoding="utf-8")
    elif kind in ("ckpt", "sidecar"):
        # a three-digit vocab_size, so one-byte edits reach a float size (1e3)
        config = ModelConfig(vocab_size=123, d_model=2, n_heads=1, n_enc_layers=1,
                             n_dec_layers=1, d_ff=2, max_positions=4)
        save_checkpoint(path, init_params(config), config, CKPT_VOCAB)
    else:
        bundle = KnowledgeBundle(terms=((CAT.source, CAT.target),))
        save_dataset([assemble(PAIR, bundle), assemble(PAIR, include_target=False)], path)


LOADERS = {
    "tm": load_tm,
    "dict": load_dictionary,
    "matches": load_matches,
    "dataset": load_dataset,
    "vocab": Vocab.load,
    "merges": BpeModel.load,
    "trees": load_trees,
    "ckpt": lambda path: load_checkpoint(path, CKPT_VOCAB),
    "sidecar": lambda path: load_checkpoint(path, CKPT_VOCAB),
}
# the file the sweeps corrupt, as a suffix of the path the loader reads;
# the other half of a checkpoint stays valid
CORRUPTED = {"sidecar": ".json"}


class TestReadWrite:
    def test_round_trip_skips_blank_lines_and_counts_records(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [{"a": "é"}, None, [1]])
        assert path.read_text(encoding="utf-8") == '{"a": "é"}\nnull\n[1]\n'
        path.write_text('\n{"a": 1}\n  \nnull\n', encoding="utf-8")
        assert read_jsonl(path, "x", lambda rec, i: (i, rec)) == [(0, {"a": 1}), (1, None)]

    def test_bad_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('1\n\n{"a"\n', encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: bad thing record at line 3")):
            read_jsonl(path, "thing", lambda rec, i: rec)


def _valid_files(kind, path) -> dict:
    """{path suffix: bytes} of the files of a valid instance of kind."""
    _write_valid(kind, path)
    return {suffix: Path(f"{path}{suffix}").read_bytes()
            for suffix in ("", ".json") if Path(f"{path}{suffix}").exists()}


def _loads_or_names_itself(kind, files, path, data):
    """Write files at path with the one kind corrupts replaced by data, then
    load: a DataError must name the corrupted file, or for a sidecar that
    no longer fits its tensors, the tensor file."""
    target = CORRUPTED.get(kind, "")
    for suffix, valid in files.items():
        Path(f"{path}{suffix}").write_bytes(data if suffix == target else valid)
    try:
        LOADERS[kind](path)
    except DataError as exc:
        assert str(exc).startswith((f"{path}{target}: ", f"{path}: ")), (exc, data)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    return root, {kind: _valid_files(kind, root / kind) for kind in LOADERS}


# replacement bytes that keep a JSON or tree line parseable more often than
# a random one, and for the binary tensor file, bytes that make its version
# field 0, 1 (the retired layout) or huge; any payload edit breaks the sha256
JSON_BYTES = b'0123456789"[]{}(),:. \nlnrtue-'
SWEEP_BYTES = {"ckpt": b"\x00\x01\xff"}
_names = itertools.count()


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(LOADERS)),
    where=st.floats(min_value=0, max_value=1, exclude_max=True),
    byte=st.one_of(
        st.none(), st.sampled_from(list(JSON_BYTES)), st.integers(min_value=0, max_value=255)
    ),
)
def test_corrupt_file_loads_or_names_itself(valid_files, kind, where, byte):
    """Truncated at any byte (byte None) or with one byte replaced, a valid
    file loads or raises a DataError naming the file, never anything else."""
    root, files = valid_files
    data = files[kind][CORRUPTED.get(kind, "")]
    pos = int(where * len(data))
    data = data[:pos] if byte is None else data[:pos] + bytes([byte]) + data[pos + 1 :]
    # a new name each time: rewriting one file is slow on some filesystems
    _loads_or_names_itself(kind, files[kind], root / f"corrupt-{next(_names)}", data)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_json_byte_at_every_position(tmp_path, kind):
    """The exhaustive version of the property above for the kind's sweep
    bytes; it is what reaches one-digit edits such as a duplicated id."""
    files = _valid_files(kind, tmp_path / "valid")
    data = files[CORRUPTED.get(kind, "")]
    for pos in range(len(data)):
        for byte in [None, *SWEEP_BYTES.get(kind, JSON_BYTES)]:
            corrupt = data[:pos] if byte is None else data[:pos] + bytes([byte]) + data[pos + 1 :]
            _loads_or_names_itself(kind, files, tmp_path / f"{pos}-{byte}", corrupt)


GOOD = {
    "tm": '{"id": 0, "src": ["a"], "tgt": ["b"]}',
    "dict": '{"id": 0, "src": ["a"], "tgt": ["b"]}',
    "matches": '{"id": 0, "terms": [["a", "b"]]}',
    "dataset": '{"id": 0, "input": ["[Input]", "a"], "output": ["[Output]"], "mask": [0]}',
}

BAD = [
    # non-list token fields
    ("tm", "TM", '{"id": 1, "src": 5, "tgt": ["a"]}'),
    ("dict", "term", '{"id": 1, "src": 5, "tgt": ["a"]}'),
    ("dataset", "example", '{"id": 1, "input": 5, "output": ["[Output]"], "mask": [0]}'),
    # a string where a token list belongs: not read as one token per character
    ("tm", "TM", '{"id": 1, "src": "ab", "tgt": ["a"]}'),
    ("dict", "term", '{"id": 1, "src": "ab", "tgt": ["a"]}'),
    ("matches", "match", '{"id": 1, "terms": ["ab"]}'),
    ("matches", "match", '{"id": 1, "terms": [[1, 2]]}'),
    ("dataset", "example", '{"id": 1, "input": ["[Input]", 7], "output": ["[Output]"], "mask": [0]}'),
    # non-integer ids and mask bits
    ("tm", "TM", '{"id": "x", "src": ["a"], "tgt": ["b"]}'),
    ("tm", "TM", '{"id": 1.5, "src": ["a"], "tgt": ["b"]}'),
    ("dict", "term", '{"id": true, "src": ["a"], "tgt": ["b"]}'),
    ("matches", "match", '{"id": "1", "terms": []}'),
    ("dataset", "example", '{"id": 1, "input": ["[Input]"], "output": ["[Output]"], "mask": ["0"]}'),
    # a term match needs both sides, and its id is its record number
    ("matches", "match", '{"id": 1, "terms": [["a", ""]]}'),
    ("matches", "match", '{"id": 5, "terms": []}'),
    # null is a bad record in every file read back
    ("tm", "TM", "null"),
    ("dict", "term", "null"),
    ("matches", "match", "null"),
    ("dataset", "example", "null"),
]


@pytest.mark.parametrize("kind, what, line", BAD)
def test_malformed_record_is_named(tmp_path, kind, what, line):
    # line 3: blank lines count as lines
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(GOOD[kind] + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: bad {what} record at line 3: ")):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", ["tm", "dict"])
def test_duplicate_ids_name_the_file(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(GOOD[kind] + "\n" + GOOD[kind] + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*duplicate"):
        LOADERS[kind](path)

