"""Exception types shared across the toolkit, the readers of user files that
turn bad bytes and bad records into one of them, and the JSON writers."""

import json
from pathlib import Path


class DataError(Exception):
    """Malformed or inconsistent input data (files, records, dictionaries).

    Raised for problems a user can fix in their inputs; messages name the
    offending file, line, or record where possible. The CLI maps this to
    exit code 2.
    """


def read_text(path) -> str:
    """The contents of a UTF-8 text file; a DataError naming the file when
    its bytes are not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


def read_jsonl(path, what: str, parse) -> list:
    """[parse(record, index), ...] over the JSON values of a JSONL file.

    Blank lines are skipped and index counts records, not lines. Any
    KeyError, TypeError, ValueError (which covers bad JSON) or DataError
    from a record becomes a DataError naming the file and the line.
    """
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(parse(json.loads(line), len(out)))
        except (KeyError, TypeError, ValueError, DataError) as exc:
            raise DataError(f"{path}: bad {what} record at line {lineno}: {exc}") from exc
    return out


def write_json(path, value) -> None:
    """One indented JSON document and a newline."""
    Path(path).write_text(json.dumps(value, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path, records) -> None:
    """One JSON value per line, non-ASCII text kept as is."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def tokens(value) -> tuple:
    """A token field of a record: a list of strings, as a tuple."""
    if not isinstance(value, list) or not all(isinstance(tok, str) for tok in value):
        raise DataError(f"expected a list of string tokens, got {value!r}")
    return tuple(value)


def integer(value) -> int:
    """An integer field of a record (ids, mask bits); bools are not integers."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DataError(f"expected an integer, got {value!r}")
    return value
