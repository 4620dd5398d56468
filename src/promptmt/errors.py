"""Exception types shared across the toolkit, and the reader of user text
files that turns undecodable bytes into one of them."""

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
