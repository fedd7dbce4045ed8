"""The file writers every command shares: CSV text, and writes that appear
whole or not at all. They import nothing else of the package, so `lidos
synth` writes its tables without loading the run harness."""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path


def csv_text(header, rows) -> str:
    """A header row (none if `header` is None) and then the rows, as CSV text
    with bare newline line ends; every CSV the program writes goes through
    here, or, for the tables of `lidos synth`, through the block writer of
    `lidos.cli`, which writes the bytes this would."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_atomic(path: str | Path, content: str) -> None:
    """Write-then-rename so partially written outputs never appear."""
    write_chunks_atomic(path, (content,))


def write_chunks_atomic(path: str | Path, chunks) -> None:
    """Write the strings `chunks` yields, in order, then rename, so that a
    generated file is never held whole and never appears partly written: a
    failure while a chunk is made or written unlinks the temporary. Each
    call creates its own uniquely named temporary beside the target, so
    writers into one directory never share one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Exclusive create under a random name rather than tempfile.mkstemp,
    # which would leave every output readable by its owner only.
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def remove_temporaries(path: str | Path) -> None:
    """Unlink the temporaries of `path` that `write_chunks_atomic` calls
    left beside it, as one does when its process is killed mid-write."""
    path = Path(path)
    for tmp in path.parent.glob(f".{path.name}.*.tmp"):
        tmp.unlink(missing_ok=True)
