"""The `lidos` program, as `python -m lidos` and as the console script."""

import os


def entry() -> None:
    """Run `lidos.cli.entry` in a process whose numpy starts no BLAS thread:
    `OPENBLAS_NUM_THREADS` is set to 1 where it is unset, before numpy loads,
    so that the commands fork a single-threaded process. lidos calls no BLAS
    routine. A program that imports `lidos.cli` itself keeps its own
    setting."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import entry as run
    run()


if __name__ == "__main__":
    entry()
