"""The `lidos` program, as `python -m lidos` and as the console script."""

import os
import sys


def entry() -> None:
    """The `lidos` program: `lidos.cli.main`, with the work of `run`,
    `summarize` and `synth` spread over every CPU this process may run on.
    `OPENBLAS_NUM_THREADS` is set to 1 where it is unset, before numpy
    loads, so that the commands fork a single-threaded process; lidos calls
    no BLAS routine. A program that imports `lidos.cli` itself keeps its own
    setting."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    sys.exit(main(workers=cpus))


if __name__ == "__main__":
    entry()
