"""What the `lidos` commands load: CPython's built-in SHA-256 gives the run
seeds, so no command maps OpenSSL's libcrypto, several MB of every process;
`lidos run` forks its workers itself, with no process pool; and the
statistics never reach `numpy.ma`, which numpy imports on first use."""

from __future__ import annotations

import importlib.util
import subprocess
import sys

import pytest

from conftest import child_env

COMMANDS = """
import resource
import sys
from lidos.cli import main

UNUSED = ("numpy.ma", "concurrent.futures", "multiprocessing")


def forked():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0


assert main(["synth", "--out", "d", "--options", "3", "--domain-size", "4"]) == 0
assert not [name for name in UNUSED if name in sys.modules]
assert not forked()
assert main(["run", "--scenario", "d/scenario.txt", "--out", "o", "--repetitions", "2"],
            workers=2) == 0
assert forked(), "the run did not fork"
assert not [name for name in UNUSED if name in sys.modules]
assert main(["summarize", "--scenario", "d/scenario.txt", "--out", "o"]) == 0
assert not [name for name in UNUSED if name in sys.modules]
print(sorted(name for name in ("_hashlib", "_ssl") if name in sys.modules))
"""


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this Python has no built-in SHA-256 module")
def test_no_command_loads_openssl(tmp_path):
    done = subprocess.run([sys.executable, "-c", COMMANDS], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
