"""What the `lidos` commands load: CPython's built-in SHA-256 gives the run
seeds, so no command maps OpenSSL's libcrypto, several MB of every process."""

from __future__ import annotations

import importlib.util
import subprocess
import sys

import pytest

from conftest import child_env

COMMANDS = """
import sys
from lidos.cli import main
assert main(["synth", "--out", "d", "--options", "3", "--domain-size", "4"]) == 0
assert main(["run", "--scenario", "d/scenario.txt", "--out", "o", "--repetitions", "2"],
            workers=2) == 0
assert "concurrent.futures.process" in sys.modules, "the run did not fork"
assert main(["summarize", "--scenario", "d/scenario.txt", "--out", "o"]) == 0
print(sorted(name for name in ("_hashlib", "_ssl") if name in sys.modules))
"""


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this Python has no built-in SHA-256 module")
def test_no_command_loads_openssl(tmp_path):
    done = subprocess.run([sys.executable, "-c", COMMANDS], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
