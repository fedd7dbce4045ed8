"""What the `lidos` commands load: CPython's built-in SHA-256 gives the run
seeds, so no command maps OpenSSL's libcrypto, several MB of every process;
`lidos run` and `lidos synth` fork their workers themselves, with no process
pool; and the statistics never reach `numpy.ma`, which numpy imports on
first use; `lidos synth` loads no module of a run, and `import lidos` none
of the package."""

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


# The modules of a run: `lidos synth` needs none of them.
RUN_MODULES = ("lidos.harness", "lidos.planner", "lidos.mmo", "lidos.baselines", "lidos.stats")


def run_python(code: str, cwd) -> list[str]:
    """Run `code` in a fresh interpreter; the lines it prints."""
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_synth_loads_no_run_module(tmp_path):
    """`lidos synth` builds a landscape and writes text: the CLI, the twin and
    the space. The run harness, the planners and the statistics would be
    compiled and held for nothing."""
    code = ("import sys\nfrom lidos.cli import main\n"
            "assert main(['synth', '--out', 'd', '--options', '3', '--domain-size', '4']) == 0\n"
            f"print(sorted(name for name in {RUN_MODULES!r} if name in sys.modules))")
    assert run_python(code, tmp_path)[-1] == "[]"


def test_forked_synth_loads_no_run_module_and_no_pool(tmp_path):
    """Over two workers `lidos synth` forks one per table, and still loads
    no module of a run and no process pool."""
    unused = (*RUN_MODULES, "multiprocessing", "concurrent.futures")
    code = ("import resource\nimport sys\nfrom lidos.cli import main\n"
            "assert main(['synth', '--out', 'd', '--options', '3', '--domain-size', '4'],\n"
            "            workers=2) == 0\n"
            "assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0, 'no fork'\n"
            f"print(sorted(name for name in {unused!r} if name in sys.modules))")
    assert run_python(code, tmp_path)[-1] == "[]"


def test_import_lidos_loads_no_numpy_and_no_module(tmp_path):
    code = ("import sys\nimport lidos\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name == 'numpy' or name.startswith(('numpy.', 'lidos.'))))")
    assert run_python(code, tmp_path) == ["[]"]


def test_star_import_binds_every_public_name(tmp_path):
    code = ("import lidos\nfrom lidos import *\n"
            "print(sorted(name for name in lidos.__all__ if name not in globals()))")
    assert run_python(code, tmp_path) == ["[]"]
