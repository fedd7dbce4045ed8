"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 bench/launch.py COMMAND [ARG ...]

The benchmark starts every timed lidos command through this small process.
On exec, Linux keeps in the new program's ru_maxrss the resident size of the
process it was forked from: a command forked straight from the benchmark,
which holds the input tables and scipy, would report the benchmark's size
instead of its own. The command's standard output is discarded; its standard
error is passed through.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    print(json.dumps({"code": proc.returncode, "wall_s": wall,
                      "peak_rss_mb": usage.ru_maxrss / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
