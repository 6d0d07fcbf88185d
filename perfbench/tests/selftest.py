#!/usr/bin/env python3
"""Correctness gate of the benchmark.

    python3 perfbench/tests/selftest.py

Builds the workload binary (as perfbench/run.py does) and runs its CTest
entries: every workload at a tiny size, untraced and traced. A run fails
when any operation's output differs from its reference or when the
interpreter, index or negation fallback counters are non-zero, since the
binary counts those as failed operations.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)


def main():
    run.build()
    return subprocess.run(["ctest", "--output-on-failure"],
                          cwd=run.build_dir()).returncode


if __name__ == "__main__":
    sys.exit(main())
