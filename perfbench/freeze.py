"""Write expected.json: the frozen result of every task a pass can draw.

Run from the root of a checkout whose outputs the test suite vouches for:

    python3 perfbench/freeze.py

Library tasks are stored as digests of their canonical results; CLI
commands as their full stdout, which the benchmark compares byte for byte.
Re-freeze only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    digests, stdout = {}, {}
    for task in workloads.frozen_tasks():
        if task.argv:
            stdout[task.key] = task.run()
        else:
            digests[task.key] = workloads.digest(task.run())
    with open(workloads.EXPECTED, "w") as fh:
        json.dump({"digests": digests, "cli_stdout": stdout}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("froze %d digests and %d CLI outputs" % (len(digests), len(stdout)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
