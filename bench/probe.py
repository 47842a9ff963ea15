"""Set-up probe for the bicone benchmark.

Imports bicone from ``src/`` next to this directory, builds the CLI parser,
runs the workload's warm-up ops and prints "ready".  run.py times a fresh
interpreter running this, from process start to that line:

    python3 bench/probe.py WORKLOAD
"""

import contextlib
import io
import sys
from pathlib import Path

import workloads


def main(workload: str) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from bicone import cli

    cli.build_parser()
    for argv in workloads.WORKLOADS[workload].warmup:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(argv))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
