"""Run one ``trisim`` CLI command in a fresh interpreter and time its main().

Usage: python3 bench/cli_child.py TIMES_JSON <trisim arguments...>

The traced run of the ``cli`` workload starts this script to measure
start-up: the parent's wall time for the process minus ``main_s``, the
in-process time of ``trisim.cli.main``, which this script writes to
TIMES_JSON.  It exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import trisim.cli  # noqa: E402

if __name__ == "__main__":
    times_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    code = trisim.cli.main(argv)
    main_s = time.perf_counter() - t0
    with open(times_path, "w") as fh:
        json.dump({"main_s": main_s}, fh)
    sys.exit(code)
