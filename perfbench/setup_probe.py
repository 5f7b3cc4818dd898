"""Fresh-process set-up time: import caustica, then run the given CLI
calls (the first call for each distinct c of a workload).

    python3 perfbench/setup_probe.py CALLS.json

CALLS.json holds a list of argv lists.  Prints {"seconds": ..., "raw": ...}
(reference-CPU and wall-clock seconds) as the last line; exits 1 if any
call is refused.
"""

import json
import sys
import time
from pathlib import Path

from reference import reference_seconds, scaled


def main(path):
    with open(path) as fh:
        calls = json.load(fh)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    ref = reference_seconds()
    t0 = time.perf_counter()
    import caustica.cli
    codes = [caustica.cli.main(argv) for argv in calls]
    seconds = time.perf_counter() - t0
    ref = 0.5 * (ref + reference_seconds())
    if any(codes):
        sys.exit(f"set-up call refused: {calls[[bool(c) for c in codes].index(True)]}")
    print(json.dumps({"seconds": scaled(seconds, ref), "raw": seconds}))


if __name__ == "__main__":
    main(sys.argv[1])
