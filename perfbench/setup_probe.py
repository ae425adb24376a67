"""Set-up time of one fresh process: import qchanrate, then load_config.

Usage: python3 setup_probe.py <src-dir> <config.json>

Prints the elapsed seconds rescaled to nominal machine speed.  The clock
starts before the package (and numpy with it) is imported; interpreter
start-up is not counted.  Import work is interpreter-bound, so the
rescaling uses a pure-Python calibration loop run in this same process
just before and just after, where it sees the same machine speed.
"""

import sys
import time

CALIBRATION_STEPS = 100_000
CALIBRATION_NOMINAL_S = 0.01


def calibration_seconds() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc += i * i % 7
    return time.perf_counter() - started


before = calibration_seconds()
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qchanrate  # noqa: E402

qchanrate.load_config(sys.argv[2])
elapsed = time.perf_counter() - started
after = calibration_seconds()
print(repr(elapsed * 2.0 * CALIBRATION_NOMINAL_S / (before + after)))
