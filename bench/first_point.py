"""Set-up probe: import planarcp and finish a workload's first point.

Run in a fresh interpreter by run.py; prints the seconds spent importing
planarcp and computing the point (building the point's inputs, which is
benchmark code, is not counted).

    python3 bench/first_point.py <workload>
"""

import importlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import planarcp  # noqa: E402

if sys.argv[1] != "material-scan":
    importlib.import_module("planarcp.cli")  # the sweeps' entry point
import_s = time.perf_counter() - t0

import workloads  # noqa: E402

atom, geometry, z = workloads.first_point(sys.argv[1])
t0 = time.perf_counter()
planarcp.potential_auto(atom, geometry, z)
print(repr(import_s + time.perf_counter() - t0))
