"""Write the stored reference outputs the benchmark checks against.

    python3 bench/make_reference.py

Sweeps are run serially through the CLI; the material-scan reference is
the first block of the reference seed. Regenerate only when a change is
meant to move results beyond the checks' tolerance, and say so.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from planarcp import potential_auto  # noqa: E402


def main() -> None:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, args in wl.SWEEP_ARGS.items():
        text = wl.run_cli(wl.with_workers(args, 1))
        (wl.REFERENCE_DIR / wl.REFERENCE_FILES[name]).write_text(text)
    points = wl.scan_block(wl.REFERENCE_SEED, 0)
    samples = [potential_auto(p.atom, p.geometry, p.z) for p in points]
    rows = wl.scan_reference_rows(points, samples)
    (wl.REFERENCE_DIR / wl.REFERENCE_FILES["material-scan"]).write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    main()
