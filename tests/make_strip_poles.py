"""Write tests/strip_poles.json: the strip poles of a set of mirror-backed
slabs, as the imported planarcp finds them, for test_green.py to compare
a later pole search against.

The set is the media of TestStripPoles.test_count_matches_dense_boundary_count
at k0 = 1, and the slabs of the benchmark's material-scan, seed 0, blocks
0-3, that have a strip pole at k0 = 1 or 0.8. Run from the repository root
against the search to be pinned, for example

    PYTHONPATH=<checkout>/src python tests/make_strip_poles.py > tests/strip_poles.json

Each pole is [kind (0: D_s, 1: D_p), beta, dbeta, residue, dres], with
complex numbers as [re, im] and every float written to all its digits.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from planarcp import SlabWithMirror, validate_material  # noqa: E402
from planarcp.green import _strip_poles  # noqa: E402
import workloads  # noqa: E402

DENSE = [(-1 + 1e-4j, -1 + 1e-4j, 5.0), (-1 + 0.01j, -1 + 0.01j, 20.0), (9 + 1e-6j, 1, 50.0),
         (1.670 + 1.33e-5j, 5.816 + 2.83e-6j, 43.6), (-3.227 + 6.41e-6j, -5.782 + 8.10e-5j, 38.7),
         (-2.508 + 1.45e-6j, -3.604 + 1.22e-5j, 6.54), (4.476 + 1.40e-6j, 3.006 + 5.0e-6j, 4.54),
         (2.941 + 2.53e-6j, 1, 13.7), (3.124 + 1.35e-6j, 0.634 + 2.73e-6j, 6.5)]


def pair(z):
    return [complex(z).real, complex(z).imag]


def poles(eps, mu, d, omegas):
    out = []
    for found in _strip_poles(SlabWithMirror(validate_material(eps, mu), d), tuple(omegas)):
        if found is None:
            out.append([])
            continue
        beta, res, dbeta, dres, _ = found
        kinds = (res[0] == 0).astype(int)
        out.append([[int(k), pair(b), float(db), pair(r[k]), float(dr[k])]
                    for k, b, db, r, dr in zip(kinds, beta, dbeta, res.T, dres.T)])
    return out


def main():
    media = [(eps, mu, d, [1.0]) for eps, mu, d in DENSE]
    for block in range(4):
        for point in workloads.scan_block(0, block):
            geometry = point.geometry
            if isinstance(geometry, SlabWithMirror) and any(
                    _strip_poles(geometry, (1.0, 0.8))):
                media.append((geometry.material.epsilon, geometry.material.mu,
                              geometry.thickness, [1.0, 0.8]))
    lines = [json.dumps({"eps": pair(eps), "mu": pair(mu), "d": d, "omegas": omegas,
                         "poles": poles(eps, mu, d, omegas)})
             for eps, mu, d, omegas in media]
    print("[\n" + ",\n".join(lines) + "\n]")


if __name__ == "__main__":
    main()
