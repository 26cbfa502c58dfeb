# src/planarcp/cli.py
"""Command-line front end: distance sweeps of the potential, emitted as
CSV or JSON for external plotting.

Inputs and outputs are in the library's natural units for a unit
transition (omega = d^2 = 1): distances in c/omega. The library returns
potentials in mu_0 omega^3 d^2 / c (UnitSystem.potential_si); the CLI
prints them in U0 = mu_0 omega^3 d^2 / (8 pi c), that is, times 8 pi.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .core import (Atom, DegenerateDenominator, DomainError, HalfSpace,
                   NotConverged, PerfectLens, SlabWithMirror, Transition,
                   validate_material)
from .potential import (PotentialMethod, potential_auto, potential_nonretarded,
                        potential_numeric, potential_perfect_lens,
                        potential_retarded)
from .quadrature import QuadratureSpec

U0_INV = 8.0 * math.pi  # 1 / U0 in natural units with omega = d^2 = 1

GEOMETRIES = ("halfspace", "slab-mirror", "perfect-lens")
METHODS = ("auto", "numeric", "nonretarded", "retarded", "closed-form")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    geometry: str = "halfspace"
    eps_re: float = 1.0
    eps_im: float = 0.0
    mu_re: float = 1.0
    mu_im: float = 0.0
    thickness: float = 0.0
    zmin: float = 0.1
    zmax: float = 10.0
    points: int = 100
    spacing: str = "log"
    dipole: str = "par"
    w_par: float = 1.0
    w_perp: float = 0.0
    method: str = "auto"
    rel_tol: float = 1e-8
    format: str = "csv"
    output: str = "-"
    reproducible: bool = False
    workers: int = 0

    def validate(self) -> None:
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"geometry: unknown value {self.geometry!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown value {self.method!r}")
        if self.spacing not in ("lin", "log"):
            raise ConfigError(f"spacing: must be 'lin' or 'log', got {self.spacing!r}")
        if self.dipole not in ("par", "perp", "mixed"):
            raise ConfigError(f"dipole: must be par|perp|mixed, got {self.dipole!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format: must be csv|json, got {self.format!r}")
        if not 0.0 < self.zmin < self.zmax < math.inf:
            raise ConfigError("zmin/zmax: need 0 < zmin < zmax < inf, got "
                              f"{self.zmin} and {self.zmax}")
        if self.points < 2:
            raise ConfigError(f"points: need >= 2, got {self.points}")
        if self.workers < 0:
            raise ConfigError(f"workers: need >= 0 (0: one per CPU), got {self.workers}")
        if self.rel_tol <= 0.0:
            raise ConfigError(f"rel_tol: must be > 0, got {self.rel_tol}")
        if self.geometry in ("slab-mirror", "perfect-lens") and self.thickness <= 0.0:
            raise ConfigError(f"thickness: must be > 0 for {self.geometry}")
        if self.dipole == "mixed" and self.w_par + self.w_perp <= 0.0:
            raise ConfigError("w_par/w_perp: mixed dipole needs a positive total weight")
        if self.geometry == "perfect-lens" and self.zmin <= self.thickness:
            raise ConfigError("zmin: perfect-lens potential requires zmin > thickness")
        if self.method in ("nonretarded", "retarded") and self.geometry != "halfspace":
            raise ConfigError(f"method: {self.method} applies to halfspace only")
        if self.method == "closed-form" and self.geometry != "perfect-lens":
            raise ConfigError("method: closed-form applies to perfect-lens only")

    def material(self):
        return validate_material(complex(self.eps_re, self.eps_im),
                                 complex(self.mu_re, self.mu_im))

    def build_geometry(self):
        if self.geometry == "halfspace":
            return HalfSpace(self.material())
        if self.geometry == "slab-mirror":
            return SlabWithMirror(self.material(), self.thickness)
        return PerfectLens(self.thickness)

    def build_atom(self) -> Atom:
        if self.dipole == "par":
            w_par, w_perp = 1.0, 0.0
        elif self.dipole == "perp":
            w_par, w_perp = 0.0, 1.0
        else:
            total = self.w_par + self.w_perp
            w_par, w_perp = self.w_par / total, self.w_perp / total
        return Atom([Transition(1.0, w_par, w_perp)])

    def distances(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.zmin, self.zmax, self.points)
        return np.linspace(self.zmin, self.zmax, self.points)

    def quad_spec(self) -> QuadratureSpec:
        return QuadratureSpec(rel_tol=self.rel_tol)


def _eval_point(args):
    config, z = args
    atom = config.build_atom()
    geometry = config.build_geometry()
    spec = config.quad_spec()
    try:
        if config.method == "auto":
            s = potential_auto(atom, geometry, z, spec)
        elif config.method == "numeric":
            s = potential_numeric(atom, geometry, z, spec)
        elif config.method == "nonretarded":
            s = potential_nonretarded(atom, config.material(), z)
        elif config.method == "retarded":
            s = potential_retarded(atom, config.material(), z)
        else:
            s = potential_perfect_lens(atom, config.thickness, z)
        return z, s.value * U0_INV, s.error_estimate * U0_INV, s.method.value
    except (NotConverged, DegenerateDenominator):
        return z, float("nan"), float("inf"), "failed"


def _eval_compare(args):
    config, z = args
    atom = config.build_atom()
    geometry = config.build_geometry()
    spec = config.quad_spec()
    try:
        num = potential_numeric(atom, geometry, z, spec).value * U0_INV
    except (NotConverged, DegenerateDenominator):
        num = float("nan")
    row = {"z_norm": z, "U_numeric": num}
    if config.geometry == "halfspace":
        material = config.material()
        for name, fn in (("nonretarded", potential_nonretarded),
                         ("retarded", potential_retarded)):
            try:
                u = fn(atom, material, z).value * U0_INV
            except DegenerateDenominator:
                u = float("nan")
            row[f"U_{name}"] = u
            row[f"dev_{name}"] = _relative_deviation(num, u)
    else:
        if z > config.thickness:
            u = potential_perfect_lens(atom, config.thickness, z).value * U0_INV
        else:
            u = float("nan")
        row["U_closed_form"] = u
        row["dev_closed_form"] = _relative_deviation(num, u)
    return row


def _relative_deviation(num: float, ref: float) -> float:
    if not (math.isfinite(num) and math.isfinite(ref)) or ref == 0.0:
        return float("nan") if ref != 0.0 or num != ref else 0.0
    return abs(num - ref) / abs(ref)


def _run_parallel(fn, config, distances):
    jobs = [(config, float(z)) for z in distances]
    # The pool starts all its workers at once, so never more than points.
    workers = min(config.workers or os.cpu_count() or 1, len(jobs))
    if workers == 1 or len(jobs) < 4:
        return [fn(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def _json_value(x):
    """x, with a non-finite float as None: JSON (RFC 8259) has no NaN or
    Infinity, so failed rows and nan columns are written as null."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit(config: SweepConfig, columns, rows, command: str) -> None:
    # output path and worker count do not influence the numbers; keeping
    # them out of the metadata makes reproducible runs byte-comparable
    # across destinations.
    recorded = {k: v for k, v in asdict(config).items()
                if k not in ("output", "workers")}
    if config.format == "csv":
        lines = [f"# planarcp {command}"]
        if not config.reproducible:
            lines.append(f"# generated: {datetime.datetime.now().isoformat()}")
        lines.append(f"# config: {json.dumps(recorded, sort_keys=True)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        meta = {"command": command,
                "config": {k: _json_value(v) for k, v in recorded.items()}}
        if not config.reproducible:
            meta["generated"] = datetime.datetime.now().isoformat()
        meta["rows"] = [{k: _json_value(v) for k, v in row.items()}
                        for row in rows]
        text = json.dumps(meta, indent=2, allow_nan=False) + "\n"
    if config.output in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(config.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def run_sweep(config: SweepConfig) -> int:
    config.validate()
    results = _run_parallel(_eval_point, config, config.distances())
    rows = [{"z_norm": z, "U_norm": u, "U_err": err, "method": method}
            for z, u, err, method in results]
    _emit(config, ("z_norm", "U_norm", "U_err", "method"), rows, "sweep")
    failed = sum(1 for r in rows if r["method"] == "failed")
    if failed:
        print(f"planarcp: {failed}/{len(rows)} points failed",
              file=sys.stderr)
        return 2
    return 0


def run_compare(config: SweepConfig) -> int:
    config.validate()
    if config.method != "auto":
        raise ConfigError("method: compare requires method = auto")
    rows = _run_parallel(_eval_compare, config, config.distances())
    columns = list(rows[0].keys())
    _emit(config, columns, rows, "compare")
    failed = sum(1 for r in rows if math.isnan(r["U_numeric"]))
    if failed:
        print(f"planarcp: {failed}/{len(rows)} points failed",
              file=sys.stderr)
        return 2
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--geometry", choices=GEOMETRIES)
    p.add_argument("--eps-re", type=float)
    p.add_argument("--eps-im", type=float)
    p.add_argument("--mu-re", type=float)
    p.add_argument("--mu-im", type=float)
    p.add_argument("--thickness", type=float)
    p.add_argument("--zmin", type=float)
    p.add_argument("--zmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--spacing", choices=("lin", "log"))
    p.add_argument("--dipole", choices=("par", "perp", "mixed"))
    p.add_argument("--w-par", type=float)
    p.add_argument("--w-perp", type=float)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--rel-tol", type=float)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output", "-o")
    p.add_argument("--reproducible", action="store_true", default=None)
    p.add_argument("--workers", type=int)


def _typed(key: str, val):
    """val as the type of SweepConfig's default for key; ConfigError if
    it has another type (an int is a valid float, an integral float a
    valid int, a bool neither)."""
    kind = type(SweepConfig.__dataclass_fields__[key].default)
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, kind) and (kind is bool or not isinstance(val, bool)):
        return val
    raise ConfigError(f"{key}: expected {kind.__name__}, got {val!r}")


def _build_config(args: argparse.Namespace) -> SweepConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        for key, val in loaded.items():
            if key not in SweepConfig.__dataclass_fields__:
                raise ConfigError(f"config file {args.config}: unknown field {key!r}")
            values[key] = val
    for key in SweepConfig.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return SweepConfig(**{k: _typed(k, v) for k, v in values.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planarcp",
        description="Resonant Casimir-Polder potential sweeps near planar "
                    "magneto-electric media (natural units).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("sweep", "potential vs distance"),
                            ("compare", "numeric vs closed-form columns")):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "sweep":
            return run_sweep(config)
        return run_compare(config)
    except (ConfigError, DomainError, ValueError) as exc:
        print(f"planarcp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
