"""Batch front door: ingest citation data, compute indices and bundles,
report admissible ranges, and run the verification suite.

Input files are CSV with header ``id,counts`` (counts separated by ``;``)
or JSON arrays of ``{"id": ..., "counts": [...]}``.  All computed tables
are emitted in input order with 12 significant digits, so identical
(input, config, seed) triples produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 input or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import BundleError
from .funcspace import RankFrequencyFunction, from_citation_counts
from .operators import OperatorKind
from .solver import SolveConfig, sample_bundle
from .thresholds import (
    DecreasingLinearThreshold,
    PowerThreshold,
    ThresholdFamily,
    admissible_range,
)
from .verify import SuiteConfig, run_property_suite


class CliError(Exception):
    """Input or configuration problem; maps to exit code 2."""


@dataclass(frozen=True)
class IndexDef:
    name: str
    operator: str = "identity"  # identity | averaging | integral
    family: str = "power"  # power | declin
    p: float = 1.0
    shift: float | str = 0.0  # number, or "origin" for the support start
    ceiling: float = 0.0  # declin only

    def resolve(self, f: RankFrequencyFunction) -> tuple[OperatorKind, ThresholdFamily]:
        try:
            kind = OperatorKind(self.operator)
        except ValueError:
            raise CliError(f"unknown operator {self.operator!r} in index {self.name!r}")
        try:
            if self.family == "power":
                shift = f.support_start if self.shift == "origin" else float(self.shift)
                fam: ThresholdFamily = PowerThreshold(p=self.p, shift=shift)
            elif self.family == "declin":
                fam = DecreasingLinearThreshold(ceiling=self.ceiling)
            else:
                raise CliError(f"unknown family {self.family!r} in index {self.name!r}")
        except (TypeError, ValueError) as e:  # TypeError: a non-numeric parameter
            raise CliError(f"bad parameters for index {self.name!r}: {e}")
        return kind, fam


# The grid is materialized as a list before the first solve; a count far
# beyond any useful resolution would exhaust memory instead of failing.
MAX_THETA_COUNT = 1_000_000


@dataclass(frozen=True)
class ThetaGrid:
    lo: float = 1.0
    hi: float = 1.0
    count: int = 1
    spacing: str = "linear"  # linear | log

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.lo]
        if self.spacing == "log":
            ratio = (self.hi / self.lo) ** (1.0 / (self.count - 1))
            return [self.lo * ratio**i for i in range(self.count)]
        step = (self.hi - self.lo) / (self.count - 1)
        return [self.lo + step * i for i in range(self.count)]


DEFAULT_INDICES = (
    IndexDef(name="h", operator="identity", p=1.0, shift=0.0),
    IndexDef(name="g", operator="averaging", p=1.0, shift="origin"),
)


@dataclass(frozen=True)
class RunConfig:
    indices: tuple[IndexDef, ...] = DEFAULT_INDICES
    theta_grid: ThetaGrid = field(default_factory=ThetaGrid)
    solver: SolveConfig = field(default_factory=SolveConfig)
    seed: int = 20240810
    trials: int = 40


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return format(x, ".12g")


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read config {path}: {e}")
    if not isinstance(raw, dict):
        raise CliError("config root must be a JSON object")
    try:
        indices = tuple(
            IndexDef(**entry) for entry in raw.get("indices", [])
        ) or DEFAULT_INDICES
        grid_raw = raw.get("theta_grid", {})
        grid = ThetaGrid(
            lo=float(grid_raw.get("min", 1.0)),
            hi=float(grid_raw.get("max", grid_raw.get("min", 1.0))),
            count=int(grid_raw.get("count", 1)),
            spacing=str(grid_raw.get("spacing", "linear")),
        )
        solver_raw = raw.get("solver", {})
        if "scan_points" in solver_raw:
            print(
                "note: config key solver.scan_points is ignored; roots are isolated "
                "exactly from the breakpoints",
                file=sys.stderr,
            )
        solver = SolveConfig(abs_tol_x=float(solver_raw.get("abs_tol_x", 1e-10)))
        cfg = RunConfig(
            indices=indices,
            theta_grid=grid,
            solver=solver,
            seed=int(raw.get("seed", 20240810)),
            trials=int(raw.get("trials", 40)),
        )
    # AttributeError: a section that is not an object; OverflowError: int(inf)
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise CliError(f"bad config: {e}")
    _validate_grid(cfg.theta_grid)
    return cfg


def _validate_grid(grid: ThetaGrid) -> None:
    if not (math.isfinite(grid.lo) and math.isfinite(grid.hi)):
        raise CliError("theta grid bounds must be finite")
    if grid.lo <= 0:
        raise CliError("theta grid minimum must be positive")
    if grid.count < 1:
        raise CliError("theta grid count must be at least 1")
    if grid.count > MAX_THETA_COUNT:
        raise CliError(f"theta grid count must be at most {MAX_THETA_COUNT}, got {grid.count}")
    if grid.count > 1 and grid.hi < grid.lo:
        raise CliError("theta grid maximum must not be below minimum")
    if grid.spacing not in ("linear", "log"):
        raise CliError(f"unknown theta grid spacing {grid.spacing!r}")


def parse_theta_grid_flag(text: str) -> ThetaGrid:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise CliError("--theta-grid expects min:max:count[:log]")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise CliError(f"bad --theta-grid: {e}")
    spacing = "linear"
    if len(parts) == 4:
        if parts[3] != "log":
            raise CliError("--theta-grid spacing must be 'log' when given")
        spacing = "log"
    grid = ThetaGrid(lo=lo, hi=hi, count=count, spacing=spacing)
    _validate_grid(grid)
    return grid


# --------------------------------------------------------------------------
# input ingestion
# --------------------------------------------------------------------------


def read_sources(path: str) -> list[tuple[str, np.ndarray]]:
    """Read (id, counts) rows from a CSV or JSON file; counts are finite and non-negative."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"input file not found: {path}")
    if p.suffix.lower() == ".json":
        return _read_json(p)
    return _read_csv(p)


def _counts_problem(counts: np.ndarray) -> str | None:
    if not np.isfinite(counts).all():
        return "counts must be finite"
    if counts.min() < 0:
        return "counts must be non-negative"
    return None


def _read_json(p: Path) -> list[tuple[str, np.ndarray]]:
    try:
        raw = json.loads(p.read_text())
    except ValueError as e:  # JSONDecodeError, or an integer past Python's digit limit
        raise CliError(f"{p}: invalid JSON: {e}")
    if not isinstance(raw, list):
        raise CliError(f"{p}: expected a JSON array of records")
    out = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict) or "id" not in rec or "counts" not in rec:
            raise CliError(f"{p}: record {i}: need objects with 'id' and 'counts'")
        counts = rec["counts"]
        if not isinstance(counts, list) or not counts:
            raise CliError(f"{p}: record {i}: 'counts' must be a non-empty list")
        try:
            vals = np.array(list(map(float, counts)))
        except OverflowError:  # an integer beyond the float range, like 1e401 in CSV
            raise CliError(f"{p}: record {i}: counts must be finite")
        except (TypeError, ValueError):
            raise CliError(f"{p}: record {i}: counts must be numbers")
        problem = _counts_problem(vals)
        if problem:
            raise CliError(f"{p}: record {i}: {problem}")
        out.append((str(rec["id"]), vals))
    return out


def _read_csv(p: Path) -> list[tuple[str, np.ndarray]]:
    out = []
    with p.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{p}: empty file")
        if [h.strip() for h in header[:2]] != ["id", "counts"]:
            raise CliError(f"{p}: line 1: expected header 'id,counts'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise CliError(f"{p}: line {lineno}: expected 'id,counts'")
            try:
                vals = list(map(float, filter(str.strip, row[1].split(";"))))
            except ValueError:
                raise CliError(f"{p}: line {lineno}: counts must be numbers")
            if not vals:
                raise CliError(f"{p}: line {lineno}: empty counts")
            counts = np.array(vals)
            problem = _counts_problem(counts)
            if problem:
                raise CliError(f"{p}: line {lineno}: {problem}")
            out.append((row[0].strip(), counts))
    return out


def _build_functions(
    sources: list[tuple[str, np.ndarray]]
) -> list[tuple[str, RankFrequencyFunction]]:
    out = []
    for source_id, counts in sources:
        if not (counts[1:] <= counts[:-1]).all():
            print(
                f"warning: source {source_id!r}: counts not sorted non-increasingly; sorting",
                file=sys.stderr,
            )
            # stable, as sorted(reverse=True), so that 0.0 and -0.0 keep their order
            counts = -np.sort(-counts, kind="stable")
        out.append((source_id, from_citation_counts(counts)))
    return out


# --------------------------------------------------------------------------
# table emission
# --------------------------------------------------------------------------


def _emit(rows: list[dict], columns: list[str], fmt: str, out: io.TextIOBase) -> None:
    if fmt == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])


def _bundle_entries(args, cfg: RunConfig):
    """(id, index, threshold, entry) for every source, index and theta, in input order."""
    thetas = cfg.theta_grid.values()
    for source_id, f in _build_functions(read_sources(args.input)):
        for idx in cfg.indices:
            kind, fam = idx.resolve(f)
            try:
                sample = sample_bundle(f, kind, fam, thetas, cfg.solver, function_id=source_id)
            except BundleError as e:
                raise CliError(f"source {source_id!r}, index {idx.name!r}: {e}")
            for entry in sample.entries:
                yield source_id, idx, fam, entry


def cmd_index(args, cfg: RunConfig) -> int:
    rows = [
        {
            "id": source_id,
            "index": idx.name,
            "theta": _fmt(entry.theta),
            "value": _fmt(entry.m) if math.isfinite(entry.m) else entry.status.value,
        }
        for source_id, idx, _, entry in _bundle_entries(args, cfg)
    ]
    _emit(rows, ["id", "index", "theta", "value"], args.format, sys.stdout)
    return 0


def cmd_bundle(args, cfg: RunConfig) -> int:
    rows = [
        {
            "id": source_id,
            "index": idx.name,
            "operator": idx.operator,
            "p": _fmt(idx.p) if idx.family == "power" else "",
            "shift": _fmt(fam.shift) if idx.family == "power" else "",
            "theta": _fmt(entry.theta),
            "m": _fmt(entry.m) if math.isfinite(entry.m) else "",
            "status": entry.status.value,
        }
        for source_id, idx, fam, entry in _bundle_entries(args, cfg)
    ]
    _emit(
        rows,
        ["id", "index", "operator", "p", "shift", "theta", "m", "status"],
        args.format,
        sys.stdout,
    )
    return 0


def cmd_admissible(args, cfg: RunConfig) -> int:
    sources = read_sources(args.input)
    rows = []
    caveat = False
    for source_id, f in _build_functions(sources):
        for idx in cfg.indices:
            kind, fam = idx.resolve(f)
            try:
                rng = admissible_range(f, kind, fam)
            except BundleError as e:
                rows.append(
                    {
                        "id": source_id,
                        "index": idx.name,
                        "theta_min": "",
                        "theta_max": "",
                        "certified": f"error: {e}",
                    }
                )
                continue
            caveat = caveat or not rng.certified
            rows.append(
                {
                    "id": source_id,
                    "index": idx.name,
                    "theta_min": _fmt(rng.theta_min) if rng.theta_min is not None else "0",
                    "theta_max": _fmt(rng.theta_max),
                    "certified": "true" if rng.certified else "false",
                }
            )
    _emit(rows, ["id", "index", "theta_min", "theta_max", "certified"], args.format, sys.stdout)
    if caveat:
        print(
            "warning: ranges marked certified=false are grid estimates, not analytic bounds",
            file=sys.stderr,
        )
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    trials = args.trials if args.trials is not None else cfg.trials
    if trials < 0:
        raise CliError(f"trials must be non-negative, got {trials}")
    if cfg.seed < 0:
        raise CliError(f"seed must be non-negative, got {cfg.seed}")
    if trials == 0:
        print("warning: zero trials requested; every property is vacuous", file=sys.stderr)
    suite_cfg = SuiteConfig(
        master_seed=cfg.seed,
        trials=trials,
        solver=cfg.solver,
        include_reversal_in_impact=args.inject_reversal,
    )
    result = run_property_suite(suite_cfg)
    for report in result.reports:
        line = (
            f"{report.verdict.value.upper():8s} {report.name} "
            f"(trials={report.trials}, satisfied={report.satisfied}, "
            f"failures={len(report.failures)})"
        )
        print(line)
        for c in report.failures[:3]:
            print(f"    counterexample: {c.inputs} lhs={c.lhs!r} rhs={c.rhs!r} theta={c.theta!r}")
    counts = result.counts()
    print(f"summary: {counts['pass']} pass, {counts['fail']} fail, {counts['vacuous']} vacuous")
    if args.report:
        Path(args.report).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    return 1 if result.any_fail else 0


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirschbundles",
        description="Generalized Hirsch-type impact bundles over citation records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool) -> None:
        if needs_input:
            p.add_argument("input", help="CSV (id,counts with ';'-separated counts) or JSON file")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--theta-grid", default=None, help="min:max:count[:log]")
        p.add_argument("--tol", type=float, default=None, help="solver abs_tol_x")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_index = sub.add_parser("index", help="one value per (source, index, theta)")
    common(p_index, True)
    p_bundle = sub.add_parser("bundle", help="sampled bundle table over the theta grid")
    common(p_bundle, True)
    p_adm = sub.add_parser("admissible", help="admissible theta range per source and index")
    common(p_adm, True)
    p_verify = sub.add_parser("verify", help="run the randomized property suite")
    common(p_verify, False)
    p_verify.add_argument("--trials", type=int, default=None, help="trials per property")
    p_verify.add_argument(
        "--report", default="verification_report.json", help="machine-readable report path"
    )
    p_verify.add_argument(
        "--inject-reversal",
        action="store_true",
        help="include the order-reversing configuration in the impact audit (self-test; fails)",
    )
    return parser


def _apply_flag_overrides(args, cfg: RunConfig) -> RunConfig:
    changes = {}
    if args.theta_grid is not None:
        changes["theta_grid"] = parse_theta_grid_flag(args.theta_grid)
    if args.tol is not None:
        try:
            changes["solver"] = replace(cfg.solver, abs_tol_x=args.tol)
        except ValueError as e:
            raise CliError(f"bad --tol: {e}")
    if args.seed is not None:
        changes["seed"] = args.seed
    return replace(cfg, **changes)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_flag_overrides(args, load_config(args.config))
        if args.command == "index":
            return cmd_index(args, cfg)
        if args.command == "bundle":
            return cmd_bundle(args, cfg)
        if args.command == "admissible":
            return cmd_admissible(args, cfg)
        return cmd_verify(args, cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
