"""Batch front door: ingest citation data, compute indices and bundles,
report admissible ranges, and run the verification suite.

Input files are CSV with header ``id,counts`` (counts separated by ``;``)
or JSON arrays of ``{"id": ..., "counts": [...]}``.  The CSV reader splits
plain lines at their commas itself and leaves the rest of the file to the
csv module from the first line that needs it.  It parses 1,000 records at
a time: counts of 1 to 15 ASCII digits straight from the text's bytes,
exactly; any other chunk with one numpy conversion, and an irregular one
line by line, whose messages name the first bad line.

All computed tables are emitted in input order with 12 significant
digits, so identical (input, config, seed) triples produce byte-identical
output.  Rows are tuples of cells in column order; ``--format json``
turns them into objects.  Certified admissible ranges are computed and
formatted as columns over the whole corpus.

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
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import BundleError
from .funcspace import RankFrequencyFunction, citation_integrals, from_citation_counts
from .operators import OperatorKind
from .solver import sample_bundle
from .thresholds import (
    AdmissibleRange,
    DecreasingLinearThreshold,
    PowerThreshold,
    ThresholdFamily,
    admissible_range,
    certified_bounds,
    certified_range,
    is_certified,
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
        return self.resolve_at(f.support_start)

    def resolve_at(self, origin: float) -> tuple[OperatorKind, ThresholdFamily]:
        """The operator and family for functions whose support starts at ``origin``."""
        try:
            kind = OperatorKind(self.operator)
        except ValueError:
            raise CliError(f"unknown operator {self.operator!r} in index {self.name!r}")
        try:
            if self.family == "power":
                shift = origin if self.shift == "origin" else float(self.shift)
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
    if "solver" in raw:
        print("note: ignoring config section 'solver': the solver has no settings", file=sys.stderr)
    try:
        indices = tuple(
            IndexDef(**entry) for entry in raw.get("indices", [])
        ) or DEFAULT_INDICES
        grid_raw = raw.get("theta_grid", {})
        grid = ThetaGrid(
            lo=float(grid_raw.get("min", 1.0)),
            hi=float(grid_raw.get("max", grid_raw.get("min", 1.0))),
            count=_config_int(grid_raw.get("count", 1), "theta_grid.count"),
            spacing=str(grid_raw.get("spacing", "linear")),
        )
        cfg = RunConfig(
            indices=indices,
            theta_grid=grid,
            seed=_config_int(raw.get("seed", 20240810), "seed"),
            trials=_config_int(raw.get("trials", 40), "trials"),
        )
    # AttributeError: a section that is not an object; OverflowError: int(inf)
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise CliError(f"bad config: {e}")
    _validate_grid(cfg.theta_grid)
    return cfg


def _config_int(value, key: str) -> int:
    """``int(value)``, where a bool, or a float that is not a whole number, is bad config."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise CliError(f"bad config: {key} must be an integer, got {value!r}")
    return int(value)


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


# Records per chunk of the CSV reader: the counts of a whole chunk are parsed
# at once, and a chunk keeps few enough strings and arrays alive at once.
CSV_CHUNK = 1000


@dataclass(frozen=True, eq=False)
class Corpus:
    """Records as columns: their ids, every count in one flat read-only array,
    and offsets such that record i holds ``counts[offsets[i]:offsets[i + 1]]``.

    Each record holds at least one count, and its counts are finite,
    non-negative and sorted non-increasingly.
    """

    ids: list[str]
    counts: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        """(id, counts) per record, in input order; the counts are read-only views."""
        bounds = self.offsets.tolist()
        for i, source_id in enumerate(self.ids):
            yield source_id, self.counts[bounds[i] : bounds[i + 1]]


# What a reader returns per chunk: the ids, the counts of all its records
# back to back, and how many counts each record holds.
_Chunk = tuple[list[str], np.ndarray, list[int]]


def read_sources(path: str) -> Corpus:
    """Read a CSV or JSON file into a corpus; counts are finite and non-negative.

    A record whose counts are not sorted non-increasingly is sorted, with one
    warning on stderr, once the whole file has parsed.
    """
    p = Path(path)
    if not p.exists():
        raise CliError(f"input file not found: {path}")
    try:
        chunks = [_read_json(p)] if p.suffix.lower() == ".json" else _read_csv(p)
    except OSError as e:  # a directory, say
        raise CliError(f"{p}: cannot read: {e.strerror or e}")
    except UnicodeDecodeError as e:  # only CSV: the JSON reader reports it as invalid JSON
        raise CliError(f"{p}: line {_undecodable_line(p)}: not UTF-8 text: {e.reason}")
    return _corpus(chunks)


def _undecodable_line(p: Path) -> int:
    """The line of the first byte of ``p`` that UTF-8 does not decode."""
    data = p.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return data.count(b"\n", 0, e.start) + 1
    return 1  # the file changed since it was read


def _corpus(chunks: list[_Chunk]) -> Corpus:
    """Join the chunks; sort each record that arrives unsorted, with a warning."""
    ids = [source_id for chunk in chunks for source_id in chunk[0]]
    counts = np.concatenate([chunk[1] for chunk in chunks])
    offsets = np.zeros(len(ids) + 1, dtype=np.intp)
    offsets[1:] = np.cumsum([n for chunk in chunks for n in chunk[2]])
    # a rise from one count to the next marks its record unsorted, unless
    # the next count starts a record
    rises = counts[1:] > counts[:-1]
    rises[offsets[1:-1] - 1] = False
    unsorted = np.zeros(len(ids), dtype=bool)
    unsorted[np.searchsorted(offsets, np.flatnonzero(rises), side="right") - 1] = True
    for i in np.flatnonzero(unsorted).tolist():
        print(
            f"warning: source {ids[i]!r}: counts not sorted non-increasingly; sorting",
            file=sys.stderr,
        )
        record = counts[offsets[i] : offsets[i + 1]]
        # stable, as sorted(reverse=True), so that 0.0 and -0.0 keep their order
        record[:] = -np.sort(-record, kind="stable")
    counts.flags.writeable = False
    offsets.flags.writeable = False
    return Corpus(ids=ids, counts=counts, offsets=offsets)


def _counts_problem(counts: np.ndarray) -> str | None:
    if not np.isfinite(counts).all():
        return "counts must be finite"
    if counts.min() < 0:
        return "counts must be non-negative"
    return None


def _read_json(p: Path) -> _Chunk:
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError, or an integer past Python's digit limit
        raise CliError(f"{p}: invalid JSON: {e}")
    if not isinstance(raw, list):
        raise CliError(f"{p}: expected a JSON array of records")
    ids, records = [], []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict) or "id" not in rec or "counts" not in rec:
            raise CliError(f"{p}: record {i}: need objects with 'id' and 'counts'")
        counts = rec["counts"]
        if not isinstance(counts, list) or not counts:
            raise CliError(f"{p}: record {i}: 'counts' must be a non-empty list")
        if bool in set(map(type, counts)):  # float(True) would read it as 1.0
            raise CliError(f"{p}: record {i}: counts must be numbers")
        try:
            vals = np.array(list(map(float, counts)))
        except OverflowError:  # an integer beyond the float range, like 1e401 in CSV
            raise CliError(f"{p}: record {i}: counts must be finite")
        except (TypeError, ValueError):
            raise CliError(f"{p}: record {i}: counts must be numbers")
        problem = _counts_problem(vals)
        if problem:
            raise CliError(f"{p}: record {i}: {problem}")
        ids.append(str(rec["id"]))
        records.append(vals)
    return ids, np.concatenate(records or [np.empty(0)]), [len(r) for r in records]


def _read_csv(p: Path) -> list[_Chunk]:
    chunks = []
    with p.open(encoding="utf-8", newline="") as fh:
        reader = _csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{p}: empty file")
        except csv.Error as e:
            raise CliError(f"{p}: line 1: {e}")
        if [h.strip() for h in header[:2]] != ["id", "counts"]:
            raise CliError(f"{p}: line 1: expected header 'id,counts'")
        rows: list[tuple[int, list[str]]] = []
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if row:
                    rows.append((lineno, row))
                if len(rows) == CSV_CHUNK:
                    chunk, rows = rows, []
                    chunks.append(_parse_chunk(p, chunk))
        except csv.Error as e:  # a field beyond csv.field_size_limit(), say
            raise CliError(f"{p}: line {lineno + 1}: {e}")
        finally:
            # also when the reader fails part-way, so that a bad line before
            # the failure is reported first, as line by line
            chunks.append(_parse_chunk(p, rows))
    return chunks


def _csv_rows(fh: Iterable[str]) -> Iterator[list[str]]:
    """The rows of ``csv.reader(fh)``, for lines read with ``newline=""``.

    csv yields ``line.split(",")`` for a line with no quote, carriage
    return or NUL (which csv rejects before Python 3.11) that is no longer
    than its field limit, and ``[]`` for a blank line.  Such plain lines
    are split here; from the first other line on, csv reads the rest.
    """
    limit = csv.field_size_limit()
    for line in fh:
        if '"' in line or "\r" in line or "\0" in line or len(line) > limit:
            yield from csv.reader(chain([line], fh))
            return
        if line[-1] == "\n":
            line = line[:-1]
        yield line.split(",") if line else []


def _parse_chunk(p: Path, rows: list[tuple[int, list[str]]]) -> _Chunk:
    """Parse the counts of non-blank rows in one pass over the chunk's text.

    Counts of 1 to 15 ASCII digits go through :func:`_parse_digits`; any
    other chunk is converted with one numpy call.  Any irregularity (a short
    row; an empty, blank, non-numeric, non-finite or negative token) sends
    the rows through the line-by-line reader instead, which skips what it
    may skip and names the first bad line.
    """
    try:
        fields = [row[1] for _, row in rows]
    except IndexError:
        return _parse_rows(p, rows)
    text = ";".join(fields)
    counts = _parse_digits(text)
    if counts is None:
        try:
            # numpy converts each string as float() does
            counts = np.array(text.split(";"), dtype=float)
        except ValueError:
            return _parse_rows(p, rows)
        if not ((counts >= 0.0) & (counts < math.inf)).all():  # NaN fails both
            return _parse_rows(p, rows)
    return [row[0].strip() for _, row in rows], counts, [f.count(";") + 1 for f in fields]


# Tokens of at most this many digits are below 10**15 < 2**53, so every
# partial sum of their digit columns is an integer that float64 holds exactly.
_MAX_DIGITS = 15


def _parse_digits(text: str) -> np.ndarray | None:
    """The values of ``;``-separated tokens of 1 to 15 ASCII digits each.

    Each value is bitwise ``float(token)``, leading zeros included.  Returns
    None for any other text, an empty token or a longer one included.
    """
    if not text.isascii():
        return None
    # allocated before the temporaries, so that their space is reused
    # once they are freed rather than left below the kept array
    values = np.empty(text.count(";") + 1)
    # a separator in front, so that every token's first digit follows one
    codes = np.frombuffer(f";{text}".encode("ascii"), dtype=np.uint8)
    digits = codes - ord("0")  # wraps around below "0"
    separators = np.flatnonzero(digits > 9)
    if len(separators) != len(values):  # a byte that is neither a digit nor ";"
        return None
    pos = np.append(separators[1:], len(codes)) - 1  # the last byte of each token
    column = digits[pos]
    if not (column <= 9).all():  # an empty token
        return None
    values[:] = column
    # live: the tokens with a digit in column k, counted from 0 at the right;
    # pos: the place of that digit
    live = np.flatnonzero(digits[pos - 1] <= 9)
    pos = pos[live] - 1
    for k in range(1, _MAX_DIGITS):
        if not len(live):
            return values
        values[live] += digits[pos] * 10.0**k
        pos -= 1
        more = digits[pos] <= 9
        live, pos = live[more], pos[more]
    return None if len(live) else values


def _parse_rows(p: Path, rows: list[tuple[int, list[str]]]) -> _Chunk:
    """The line-by-line reader, whose messages name the first bad line."""
    ids, values, lengths = [], [], []
    for lineno, row in rows:
        if len(row) < 2:
            raise CliError(f"{p}: line {lineno}: expected 'id,counts'")
        try:
            vals = list(map(float, filter(str.strip, row[1].split(";"))))
        except ValueError:
            raise CliError(f"{p}: line {lineno}: counts must be numbers")
        if not vals:
            raise CliError(f"{p}: line {lineno}: empty counts")
        problem = _counts_problem(np.array(vals))
        if problem:
            raise CliError(f"{p}: line {lineno}: {problem}")
        ids.append(row[0].strip())
        values.extend(vals)
        lengths.append(len(vals))
    return ids, np.array(values, dtype=float), lengths


def _build_functions(corpus: Corpus) -> list[tuple[str, RankFrequencyFunction]]:
    return [(source_id, from_citation_counts(counts)) for source_id, counts in corpus]


# --------------------------------------------------------------------------
# table emission
# --------------------------------------------------------------------------


def _emit(rows: Iterable[tuple], columns: list[str], fmt: str, out: io.TextIOBase) -> None:
    """Write ``rows``, tuples of cells in column order, as CSV or JSON records."""
    if fmt == "json":
        json.dump([dict(zip(columns, row)) for row in rows], out, indent=2)
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _bundle_samples(args, cfg: RunConfig, thetas: list[float]):
    """(id, index, threshold, entries) for every source and index, in input order.

    The entries are those of the source's bundle over ``thetas``, in grid order.
    """
    for source_id, f in _build_functions(read_sources(args.input)):
        for idx in cfg.indices:
            kind, fam = idx.resolve(f)
            try:
                entries = sample_bundle(f, kind, fam, thetas)
            except BundleError as e:
                raise CliError(f"source {source_id!r}, index {idx.name!r}: {e}")
            yield source_id, idx, fam, entries


def cmd_index(args, cfg: RunConfig) -> int:
    thetas = cfg.theta_grid.values()
    theta_cells = [_fmt(theta) for theta in thetas]
    rows = [
        (
            source_id,
            idx.name,
            theta_cell,
            _fmt(entry.m) if math.isfinite(entry.m) else entry.status.value,
        )
        for source_id, idx, _, entries in _bundle_samples(args, cfg, thetas)
        for theta_cell, entry in zip(theta_cells, entries)
    ]
    _emit(rows, ["id", "index", "theta", "value"], args.format, sys.stdout)
    return 0


def cmd_bundle(args, cfg: RunConfig) -> int:
    thetas = cfg.theta_grid.values()
    theta_cells = [_fmt(theta) for theta in thetas]
    rows = []
    for source_id, idx, fam, entries in _bundle_samples(args, cfg, thetas):
        power = idx.family == "power"
        p_cell = _fmt(idx.p) if power else ""
        shift_cell = _fmt(fam.shift) if power else ""
        rows.extend(
            (
                source_id,
                idx.name,
                idx.operator,
                p_cell,
                shift_cell,
                theta_cell,
                _fmt(entry.m) if math.isfinite(entry.m) else "",
                entry.status.value,
            )
            for theta_cell, entry in zip(theta_cells, entries)
        )
    _emit(
        rows,
        ["id", "index", "operator", "p", "shift", "theta", "m", "status"],
        args.format,
        sys.stdout,
    )
    return 0


# from_citation_counts starts the support of every record at 0
_RECORD_ORIGIN = 0.0

# The theta_min, theta_max and certified cells of every record for one index.
_RangeColumns = tuple[list[str], list[str], list[str]]


def _range_or_error(
    f: RankFrequencyFunction, kind: OperatorKind, fam: ThresholdFamily
) -> AdmissibleRange | BundleError:
    try:
        return admissible_range(f, kind, fam)
    except BundleError as e:
        return e


def _certified_columns(
    corpus: Corpus, kind: OperatorKind, fam: PowerThreshold
) -> tuple[list[float], list[float], dict[int, BundleError]]:
    """theta_min and theta_max of every record for an index whose ranges are
    certified, and the error of each record that has no range.

    A theta_min of 0.0 means the range is open at zero; the bounds of a
    record with an error are NaN: the zero record, and a record whose
    threshold is not positive on its support (see ``certified_bounds``).
    A record of N counts has the support [0, S] with S = N + 1, on which
    T(f)(0) = c_1: f is flat at c_1 on [0, 1], and mu(f)(0) is its
    continuity value f(0).  At S, f has descended to 0, and
    mu(f)(S) = I(f)(S) / S.
    """
    firsts = corpus.counts[corpus.offsets[:-1]]
    ends = np.diff(corpus.offsets) + 1.0
    if kind is OperatorKind.IDENTITY:
        t_ends = np.zeros(len(corpus))
    else:  # averaging, the other operator whose T(f) decreases
        t_ends = citation_integrals(corpus.counts, corpus.offsets) / ends
    theta_min = np.full(len(corpus), math.nan)
    theta_max = np.full(len(corpus), math.nan)
    nonzero = firsts != 0.0
    theta_min[nonzero], theta_max[nonzero] = certified_bounds(
        firsts[nonzero], t_ends[nonzero], _RECORD_ORIGIN, ends[nonzero], fam
    )
    errors: dict[int, BundleError] = {}
    for i in np.flatnonzero(np.isnan(theta_min)).tolist():
        try:
            if firsts[i] == 0.0:  # the zero function, whose error admissible_range names
                record = corpus.counts[corpus.offsets[i] : corpus.offsets[i + 1]]
                admissible_range(from_citation_counts(record), kind, fam)
            else:  # no positive threshold, which certified_range rejects
                certified_range(firsts[i], t_ends[i], _RECORD_ORIGIN, float(ends[i]), fam)
        except BundleError as e:
            errors[i] = e
    return theta_min.tolist(), theta_max.tolist(), errors


def _range_cells(rng: AdmissibleRange | BundleError) -> tuple[str, str, str]:
    """theta_min, theta_max and certified, as printed."""
    if isinstance(rng, BundleError):
        return "", "", f"error: {rng}"
    return (
        _fmt(rng.theta_min) if rng.theta_min is not None else "0",
        _fmt(rng.theta_max),
        "true" if rng.certified else "false",
    )


def _certified_cells(corpus: Corpus, kind: OperatorKind, fam: PowerThreshold) -> _RangeColumns:
    theta_min, theta_max, errors = _certified_columns(corpus, kind, fam)
    lows = [_fmt(low) if low > 0.0 else "0" for low in theta_min]
    highs = list(map(_fmt, theta_max))
    flags = ["true"] * len(corpus)
    for i, error in errors.items():
        lows[i], highs[i], flags[i] = _range_cells(error)
    return lows, highs, flags


def cmd_admissible(args, cfg: RunConfig) -> int:
    corpus = read_sources(args.input)
    resolved = [idx.resolve_at(_RECORD_ORIGIN) for idx in cfg.indices] if len(corpus) else []
    columns: list[_RangeColumns] = []
    functions = None  # built once, for the first index whose ranges are not certified
    for kind, fam in resolved:
        if is_certified(kind, fam):
            columns.append(_certified_cells(corpus, kind, fam))
        else:
            if functions is None:
                functions = [f for _, f in _build_functions(corpus)]
            cells = [_range_cells(_range_or_error(f, kind, fam)) for f in functions]
            columns.append(tuple(map(list, zip(*cells))))
    # one row per (record, index), in input order
    rows = zip(
        *(zip(corpus.ids, repeat(idx.name), *column) for idx, column in zip(cfg.indices, columns))
    )
    _emit(
        chain.from_iterable(rows),
        ["id", "index", "theta_min", "theta_max", "certified"],
        args.format,
        sys.stdout,
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
