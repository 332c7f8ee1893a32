"""Batch front door: ingest citation data, compute indices and bundles,
report admissible ranges, and run the verification suite.

Input files are CSV with header ``id,counts`` (counts separated by ``;``)
or JSON arrays of ``{"id": ..., "counts": [...]}``.  The CSV reader splits
plain lines, with any line end, at their commas itself and leaves the rest
of the file to the csv module from the first line that needs it (a quoted
one, say).  It parses blocks of whole lines of about 16 KB at a time:
counts of 1 to 15 ASCII digits straight from the text's bytes, exactly; a
block with any other token line by line, as ``float()`` reads it, with
messages that name the line the first bad row starts on.  A leading UTF-8
byte-order mark is skipped in either format.

All computed tables are emitted in input order with 12 significant
digits, so identical (input, config, seed) triples produce byte-identical
output.  A table is handed to the writer as groups of rows that share
their first cells, a (record, index) pair's for ``bundle`` and ``index``
and a record's id for ``admissible``, and is written as text: the bytes
of ``csv.writer`` or, with ``--format json``, of ``json.dump(indent=2)``.
Certified admissible ranges are computed and formatted as columns over
the whole corpus.

Exit codes: 0 success, 1 verification failure, 2 input or config error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BundleError
from .funcspace import RankFrequencyFunction, citation_integrals, from_citation_counts
from .operators import OperatorKind
from .solver import (
    _DECLINED,
    _STATUSES,
    _bundle_cells,
    _CitationColumns,
    _closed_form_pair,
    sample_bundle,
)
from .thresholds import (
    AdmissibleRange,
    DecreasingLinearThreshold,
    PowerThreshold,
    ThresholdFamily,
    admissible_range,
    certified_bounds,
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
# verify spawns a seed sequence per trial before the first one runs, so
# the same holds for a trial count
MAX_TRIALS = 100_000


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


# A number with 12 significant digits, as format(x, ".12g") prints it
# (infinity as "inf"); a table's columns are formatted by mapping its __mod__
_CELL = "%.12g"


def _fmt(x: float) -> str:
    """``x`` with 12 significant digits; infinity prints as ``inf``."""
    return _CELL % x


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    # ValueError: JSONDecodeError, or UnicodeDecodeError for a byte UTF-8 does not decode
    except (OSError, ValueError) as e:
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
    for idx in indices:
        if not isinstance(idx.name, str):  # a table cell must be text
            raise CliError(f"bad config: index {idx.name!r}: 'name' must be a string")
        try:
            idx.name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which UTF-8 output cannot hold
            raise CliError(f"bad config: index {idx.name!r}: 'name' is not encodable as UTF-8")
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
    # finite bounds can still step past the largest float: lo + step * i
    # rounds to inf, hi / lo overflows, or a log ratio's power raises
    try:
        finite = all(map(math.isfinite, grid.values()))
    except OverflowError:
        finite = False
    if not finite:
        spec = f"{grid.lo!r}:{grid.hi!r}:{grid.count}" + (":log" if grid.spacing == "log" else "")
        raise CliError(f"theta grid {spec} overflows: its values must be finite")


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


# Records per chunk of the bundle kernel (_bundle_chunks): the cells of a
# whole chunk are computed at once, and a chunk keeps few enough arrays
# alive at once.
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
_Chunk = tuple[list[str], np.ndarray, Sequence[int]]


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
    return _corpus(chunks)


def _corpus(chunks: list[_Chunk]) -> Corpus:
    """Join the chunks; sort each record that arrives unsorted, with a warning."""
    ids = [source_id for chunk in chunks for source_id in chunk[0]]
    counts = np.concatenate([chunk[1] for chunk in chunks])
    offsets = np.zeros(len(ids) + 1, dtype=np.intp)
    lengths = [np.asarray(chunk[2], dtype=np.intp) for chunk in chunks]
    offsets[1:] = np.cumsum(np.concatenate(lengths))
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
        raw = json.loads(p.read_text(encoding="utf-8-sig"))
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
        source_id = str(rec["id"])
        try:
            source_id.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which UTF-8 output cannot hold
            raise CliError(f"{p}: record {i}: 'id' is not encodable as UTF-8")
        ids.append(source_id)
        records.append(vals)
    return ids, np.concatenate(records or [np.empty(0)]), [len(r) for r in records]


def _read_csv(p: Path) -> list[_Chunk]:
    chunks: list[_Chunk] = []
    # an undecodable byte is read as a surrogate, so that it is reported in
    # line order: after any bad line before it
    with p.open(encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        for linenos, rows in _blocks(p, fh):
            if not chunks:
                if [h.strip() for h in rows[0][:2]] != ["id", "counts"]:
                    raise CliError(f"{p}: line 1: expected header 'id,counts'")
                linenos, rows = linenos[1:], rows[1:]
            chunks.append(_parse_chunk(p, linenos, rows))
    if not chunks:
        raise CliError(f"{p}: empty file")
    return chunks


# Characters (bytes, for ASCII text) of whole lines that the CSV reader
# parses at once.  The digit kernel's largest temporaries then hold 8 bytes
# a token, about 64 KiB at most, under glibc's 128 KiB mmap threshold however
# short the tokens, so the heap reuses them from block to block.  A fresh
# `admissible` on the seed-1 bench corpus of 10,000 records (3.8 MB) took
# 4,800 to 5,300 minor page faults, against 16,100 to 16,700 with chunks of
# 1,000 records (380 KB), whose temporaries were mapped afresh, or trimmed
# off the heap, for every chunk.  8 KiB blocks pay the kernel's fixed cost
# (about 20 us a call) twice as often; blocks up to 64 KiB faulted as
# little on that corpus only as glibc raised its threshold.
_BLOCK_SIZE = 16 * 1024

# what "surrogateescape" reads an undecodable byte as
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _blocks(p: Path, fh: io.TextIOBase) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """The rows of ``fh``, read with ``newline=""``, as non-empty blocks of
    about ``_BLOCK_SIZE`` characters, each with the line each row starts on.

    Whole plain lines are split by :func:`_fields`; from the first other
    line on, the rows are those of ``csv.reader``.  A plain line has no
    quote, NUL (which csv rejects before Python 3.11) or undecodable byte
    and is no longer than csv's field limit.  A row that csv rejects, or a
    line with an undecodable byte, raises a CliError that names its line,
    once the rows before it are yielded.
    """
    limit = csv.field_size_limit()
    done = 0
    while lines := fh.readlines(_BLOCK_SIZE):
        plain = len(lines)
        if not (_plain("".join(lines)) and max(map(len, lines)) <= limit):
            plain = next(
                k for k, line in enumerate(lines) if not (_plain(line) and len(line) <= limit)
            )
        if plain:
            yield range(done + 1, done + 1 + plain), list(map(_fields, lines[:plain]))
            done += plain
        if plain < len(lines):
            break
    if not lines:
        return
    # the csv module's rows, in blocks of about as many characters
    reader = csv.reader(_decodable(chain(lines[plain:], fh)))
    linenos: list[int] = []
    rows: list[list[str]] = []
    size = 0
    start = done + 1  # the line the next row starts on
    failure = None
    try:
        for row in reader:
            linenos.append(start)
            rows.append(row)
            start = done + 1 + reader.line_num
            size += sum(map(len, row)) + 1
            if size > _BLOCK_SIZE:
                yield linenos, rows
                linenos, rows, size = [], [], 0
    except csv.Error as e:  # a field beyond csv.field_size_limit(), say
        failure = f"line {start}: {e}"
    except UnicodeDecodeError as e:  # of the line after the last one csv read
        failure = f"line {done + 1 + reader.line_num}: not UTF-8 text: {e.reason}"
    if rows:
        yield linenos, rows
    if failure:
        raise CliError(f"{p}: {failure}")


def _plain(text: str) -> bool:
    """Whether ``text`` holds no quote, NUL or undecodable byte."""
    return not ('"' in text or "\0" in text) and (
        text.isascii() or not _UNDECODABLE.search(text)
    )


def _fields(line: str) -> list[str]:
    """csv's row for a plain line: the line less its line end (``\\n``,
    ``\\r\\n`` or ``\\r``), split at its commas; ``[]`` for a blank line."""
    line = line.rstrip("\r\n")
    return line.split(",") if line else []


def _decodable(lines: Iterable[str]) -> Iterator[str]:
    """``lines``, up to one with an undecodable byte, where it raises the
    UnicodeDecodeError of the line's bytes."""
    for line in lines:
        if not line.isascii() and _UNDECODABLE.search(line):
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        yield line


def _parse_chunk(p: Path, linenos: Sequence[int], rows: list[list[str]]) -> _Chunk:
    """Parse the counts of a block of rows, on lines ``linenos``, in one pass over their text.

    When every row has a count field, counts of 1 to 15 ASCII digits go
    through :func:`_parse_digits`, which also counts each row's tokens.
    Any other block (a blank or short row; a token with a sign, point,
    exponent, space or other digits; an empty, non-numeric, non-finite or
    negative one) goes through the line-by-line reader, which skips what
    it may skip and names the first bad line.
    """
    fields = [row[1] for row in rows if len(row) > 1]
    parsed = len(fields) == len(rows) and _parse_digits("\n".join(fields) + "\n", len(rows))
    if not parsed:
        return _parse_rows(p, zip(linenos, rows))
    return [row[0].strip() for row in rows], *parsed


# Tokens of at most this many digits are below 10**15 < 2**53, so every
# partial sum of their digit columns is an integer that float64 holds exactly.
_MAX_DIGITS = 15


def _parse_digits(text: str, lines: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The values of ``lines`` lines, each ended by a line break, of
    ``;``-separated tokens of 1 to 15 ASCII digits each, and the number of
    tokens on each line.

    Each value is bitwise ``float(token)``, leading zeros included.  Returns
    None for any other text, an empty token, a longer one or a number of
    lines other than ``lines`` included.
    """
    if not (text.isascii() and text.endswith("\n")):
        return None
    codes = np.frombuffer(text.encode(), dtype=np.uint8)
    digits = codes - ord("0")  # wraps around below "0"
    separators = np.flatnonzero(digits > 9)  # the byte after each token
    marks = codes[separators]
    ends = np.flatnonzero(marks == ord("\n"))  # each line's last token
    # every separator a line break or ";", and as many line breaks as lines
    if len(ends) != lines or np.count_nonzero(marks == ord(";")) != len(separators) - lines:
        return None
    lengths = ends + 1
    lengths[1:] = ends[1:] - ends[:-1]
    pos = separators - 1  # the last byte of each token
    column = digits[pos]
    if not (column <= 9).all():  # an empty token
        return None
    values = column.astype(float)
    # live: the tokens with a digit in column k, counted from 0 at the right;
    # pos: the place of that digit (the text's last byte, a line break, ends
    # the first token on the left)
    live = np.flatnonzero(digits[pos - 1] <= 9)
    pos = pos[live] - 1
    for k in range(1, _MAX_DIGITS):
        if not len(live):
            return values, lengths
        values[live] += digits[pos] * 10.0**k
        pos -= 1
        more = digits[pos] <= 9
        live, pos = live[more], pos[more]
    return None if len(live) else (values, lengths)


def _parse_rows(p: Path, rows: Iterable[tuple[int, list[str]]]) -> _Chunk:
    """The line-by-line reader, whose messages name the first bad line; it skips blank rows."""
    ids, values, lengths = [], [], []
    for lineno, row in rows:
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
        problem = _counts_problem(np.array(vals))
        if problem:
            raise CliError(f"{p}: line {lineno}: {problem}")
        ids.append(row[0].strip())
        values.extend(vals)
        lengths.append(len(vals))
    return ids, np.array(values, dtype=float), lengths


# from_citation_counts starts the support of every record at 0
_RECORD_ORIGIN = 0.0


# --------------------------------------------------------------------------
# table emission
# --------------------------------------------------------------------------


# Groups of table rows, by column: (fixed, varying, counts).  Group g has
# counts[g] rows, each opened by the group's cells fixed[0][g], fixed[1][g],
# ... (at least one); varying[j] holds the cells of the j-th remaining column
# of every row, group after group.
_Columns = list[Sequence[str]]
_Groups = tuple[_Columns, _Columns, Sequence[int]]


def _emit(columns: list[str], groups: _Groups, fmt: str, out: io.TextIOBase) -> None:
    """Write the table of ``groups`` under ``columns`` as CSV or JSON records.

    The text is the bytes of ``csv.writer(out, lineterminator="\\n")``, or of
    ``json.dump(records, out, indent=2)`` and a newline, for a table of more
    than one column.  Each group's fixed cells are rendered once, and every
    line is that prefix and the line's own cells.  The text is written with
    one call, so nothing reaches ``out`` before every cell is computed.
    """
    out.write(_json_text(columns, *groups) if fmt == "json" else _csv_text(columns, *groups))


def _repeated(prefixes: Iterable[str], counts: Sequence[int]) -> Iterator[str]:
    """Each group's prefix, once for each of its rows."""
    return chain.from_iterable(map(repeat, prefixes, counts))


# the characters that csv.writer may quote a cell for, on one Python version
# or another: 3.11 quotes ",", '"' and "\n", but leaves "\r" (with "\n" as
# line terminator) and NUL bare
_CSV_QUOTABLE = ',"\r\n\0'


def _csv_cell(cell: str) -> str:
    """``cell`` as csv.writer writes it in a row of more than one cell."""
    if not any(c in cell for c in _CSV_QUOTABLE):
        return cell
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerow([cell, ""])
    return text.getvalue()[:-2]  # less the empty cell's "," and the "\n"


def _csv_column(column: Sequence[str]) -> Sequence[str]:
    """``column`` as it is, unless a cell holds a character that csv may
    quote, as no number or status does; then each cell as :func:`_csv_cell`
    gives it."""
    joined = "".join(column)
    if any(c in joined for c in _CSV_QUOTABLE):
        return list(map(_csv_cell, column))
    return column


def _csv_text(
    columns: list[str], fixed: _Columns, varying: _Columns, counts: Sequence[int]
) -> str:
    """The table's lines, each column's cells as :func:`_csv_column` gives
    them, joined by "," and each ended by "\\n"."""
    heads = _repeated(map(",".join, zip(*map(_csv_column, fixed))), counts)
    lines = map(",".join, zip(heads, map(",".join, zip(*map(_csv_column, varying)))))
    return "\n".join(chain([",".join(_csv_column(columns))], lines)) + "\n"


def _json_text(
    columns: list[str], fixed: _Columns, varying: _Columns, counts: Sequence[int]
) -> str:
    """The records as ``json.dump(records, indent=2)`` writes them, and a newline."""
    if not sum(counts):
        return "[]\n"
    # '    "key": value' for every cell, joined by ",\n" as the cells of a
    # group's head, then as the rest of each row
    cells = [
        map(f"    {_json_str(name)}: ".__add__, map(_json_str, column))
        for name, column in zip(columns, [*fixed, *varying])
    ]
    heads = _repeated(map(",\n".join, zip(*cells[: len(fixed)])), counts)
    records = map(",\n".join, zip(heads, map(",\n".join, zip(*cells[len(fixed) :]))))
    return "[\n  {\n" + "\n  },\n  {\n".join(records) + "\n  }\n]\n"


# A cell's status by its code from solver._bundle_cells, a position in SolveStatus
_STATUS_NAMES = [status.value for status in _STATUSES]


def _bundle_chunks(
    corpus: Corpus, indices: Sequence[IndexDef], thetas: list[float]
) -> Iterator[tuple[list[str], np.ndarray, np.ndarray]]:
    """Per ``CSV_CHUNK`` records: their ids, and the m (NaN where the solve
    failed) and status code (``solver._bundle_cells``') that
    :func:`sample_bundle` gives at each of ``thetas``, as arrays of shape
    (record, index, theta).  ``_bundle_cells`` fills a closed-form index (h,
    g, identity x power(2)) whole, and ``sample_bundle`` what it declines
    and every other index, in (record, index) order, building a record's
    function once.  An index is resolved once, where the first record
    reaches it, at the support start all records share.  So a failure names
    the first failing (record, index), or index.
    """
    bounds = corpus.offsets.tolist()
    resolved: list[tuple[OperatorKind, ThresholdFamily] | None] = [None] * len(indices)
    for start in range(0, len(corpus), CSV_CHUNK):
        stop = min(start + CSV_CHUNK, len(corpus))
        m = np.full((stop - start, len(indices), len(thetas)), math.nan)
        code = np.full(m.shape, _DECLINED, dtype=np.int8)
        columns, built = None, (None, None)  # built: a record and its function
        for r, i in chain(zip(repeat(0), range(len(indices))), _declined_pairs(code)):
            if resolved[i] is None:
                resolved[i] = indices[i].resolve_at(_RECORD_ORIGIN)
            kind, fam = resolved[i]
            try:
                if r == 0 and _closed_form_pair(kind, fam):
                    if columns is None:
                        columns = _CitationColumns(corpus.counts, corpus.offsets[start : stop + 1])
                    m[:, i], code[:, i] = _bundle_cells(columns, kind, fam, thetas)
                todo = np.flatnonzero(code[r, i] == _DECLINED)
                if len(todo):
                    if built[0] != r:
                        record = corpus.counts[bounds[start + r] : bounds[start + r + 1]]
                        built = r, from_citation_counts(record)
                    entries = sample_bundle(built[1], kind, fam, [thetas[k] for k in todo])
                    m[r, i, todo] = [entry.m for entry in entries]
                    code[r, i, todo] = [_STATUSES.index(entry.status) for entry in entries]
            except BundleError as e:
                raise CliError(f"source {corpus.ids[start + r]!r}, index {indices[i].name!r}: {e}")
        yield corpus.ids[start:stop], m, code


def _declined_pairs(code: np.ndarray) -> Iterator[tuple[int, int]]:
    """The later records' (record, index) pairs with a declined cell, read when first iterated."""
    for r, i in np.argwhere((code[1:] == _DECLINED).any(axis=2)).tolist():
        yield r + 1, i


def _m_cells(m: np.ndarray, code: np.ndarray, failed: Sequence[str]) -> list[str]:
    """Every cell's printed m, flattened, or ``failed[code]`` where the solve failed (m is NaN)."""
    cells = list(map(_CELL.__mod__, m.ravel().tolist()))
    for k in np.flatnonzero(~np.isfinite(m.ravel())).tolist():
        cells[k] = failed[code.flat[k]]
    return cells


def _grid_groups(
    ids: list[str], heads: list[tuple[str, ...]], thetas: list[float], *cells: list[str]
) -> _Groups:
    """One group per (record, index), of one row per theta: the record's id and the
    index's ``heads`` cells per group, then the theta and ``cells`` per row."""
    groups = len(ids) * len(heads)
    fixed = [list(_repeated(ids, [len(heads)] * len(ids)))]
    fixed += [list(column) * len(ids) for column in zip(*heads)]
    return fixed, [list(map(_fmt, thetas)) * groups, *cells], [len(thetas)] * groups


def cmd_index(args, cfg: RunConfig) -> int:
    thetas = cfg.theta_grid.values()
    ids: list[str] = []
    values: list[str] = []  # m, or the status where the solve failed
    for chunk_ids, m, code in _bundle_chunks(read_sources(args.input), cfg.indices, thetas):
        ids += chunk_ids
        values += _m_cells(m, code, _STATUS_NAMES)
    groups = _grid_groups(ids, [(idx.name,) for idx in cfg.indices], thetas, values)
    _emit(["id", "index", "theta", "value"], groups, args.format, sys.stdout)
    return 0


def cmd_bundle(args, cfg: RunConfig) -> int:
    thetas = cfg.theta_grid.values()
    ids: list[str] = []
    ms: list[str] = []
    statuses: list[str] = []
    for chunk_ids, m, code in _bundle_chunks(read_sources(args.input), cfg.indices, thetas):
        ids += chunk_ids
        ms += _m_cells(m, code, [""] * len(_STATUSES))
        statuses += map(_STATUS_NAMES.__getitem__, code.ravel().tolist())
    # each index's cells, once; a power's shift as resolved for the cells (if a record was)
    heads = [
        (idx.name, idx.operator, _fmt(idx.p), _fmt(idx.resolve_at(_RECORD_ORIGIN)[1].shift))
        if idx.family == "power"
        else (idx.name, idx.operator, "", "")
        for idx in (cfg.indices if ids else ())
    ]
    _emit(
        ["id", "index", "operator", "p", "shift", "theta", "m", "status"],
        _grid_groups(ids, heads, thetas, ms, statuses),
        args.format,
        sys.stdout,
    )
    return 0


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
) -> tuple[np.ndarray, np.ndarray, dict[int, AdmissibleRange | BundleError]]:
    """theta_min and theta_max of every record for an index whose ranges are
    certified, and :func:`_range_or_error` of each record that has none.

    A theta_min of 0.0 means the range is open at zero; the bounds of a
    record with no range are NaN: the zero record, and a record whose
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
    errors = {}
    for i in np.flatnonzero(np.isnan(theta_min)).tolist():
        record = corpus.counts[corpus.offsets[i] : corpus.offsets[i + 1]]
        errors[i] = _range_or_error(from_citation_counts(record), kind, fam)
    return theta_min, theta_max, errors


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
    lows = ["0"] * len(corpus)  # open at zero, or NaN
    positive = np.flatnonzero(theta_min > 0.0).tolist()
    for i, cell in zip(positive, map(_CELL.__mod__, theta_min[positive].tolist())):
        lows[i] = cell
    highs = list(map(_CELL.__mod__, theta_max.tolist()))
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
                functions = [from_citation_counts(counts) for _, counts in corpus]
            cells = [_range_cells(_range_or_error(f, kind, fam)) for f in functions]
            columns.append(tuple(map(list, zip(*cells))))
    # one group per record, of one row per index, in input order: the cells
    # of theta_min, theta_max and certified, record by record
    names = [idx.name for idx in cfg.indices]
    cells = [list(chain.from_iterable(zip(*by_index))) for by_index in zip(*columns)]
    _emit(
        ["id", "index", "theta_min", "theta_max", "certified"],
        ([corpus.ids], [names * len(corpus), *cells], [len(names)] * len(corpus)),
        args.format,
        sys.stdout,
    )
    return 0


def _report_problem(path: Path) -> int:
    """The errno that writing a report at ``path`` fails with where it is a
    folder or its folder is missing or unwritable, else 0; creates nothing."""
    if path.is_dir():
        return errno.EISDIR
    if not path.parent.is_dir():
        return errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    return 0 if os.access(path if path.exists() else path.parent, os.W_OK) else errno.EACCES


def cmd_verify(args, cfg: RunConfig) -> int:
    trials = args.trials if args.trials is not None else cfg.trials
    if trials < 0:
        raise CliError(f"trials must be non-negative, got {trials}")
    if trials > MAX_TRIALS:
        raise CliError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    if cfg.seed < 0:
        raise CliError(f"seed must be non-negative, got {cfg.seed}")
    if trials == 0:
        print("warning: zero trials requested; every property is vacuous", file=sys.stderr)
    suite_cfg = SuiteConfig(
        master_seed=cfg.seed,
        trials=trials,
        include_reversal_in_impact=args.inject_reversal,
    )
    problem = _report_problem(Path(args.report)) if args.report else 0
    if problem:  # before the suite runs
        raise CliError(f"cannot write report {args.report}: {os.strerror(problem)}")
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
        try:
            Path(args.report).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        except OSError as e:  # a missing directory, or a directory
            raise CliError(f"cannot write report {args.report}: {e.strerror or e}")
    return 1 if result.any_fail else 0


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # parents for the options every command shares and for the input: each argument is built once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int, default=None, help="master seed")
    shared.add_argument("--theta-grid", default=None, help="min:max:count[:log]")
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input", help="CSV (id,counts with ';'-separated counts) or JSON file")
    reading = [source, shared]
    parser = argparse.ArgumentParser(
        prog="hirschbundles",
        description="Generalized Hirsch-type impact bundles over citation records",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("index", parents=reading, help="one value per (source, index, theta)")
    sub.add_parser("bundle", parents=reading, help="sampled bundle table over the theta grid")
    sub.add_parser(
        "admissible", parents=reading, help="admissible theta range per source and index"
    )
    p_verify = sub.add_parser("verify", parents=[shared], help="run the randomized property suite")
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
