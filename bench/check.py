"""Independent checker for the CLI outputs the benchmark produces.

It does not import ``hirschbundles``: it rebuilds each record's
rank-frequency function from the counts (breakpoints (0, c1), (1, c1),
..., (N, cN), (N+1, 0)) and evaluates T(f) itself with numpy.

The benchmark runs the CLI's default indices h (identity, power p=1) and
g (averaging, power p=1, shift at the origin).  For both, T(f) is
non-increasing and theta (x - shift)^p strictly increasing, so
D = T(f) - A(., theta) is strictly decreasing: it has at most one root,
and ``admissible`` can always give its range from the endpoint formulas.

* ``bundle``: every expected (id, index, theta) row is present, in order.
  A solved row has a = 0 <= m <= S and |D(m)| <= tol(m), where

      tol(m) = 1e-9 * (1 + |T(f)(m)| + |A(m, theta)|) + delta * L(m),
      delta  = 1e-9 * max(1, m),

  with L(m) a bound on |D'| near m: the output carries 12 significant
  digits and the solver stops within 1e-10, so a correct m lies well
  inside delta of a root.  A ``NoRoot`` row must show D with one strict
  sign at every breakpoint of f.  A ``NonUnique`` row is always wrong,
  because D is strictly decreasing.
* ``admissible``: every row is certified and matches the endpoint formulas
  theta_min = T(f)(S) / (S - shift)^p (``0`` when that is 0) and
  theta_max = T(f)(a) / (a - shift)^p, or ``inf`` when a <= shift.
* ``verify --trials 10``: exit code 0, a summary line, and exactly the
  suite's property list (``VERIFY_REPORTS``), each property reported once,
  with its fixed trial count, and as PASS.  A FAIL or VACUOUS report, a
  missing property or a wrong trial count fails that property's items.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The CLI's default indices: h = f(x) = theta x, g = mu(f)(x) = theta (x - a).
DEFAULT_INDICES = [
    {"name": "h", "operator": "identity", "family": "power", "p": 1.0, "shift": 0.0},
    {"name": "g", "operator": "averaging", "family": "power", "p": 1.0, "shift": "origin"},
]

BUNDLE_HEADER = ["id", "index", "operator", "p", "shift", "theta", "m", "status"]
ADMISSIBLE_HEADER = ["id", "index", "theta_min", "theta_max", "certified"]
SOLVED = ("ExactSegment", "Bisection")
REL_TOL = 1e-9
ENDPOINT_REL_TOL = 1e-10
REPORT_LINE = re.compile(r"^(PASS|FAIL|VACUOUS)\s+(\S+) \(trials=(\d+),")

# The property suite as ``verify --trials 10`` runs it: each property's
# report name and its trial count, which depends on the requested count
# but not on the seed.  An item of the workload is one (property x
# requested trial), so each property stands for VERIFY_TRIALS items.
VERIFY_TRIALS = 10
VERIFY_REPORTS = {
    "operator-contract/identity": 49,
    "operator-contract/averaging": 49,
    "operator-contract/integral": 49,
    **{f"{prop}/{variant}": n
       for variant in ("identity-power1", "identity-power0.5", "identity-power2",
                       "averaging-power1", "averaging-power2")
       for prop, n in (("root-side", 90), ("dominance-order", 10),
                       ("theta-monotonicity", 10))},
    "root-side/reversal": 9,
    "dominance-order/reversal": 1,
    "theta-monotonicity/reversal": 1,
    "threshold-gap-bound": 250,
    "transform-gap-bound": 250,
    "convergence-pointwise/h": 4,
    "convergence-uniform/h": 9,
    "convergence-pointwise/g": 4,
    "convergence-uniform/g": 9,
    **{f"impact-axioms/{variant}": 40
       for variant in ("identity-power1", "identity-power0.5", "identity-power2",
                       "averaging-power1", "averaging-power2")},
    "monotone-difference-forward": 20,
}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def reject(self, message: str, items: int = 1) -> None:
        self.failed += items
        if len(self.problems) < 20:
            self.problems.append(message)


def fmt(x: float) -> str:
    return "inf" if math.isinf(x) else format(x, ".12g")


def theta_grid(text: str) -> list[float]:
    lo, hi, count = text.split(":")[:3]
    lo, hi, n = float(lo), float(hi), int(count)
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


def load_corpus(path: str | Path) -> list[tuple[str, list[float]]]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row:
                out.append((row[0], [float(t) for t in row[1].split(";") if t]))
    return out


class Record:
    """The piecewise-linear function of one citation record."""

    def __init__(self, counts: list[float]):
        c = sorted(counts, reverse=True)
        n = len(c)
        self.xs = np.arange(n + 2, dtype=float)
        self.ys = np.array([c[0]] + c + [0.0])
        self.slopes = np.diff(self.ys)  # unit spacing
        seg = (self.ys[:-1] + self.ys[1:]) / 2.0
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.a, self.s = 0.0, float(n + 1)

    def _seg(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)

    def f(self, x: np.ndarray) -> np.ndarray:
        i = self._seg(x)
        return self.ys[i] + self.slopes[i] * (x - self.xs[i])

    def integral(self, x: np.ndarray) -> np.ndarray:
        i = self._seg(x)
        dx = x - self.xs[i]
        return self.cum[i] + self.ys[i] * dx + self.slopes[i] * dx * dx / 2.0

    def transform(self, op: str, x: np.ndarray) -> np.ndarray:
        if op == "identity":
            return self.f(x)
        rel = x - self.a  # averaging: mu(f)(x) = integral of f over [a, x] / (x - a)
        return np.where(rel > 0, self.integral(x) / np.where(rel > 0, rel, 1.0), self.ys[0])

    def transform_slope_bound(self, op: str, x: np.ndarray) -> np.ndarray:
        """A bound on |T(f)'| at x, over the segments next to x."""
        i = self._seg(x)
        last = len(self.slopes) - 1
        steep = np.maximum.reduce(
            [np.abs(self.slopes[np.clip(i + k, 0, last)]) for k in (-1, 0, 1)]
        )
        if op == "identity":
            return steep
        rel = x - self.a
        mu = self.transform("averaging", x)
        return np.where(rel > 0, np.abs(self.f(x) - mu) / np.where(rel > 0, rel, 1.0), steep)


def _shift(spec: dict, rec: Record) -> float:
    return rec.a if spec.get("shift", 0.0) == "origin" else float(spec.get("shift", 0.0))


def threshold(spec: dict, rec: Record, x: np.ndarray, theta: float) -> np.ndarray:
    return theta * np.power(np.maximum(x - _shift(spec, rec), 0.0), float(spec.get("p", 1.0)))


def threshold_slope(spec: dict, rec: Record, x: np.ndarray, theta: float) -> np.ndarray:
    p = float(spec.get("p", 1.0))
    rel = x - _shift(spec, rec)
    with np.errstate(divide="ignore"):
        return theta * p * np.power(np.where(rel > 0, rel, 0.0), p - 1.0)


def check_bundle(corpus, thetas, text: str, exit_code: int | None) -> Verdict:
    v = Verdict(attempted=len(corpus) * len(DEFAULT_INDICES) * len(thetas))
    if exit_code != 0:
        v.reject(f"exit code {exit_code}", v.attempted)
        return v
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != BUNDLE_HEADER:
        v.reject(f"bad header {rows[:1]}", v.attempted)
        return v
    body = iter(rows[1:])
    for source_id, counts in corpus:
        rec = Record(counts)
        for spec in DEFAULT_INDICES:
            group = [next(body, None) for _ in thetas]
            expect_cols = [
                source_id, spec["name"], spec.get("operator", "identity"),
                fmt(float(spec.get("p", 1.0))), fmt(_shift(spec, rec)),
            ]
            solved_m, solved_t = [], []
            for row, theta in zip(group, thetas):
                where = f"{source_id}/{spec['name']}/theta={fmt(theta)}"
                if row is None or len(row) != 8 or row[:6] != expect_cols + [fmt(theta)]:
                    v.reject(f"{where}: missing or misplaced row {row}")
                    continue
                m_text, status = row[6], row[7]
                if status in SOLVED and m_text:
                    solved_m.append(float(m_text))
                    solved_t.append(theta)
                elif status == "NoRoot" and not m_text:
                    if not _no_sign_change(rec, spec, theta):
                        v.reject(f"{where}: NoRoot but D changes sign at a breakpoint")
                elif status == "NonUnique":
                    v.reject(f"{where}: NonUnique but D is strictly decreasing")
                else:
                    v.reject(f"{where}: malformed status/m {status!r}/{m_text!r}")
            if solved_m:
                for m, theta, ok in zip(solved_m, solved_t, _roots_ok(rec, spec, solved_m, solved_t)):
                    if not ok:
                        v.reject(f"{source_id}/{spec['name']}/theta={fmt(theta)}: m={m!r} fails |D(m)| <= tol")
    extra = sum(1 for _ in body)
    if extra:
        v.reject(f"{extra} unexpected extra rows")
    return v


def _roots_ok(rec: Record, spec: dict, ms: list[float], thetas: list[float]) -> np.ndarray:
    m = np.array(ms)
    th = np.array(thetas)
    op = spec.get("operator", "identity")
    inside = (m >= rec.a) & (m <= rec.s)
    mc = np.clip(m, rec.a, rec.s)
    t_val = rec.transform(op, mc)
    a_val = threshold(spec, rec, mc, 1.0) * th
    slope = rec.transform_slope_bound(op, mc) + threshold_slope(spec, rec, mc, 1.0) * th
    delta = REL_TOL * np.maximum(1.0, np.abs(mc))
    tol = REL_TOL * (1.0 + np.abs(t_val) + np.abs(a_val)) + delta * slope
    return inside & (np.abs(t_val - a_val) <= tol)


def _no_sign_change(rec: Record, spec: dict, theta: float) -> bool:
    xs = rec.xs
    d = rec.transform(spec.get("operator", "identity"), xs) - threshold(spec, rec, xs, theta)
    return bool((d > 0).all() or (d < 0).all())


def check_admissible(corpus, text: str, exit_code: int | None) -> Verdict:
    v = Verdict(attempted=len(corpus) * len(DEFAULT_INDICES))
    if exit_code != 0:
        v.reject(f"exit code {exit_code}", v.attempted)
        return v
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ADMISSIBLE_HEADER:
        v.reject(f"bad header {rows[:1]}", v.attempted)
        return v
    body = iter(rows[1:])
    for source_id, counts in corpus:
        rec = Record(counts)
        ends = np.array([rec.a, rec.s])
        for spec in DEFAULT_INDICES:
            row = next(body, None)
            where = f"{source_id}/{spec['name']}"
            if row is None or len(row) != 5 or row[:2] != [source_id, spec["name"]]:
                v.reject(f"{where}: missing or misplaced row {row}")
                continue
            if row[4] != "true":
                v.reject(f"{where}: certified={row[4]}, but T(f) is non-increasing")
                continue
            p, shift = float(spec.get("p", 1.0)), _shift(spec, rec)
            t_a, t_s = rec.transform(spec.get("operator", "identity"), ends)
            lo = t_s / (rec.s - shift) ** p
            hi = t_a / (rec.a - shift) ** p if rec.a > shift else math.inf
            if not (_close(row[2], lo if lo > 0 else 0.0) and _close(row[3], hi)):
                v.reject(f"{where}: got [{row[2]}, {row[3]}], expected [{fmt(lo)}, {fmt(hi)}]")
    if next(body, None) is not None:
        v.reject("unexpected extra rows")
    return v


def _close(text: str, expected: float) -> bool:
    got = float(text)
    if math.isinf(expected) or expected == 0.0:
        return got == expected
    return math.isclose(got, expected, rel_tol=ENDPOINT_REL_TOL)


def check_verify(text: str, exit_code: int | None) -> Verdict:
    v = Verdict(attempted=len(VERIFY_REPORTS) * VERIFY_TRIALS)
    if exit_code != 0:
        v.reject(f"exit code {exit_code}", v.attempted)
        return v
    if not any(line.startswith("summary:") for line in text.splitlines()):
        v.reject("no summary line", v.attempted)
        return v
    seen: dict[str, int] = {}
    for line in text.splitlines():
        m = REPORT_LINE.match(line)
        if not m:
            continue
        verdict, name, trials = m.group(1), m.group(2), int(m.group(3))
        seen[name] = seen.get(name, 0) + 1
        if name not in VERIFY_REPORTS:
            v.reject(f"unknown property {name!r}")
        elif seen[name] > 1:
            v.reject(f"{name}: reported twice", VERIFY_TRIALS)
        elif trials != VERIFY_REPORTS[name]:
            v.reject(f"{name}: trials={trials}, expected {VERIFY_REPORTS[name]}", VERIFY_TRIALS)
        elif verdict != "PASS":
            v.reject(line, VERIFY_TRIALS)
    for name in VERIFY_REPORTS.keys() - seen.keys():
        v.reject(f"{name}: not reported", VERIFY_TRIALS)
    v.failed = min(v.failed, v.attempted)
    return v


def verify_summary(text: str) -> dict[str, int]:
    m = re.search(r"^summary: (\d+) pass, (\d+) fail, (\d+) vacuous$", text, re.M)
    keys = ("pass", "fail", "vacuous")
    return dict(zip(keys, map(int, m.groups()))) if m else {k: 0 for k in keys}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
