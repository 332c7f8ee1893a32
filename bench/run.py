"""The hirschbundles benchmark: CLI workloads, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload bundle-classic --seed 1 --seconds 42 --trace 0

One run generates the workload's inputs from ``--seed`` and then, in a
closed loop with one client, launches fresh single-threaded interpreters
(``bench/child.py``) that each import ``hirschbundles.cli`` and call
``cli.main(argv)`` once, until ``--seconds`` are used up (at least three
times).  Every output is checked by ``bench/check.py``, which does not
import the package.

``--trace 0`` prints the end-to-end metrics: medians over the run's
repetitions of the command's wall time, its set-up (import) time and the
process's peak RSS, the items per second, and the share of items the
checker accepted.  The two times are given at a fixed host speed: each
repetition's times are scaled by the speed of a reference task sampled
while its command ran (``speed.py``), because a shared host's speed
drifts by more than the bounds; the measured times stay in the metadata.
``--trace 1`` runs the command once more with the layers wrapped from
outside (``bench/tracing.py``), times one solve per index on a fixed
7-count record, and prints the per-layer metrics; its untraced
repetitions only serve ``trace.overhead_frac``.

The last stdout line is the result object; the line before it holds the
run's metadata (versions, CPU count, git SHA, seeds, stdout sha256,
per-repetition samples and, when traced, solve percentiles and the
self-time ranking).  Both are also written to
``.bench_work/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import inputs
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# PYTHONHASHSEED is pinned for every child: verify draws its per-property
# sub-seeds from hash(label), so an unpinned verify-suite would run
# different functions in every process.
HASH_SEED = "0"
THETA_GRID = "0.5:2:7"
MIN_REPS = 3
TRACE_MIN_REPS = 2
# A run must end within 180 s; a child still running at this point is killed.
HARD_LIMIT_S = 170.0

# Workloads and why each exists:
# * bundle-classic: the CLI default (h and g) over a theta grid; both
#   indices have a decreasing D, so the solver's fast paths show here.
# * admissible-10k: ingest, function building and admissible ranges on a
#   large corpus, with no solves at all.
# * verify-suite: the property suite, the only workload that runs verify's
#   loops; it also takes the solver's bisection path.
WORKLOADS = {
    "bundle-classic": {"command": "bundle", "records": 200},
    "admissible-10k": {"command": "admissible", "records": 10000},
    "verify-suite": {"command": "verify", "trials": check.VERIFY_TRIALS},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".us"):
        return "us"
    if name.endswith((".s", ".self_s")):
        return "s"
    return "count"


# The probe times one solve per index: the CLI defaults, an identity power
# variant outside the exact-algebra cases, an averaged power variant, and
# an integral variant whose D is not monotone.
PROBE_INDICES = check.DEFAULT_INDICES + [
    {"name": "k05", "operator": "identity", "family": "power", "p": 0.5, "shift": 0.0},
    {"name": "gk2", "operator": "averaging", "family": "power", "p": 2.0, "shift": "origin"},
    {"name": "i2", "operator": "integral", "family": "power", "p": 2.0, "shift": "origin"},
]


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        spec = WORKLOADS[name]
        self.command = spec["command"]
        self.corpus = None
        if self.command == "verify":
            self.trials = spec["trials"]
            self.argv = ["verify", "--trials", str(self.trials), "--seed", str(seed),
                         "--report", str(work / "verification_report.json")]
            return
        self.records = spec["records"]
        corpus_path = work / "corpus.csv"
        inputs.write_corpus(corpus_path, seed, self.records)
        self.corpus = check.load_corpus(corpus_path)
        self.argv = [self.command, str(corpus_path)]
        if self.command == "bundle":
            self.argv += ["--theta-grid", THETA_GRID]

    def check(self, text: str, exit_code) -> check.Verdict:
        if self.command == "verify":
            return check.check_verify(text, exit_code)
        if self.command == "bundle":
            return check.check_bundle(self.corpus, check.theta_grid(THETA_GRID), text, exit_code)
        return check.check_admissible(self.corpus, text, exit_code)

    def describe(self) -> dict:
        if self.command == "verify":
            return {"argv": ["verify", "--trials", str(self.trials), "--seed", str(self.seed)]}
        return {"records": self.records, "indices": [s["name"] for s in check.DEFAULT_INDICES],
                "theta_grid": THETA_GRID if self.command == "bundle" else None}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": HASH_SEED,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    def __init__(self, workload: Workload, start: float, seconds: float):
        self.w = workload
        self.deadline = start + seconds
        self.hard_deadline = start + HARD_LIMIT_S
        self.reps = 0
        self.verdicts: dict[str, check.Verdict] = {}  # stdout sha256 -> verdict
        self.attempted = self.failed = 0

    def rep(self, trace: bool = False, probe: bool = False) -> dict:
        """Run the command once in a fresh interpreter and check its output."""
        self.reps += 1
        tag = f"rep{self.reps}"
        out_path, err_path = self.w.work / f"{tag}.out", self.w.work / f"{tag}.err"
        result_path = self.w.work / f"{tag}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), "--result", str(result_path)]
        if trace:
            cmd += ["--trace", "--spans", str(self.w.work / "spans.tsv")]
        if probe:
            cmd += ["--probe", json.dumps(PROBE_INDICES)]
        cmd += ["--", *self.w.argv]
        timeout = max(self.hard_deadline - time.time(), 1.0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=err, env=child_env(),
                                      cwd=ROOT, timeout=timeout)
                child_code = proc.returncode
            except subprocess.TimeoutExpired:
                child_code = "timeout"
        text = out_path.read_text()
        if child_code == 0 and result_path.exists():
            res = json.loads(result_path.read_text())
        else:
            res = {"exit_code": None, "error": f"child exited {child_code}: "
                   + err_path.read_text()[-400:]}
        res["sha256"] = check.sha256(text)
        key = f"{res['sha256']}:{res['exit_code']}"
        if key not in self.verdicts:  # identical bytes get an identical verdict
            self.verdicts[key] = self.w.check(text, res["exit_code"])
        verdict = self.verdicts[key]
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        res["items"] = verdict.attempted
        res["failed"] = verdict.failed
        res["problems"] = verdict.problems[:5]
        res["text"] = text
        return res

    def fill(self, samples: list[dict], minimum: int) -> None:
        """Untraced repetitions until the time is used up."""
        while True:
            walls = [s["rep_s"] for s in samples]
            typical = statistics.median(walls) if walls else 0.0
            if len(samples) >= minimum and time.time() + typical > self.deadline:
                return
            t0 = time.time()
            res = self.rep()
            res["rep_s"] = time.time() - t0
            samples.append(res)
            if "wall_s" not in res:
                return


SAMPLE_KEYS = ("wall_s", "setup_s", "peak_rss_mb", "reference_s", "reference_samples",
               "exit_code", "failed", "problems", "error")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def median_at_reference_speed(samples: list[dict], key: str) -> float:
    """Median over the repetitions of a time given at the reference speed."""
    return statistics.median(speed.at_reference_speed(s[key], s["reference_s"])
                             for s in samples)


def end_to_end(samples: list[dict], runner: Runner) -> dict[str, float]:
    wall = median_at_reference_speed(samples, "wall_s")
    return {
        "wall_s": wall,
        "items_per_s": samples[0]["items"] / wall,
        "setup_s": median_at_reference_speed(samples, "setup_s"),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "success_rate": 1.0 - runner.failed / runner.attempted,
    }


def per_layer(workload: Workload, traced: dict, samples: list[dict]) -> tuple[dict, dict]:
    layers = traced["layers"]
    m = dict(layers["metrics"])
    text = traced["text"]
    lines = text.splitlines()
    if workload.command == "verify":
        m["cli.rows"] = sum(1 for ln in lines if check.REPORT_LINE.match(ln))
    else:
        m["cli.rows"] = max(len(lines) - 1, 0)  # the table's header is not a row
    summary = check.verify_summary(text)
    m["verify.pass"], m["verify.vacuous"] = summary["pass"], summary["vacuous"]
    for name, us in traced.get("probe_us", {}).items():
        m[f"solver.probe.{name}.us"] = us
    untraced = statistics.median(s["wall_s"] for s in samples)
    m["trace.overhead_frac"] = traced["wall_s"] / untraced - 1.0
    extra = {
        "percentiles": layers["percentiles"],
        "self_s_by_name": layers["self_s_by_name"],
        "status_other": layers["status_other"],
    }
    return m, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hirschbundles benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.time()

    if not (ROOT / "src" / "hirschbundles" / "cli.py").is_file():
        print(f"error: no hirschbundles sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # compile once, as an installed package would be, so that no
    # repetition's set-up time includes writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "hirschbundles")],
                   check=True, stdout=subprocess.DEVNULL)
    workload = Workload(args.workload, args.seed, work)

    runner = Runner(workload, start=start, seconds=args.seconds)
    samples: list[dict] = []
    traced = None
    if args.trace:
        traced = runner.rep(trace=True, probe=True)
        runner.fill(samples, TRACE_MIN_REPS)
    else:
        runner.fill(samples, MIN_REPS)

    ok = all("wall_s" in s for s in samples) and (traced is None or "layers" in traced)
    if ok:
        if traced is None:
            metrics = end_to_end(samples, runner)
            units, extra = END_TO_END_UNITS, {}
        else:
            metrics, extra = per_layer(workload, traced, samples)
            units = {k: layer_unit(k) for k in metrics}
    else:
        units, extra, metrics = {}, {}, {}
    correct = ok and runner.failed == 0 and all(
        s["exit_code"] == 0 for s in samples + ([traced] if traced else [])
    )
    runs = samples + ([traced] if traced else [])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "pythonhashseed": HASH_SEED,
        "inputs": workload.describe(),
        "reps": len(samples),
        "stdout_sha256": sorted({s["sha256"] for s in runs}),
        "samples": [{k: s.get(k) for k in SAMPLE_KEYS} for s in samples],
        "traced_sample": {k: traced.get(k) for k in SAMPLE_KEYS} if traced else None,
        **extra,
    }
    result = {
        "correct": bool(correct),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
