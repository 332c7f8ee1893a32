"""Summarize benchmark runs across seeds: medians and quartile spreads.

Reads the ``result.json`` files that ``run.py`` leaves under
``.bench_work/`` and, per workload and metric, prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, next to the metric's bound from
``BENCHMARK.json``.  Untraced runs give the end-to-end metrics, traced
runs the per-layer ones.  ``--out`` also writes the summary as JSON,
which is how ``bench/baseline.json`` was made.

Usage::

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 bench/run.py --workload verify-suite --seed $s --seconds 42 --trace 0
    done
    python3 bench/run.py --workload verify-suite --seed 1 --seconds 42 --trace 1
    python3 bench/summarize.py [--out summary.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
META_KEYS = ("git_sha", "python", "numpy", "nproc", "pythonhashseed", "inputs")


def collect() -> dict[str, dict[int, list[dict]]]:
    """Runs by workload and trace flag."""
    runs: dict[str, dict[int, list[dict]]] = {}
    for path in sorted((ROOT / ".bench_work").glob("*/result.json")):
        run = json.loads(path.read_text())
        meta = run["meta"]
        runs.setdefault(meta["workload"], {0: [], 1: []})[meta["trace"]].append(run)
    return runs


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    names = list(dict.fromkeys(k for r in runs for k in r["result"]["metrics"]))
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"]["metrics"]]
        median = statistics.median(values)
        entry = {"n": len(values), "median": median,
                 "unit": runs[0]["result"]["metrics"][name]["unit"]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload, by_trace in sorted(collect().items()):
        all_runs = by_trace[0] + by_trace[1]
        entry = {
            "seeds": sorted(r["meta"]["seed"] for r in by_trace[0]),
            "traced_seeds": sorted(r["meta"]["seed"] for r in by_trace[1]),
            "all_correct": all(r["result"]["correct"] for r in all_runs),
            **{k: all_runs[0]["meta"][k] for k in META_KEYS},
            "stdout_sha256_by_seed": {
                r["meta"]["seed"]: r["meta"]["stdout_sha256"] for r in by_trace[0]
            },
        }
        print(f"{workload}  seeds={entry['seeds']}  traced={entry['traced_seeds']}  "
              f"all_correct={entry['all_correct']}")
        for key, runs in (("end_to_end", by_trace[0]), ("per_layer", by_trace[1])):
            if not runs:
                continue
            entry[key] = summarize(runs, bounds)
            for name, e in entry[key].items():
                spread = f"{e['spread']:.4f}" if "spread" in e else "-"
                bound = f"  bound={e['bound']}" if "bound" in e else ""
                print(f"  {name:40s} median={e['median']:<12.6g} {e['unit']:8s} "
                      f"spread={spread}{bound}")
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
