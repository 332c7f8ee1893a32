"""One benchmark repetition, run in a fresh interpreter.

Times ``import hirschbundles.cli`` (the set-up every CLI call pays), then
``cli.main(argv)``, and writes the measurements as JSON to ``--result``.
The command's stdout and stderr are whatever the parent attached to this
process, so the program's output reaches its file untouched.

Untraced, the host's speed is sampled while the command runs (see
``speed.py``), and the time the samples took is not counted as the
command's.  With ``--trace`` the public functions of each package module
are wrapped after the import (see ``tracing.py``), the per-layer metrics
are written into the result, and the spans into ``--spans``.  With ``--probe`` the
unwrapped solver is timed on a small fixed record after the command.
"""

import sys
import time

_t0 = time.perf_counter()

# Everything the import measurement must not pre-load is imported after it.
ROOT, ARGS = sys.argv[1], sys.argv[2:]
BENCH_DIR = sys.path[0]
sys.path[0] = ROOT + "/src"
import hirschbundles.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

# The 7-count record of the package's worked example, and the number of
# rounds in which each index's single solve is timed once.  Rounds visit
# the indices in turn, so a burst of load on the host spreads over all of
# them instead of covering every sample of one.
PROBE_COUNTS = [10, 8, 5, 4, 3, 2, 1]
PROBE_THETA = 1.0
PROBE_ROUNDS = 101


def probe_solves(index_defs: list[dict]) -> dict[str, float]:
    """Median microseconds of one ``solve_bundle_point`` per index."""
    from hirschbundles.errors import BundleError
    from hirschbundles.funcspace import from_citation_counts
    from hirschbundles.solver import solve_bundle_point

    f = from_citation_counts(PROBE_COUNTS)
    cases = [(spec["name"], *cli.IndexDef(**spec).resolve(f)) for spec in index_defs]
    times: dict[str, list[float]] = {name: [] for name, _, _ in cases}
    for _ in range(PROBE_ROUNDS):
        for name, op, fam in cases:
            t0 = time.perf_counter()
            try:
                solve_bundle_point(f, op, fam, PROBE_THETA)
            except BundleError:  # NoRoot / NonUnique are answers too
                pass
            times[name].append(time.perf_counter() - t0)
    return {name: sorted(t)[len(t) // 2] * 1e6 for name, t in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--probe", default="", help="JSON list of index definitions")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args(ARGS)
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"hirschbundles imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    sys.path.append(BENCH_DIR)
    tracer = None
    if opts.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = None
    if tracer is None:
        from speed import SpeedSampler

        sampler = SpeedSampler()
    error = None
    t0 = time.perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            code = cli.main(argv)
    except Exception as e:  # a crash is a result: every item of the run fails
        code, error = None, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    if sampler is not None:
        wall -= sum(sampler.samples)  # the samples are not the command's work
        sampler.sample()  # so that a command shorter than one period has one
    sys.stdout.flush()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "exit_code": code,
        "error": error,
        "setup_s": SETUP_S,
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
    }
    if sampler is not None:
        result["reference_s"] = sampler.mean()
        result["reference_samples"] = len(sampler.samples)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if opts.spans:
            tracer.write_spans(opts.spans)
    if opts.probe:
        result["probe_us"] = probe_solves(json.loads(opts.probe))
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
