"""Spans and counters around the package's layers, installed from outside.

``Tracer.install`` wraps every public function of the layer modules
(``funcspace``, ``operators``, ``thresholds``, ``solver``, ``verify``,
``cli``) in every package namespace that holds it, because ``from .x
import y`` copies the name: ``cli.sample_bundle``, ``verify.apply`` and
``solver.apply`` are separate bindings of one function.  A wrapped call
records a span (name, parent, start, end) in memory.

The hot leaf methods (``eval``/``eval_many`` on the function classes,
``value``/``value_many`` on the threshold families) get counters and
summed time instead of spans.  A leaf call made while another leaf call
is running is not counted again: its time is already inside the outer
one, so ``operators.eval_many`` counts the calls made by solver and verify
code, not those ``TransformedFunction.eval`` makes internally.

A span's self time is its duration minus its child spans and minus the
leaf calls made directly inside it, so ``solver.solve.self_s`` is the
solver's own work and the evaluation it asks for counts toward operators.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

import numpy as np

LAYERS = ("funcspace", "operators", "thresholds", "solver", "verify", "cli")

# (module, class, method, metric name, counts points)
LEAF_METHODS = (
    ("funcspace", "RankFrequencyFunction", "eval", "funcspace.eval", False),
    ("funcspace", "RankFrequencyFunction", "eval_many", "funcspace.eval_many", True),
    ("operators", "TransformedFunction", "eval", "operators.eval", False),
    ("operators", "TransformedFunction", "eval_many", "operators.eval_many", True),
    ("thresholds", "PowerThreshold", "value", "thresholds.value", False),
    ("thresholds", "PowerThreshold", "value_many", "thresholds.value_many", False),
    ("thresholds", "DecreasingLinearThreshold", "value", "thresholds.value", False),
    ("thresholds", "DecreasingLinearThreshold", "value_many", "thresholds.value_many", False),
)

SOLVE = "solver.solve_transformed"
COMMANDS = ("cli.cmd_index", "cli.cmd_bundle", "cli.cmd_admissible", "cli.cmd_verify")
BUILDERS = ("funcspace.from_citation_counts", "funcspace.perturb", "funcspace.random_function")
STATUSES = ("ExactSegment", "Bisection", "NoRoot", "NonUnique")
EXCEPTION_STATUS = {"NoRootError": "NoRoot", "NonUniqueError": "NonUnique"}

# verify's check functions by property group; a group span nested in
# another (impact axioms inside the forward batch) belongs to the outer one.
VERIFY_GROUPS = {
    "check_operator_contract": "contract",
    "check_root_side": "root-side",
    "check_dominance_order": "dominance",
    "check_theta_monotonicity": "theta-mono",
    "threshold_gap_bound_batch": "threshold-gap",
    "check_threshold_gap_bound": "threshold-gap",
    "transform_gap_bound_batch": "transform-gap",
    "check_transform_gap_bound": "transform-gap",
    "check_convergence_pointwise": "convergence",
    "check_convergence_uniform": "convergence",
    "check_impact_axioms": "impact",
    "reversal_impact_report": "impact",
    "monotone_difference_forward_batch": "forward",
}
GROUP_NAMES = tuple(dict.fromkeys(VERIFY_GROUPS.values()))


def _status(result):
    return result[1].value


def _breakpoints(result):
    return len(result.breakpoints)


# What a span keeps of its function's return value.
SPAN_INFO = {
    SOLVE: _status,
    "thresholds.admissible_range": lambda r: bool(r.certified),
    "cli.read_sources": len,
    "funcspace.from_citation_counts": _breakpoints,
    "funcspace.perturb": _breakpoints,
    "funcspace.random_function": _breakpoints,
}

# span record fields
ID, PARENT, NAME, START, END, LEAF_S, INFO = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaf: dict[str, list] = {}  # name -> [calls, seconds, points]
        self.leaf_busy = False
        self.solving = 0
        self.solve_points = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        import hirschbundles

        modules = {n: importlib.import_module(f"hirschbundles.{n}") for n in LAYERS}
        namespaces = [hirschbundles] + [
            importlib.import_module(f"hirschbundles.{n}")
            for n in ("errors", "reporting") + LAYERS
        ]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._span_wrapper(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        for layer, cls_name, meth, metric, points in LEAF_METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._leaf_wrapper(metric, cls.__dict__[meth], points))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        info = SPAN_INFO.get(name)
        is_solve = name == SOLVE
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][ID] if stack else -1, name, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            if is_solve:
                self.solving += 1
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[END] = perf()
                stack.pop()
                self.solving -= is_solve
                rec[INFO] = EXCEPTION_STATUS.get(type(e).__name__, type(e).__name__)
                raise
            rec[END] = perf()
            stack.pop()
            self.solving -= is_solve
            if info is not None:
                rec[INFO] = info(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _leaf_wrapper(self, name, fn, points):
        stat = self.leaf.setdefault(name, [0, 0.0, 0])
        stack = self.stack
        perf = time.perf_counter

        def wrapper(obj, x, *args):
            if self.leaf_busy:
                return fn(obj, x, *args)
            self.leaf_busy = True
            t0 = perf()
            try:
                return fn(obj, x, *args)
            finally:
                dt = perf() - t0
                self.leaf_busy = False
                stat[0] += 1
                stat[1] += dt
                if points:
                    n = int(np.size(x))
                    stat[2] += n
                    if self.solving:
                        self.solve_points += n
                if stack:
                    stack[-1][LEAF_S] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[i] - rec[LEAF_S] for i, rec in enumerate(self.spans)]

    def write_spans(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tdur_s\tself_s\tinfo\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for rec, s in zip(self.spans, selfs):
                fh.write(
                    f"{rec[ID]}\t{rec[PARENT]}\t{rec[NAME]}\t{rec[START] - t0:.9f}\t"
                    f"{rec[END] - rec[START]:.9f}\t{s:.9f}\t{rec[INFO]}\n"
                )

    def metrics(self) -> dict:
        """Per-layer metrics, plus the percentiles and self-time ranking."""
        spans, selfs = self.spans, self.self_times()
        by_name: dict[str, list[int]] = {}
        for rec in spans:
            by_name.setdefault(rec[NAME], []).append(rec[ID])

        def ids(*names):
            return [i for n in names for i in by_name.get(n, ())]

        def total(idx, values=None):
            if values is None:
                return sum(spans[i][END] - spans[i][START] for i in idx)
            return sum(values[i] for i in idx)

        def leaf(name):
            return self.leaf.get(name, [0, 0.0, 0])

        m: dict[str, float] = {}
        cmd = ids(*COMMANDS)
        read = ids("cli.read_sources")
        m["cli.command.s"] = total(cmd)
        m["cli.read.s"] = total(read)
        m["cli.records"] = sum(_count(spans[i][INFO]) for i in read)
        m["cli.self.s"] = total(cmd, selfs)

        build = ids(*BUILDERS)
        m["funcspace.build.calls"] = len(build)
        m["funcspace.build.s"] = total(build)
        m["funcspace.build.breakpoints"] = sum(_count(spans[i][INFO]) for i in build)
        for name in ("funcspace", "operators"):
            calls, secs, _ = leaf(f"{name}.eval")
            m[f"{name}.eval.calls"], m[f"{name}.eval.s"] = calls, secs
            calls, secs, pts = leaf(f"{name}.eval_many")
            m[f"{name}.eval_many.calls"] = calls
            m[f"{name}.eval_many.points"] = pts
            m[f"{name}.eval_many.s"] = secs
        apply_ids = ids("operators.apply")
        m["operators.apply.calls"] = len(apply_ids)
        m["operators.apply.s"] = total(apply_ids)

        solves = ids(SOLVE)
        n_solves = len(solves)
        m["operators.points_per_solve"] = self.solve_points / n_solves if n_solves else 0.0

        adm = ids("thresholds.admissible_range")
        m["thresholds.admissible.calls"] = len(adm)
        m["thresholds.admissible.s"] = total(adm)
        certified = sum(1 for i in adm if spans[i][INFO] is True)
        m["thresholds.admissible.certified_frac"] = certified / len(adm) if adm else 0.0
        m["thresholds.value.calls"] = leaf("thresholds.value")[0]
        m["thresholds.value_many.calls"] = leaf("thresholds.value_many")[0]

        bundles = ids("solver.sample_bundle")
        m["solver.sample_bundle.calls"] = len(bundles)
        m["solver.sample_bundle.s"] = total(bundles)
        m["solver.solve.calls"] = n_solves
        m["solver.solve.self_s"] = total(solves, selfs)
        status_counts = {s: 0 for s in STATUSES}
        for i in solves:
            status_counts[spans[i][INFO]] = status_counts.get(spans[i][INFO], 0) + 1
        for s in STATUSES:
            m[f"solver.status.{s}"] = status_counts[s]
        m["solver.exact_frac"] = status_counts["ExactSegment"] / n_solves if n_solves else 0.0

        m.update(self._verify_groups(solves))
        m["trace.spans"] = len(spans)

        percentiles = {
            "solver.sample_bundle.calls": len(bundles),
            "solver.solve.calls": n_solves,
        }
        percentiles.update(_percentiles("solver.sample_bundle.ms", spans, bundles, 1e3, (50, 95)))
        percentiles.update(_percentiles("solver.solve.us", spans, solves, 1e6, (50, 99)))

        self_by_name: dict[str, float] = {}
        for rec, s in zip(spans, selfs):
            self_by_name[rec[NAME]] = self_by_name.get(rec[NAME], 0.0) + s
        for name, (_, secs, _) in self.leaf.items():
            self_by_name[name] = secs
        top = sorted(self_by_name.items(), key=lambda kv: -kv[1])[:12]
        return {
            "metrics": m,
            "percentiles": percentiles,
            "self_s_by_name": dict(top),
            "status_other": {k: v for k, v in status_counts.items() if k not in STATUSES},
        }

    def _verify_groups(self, solves: list[int]) -> dict[str, float]:
        """Per-group time and solves inside ``run_property_suite``.

        The suite prepares each trial's inputs just before calling the
        group's check, so the time from the end of one top-level group
        call to the end of the next is charged to the next group.
        """
        spans = self.spans
        group_of = {}
        for rec in spans:
            short = rec[NAME].rsplit(".", 1)[-1]
            if short in VERIFY_GROUPS:
                group_of[rec[ID]] = VERIFY_GROUPS[short]

        def outermost_group(i):
            found = None
            while i >= 0:
                if i in group_of:
                    found = i
                i = spans[i][PARENT]
            return found

        out = {f"verify.{g}.{k}": 0.0 if k == "s" else 0 for g in GROUP_NAMES for k in ("s", "solves")}
        for i in solves:
            g = outermost_group(i)
            if g is not None:
                out[f"verify.{group_of[g]}.solves"] += 1
        for suite in (rec for rec in spans if rec[NAME] == "verify.run_property_suite"):
            tops = [  # span ids are handed out in start order
                spans[i] for i in sorted(group_of)
                if outermost_group(i) == i and suite[START] <= spans[i][START] <= suite[END]
            ]
            prev_end = suite[START]
            for rec in tops:
                out[f"verify.{group_of[rec[ID]]}.s"] += rec[END] - prev_end
                prev_end = rec[END]
        return out


def _count(info) -> int:
    """A span's size info; a call that raised carries its exception name instead."""
    return info if isinstance(info, int) else 0


def _percentiles(prefix, spans, idx, scale, levels) -> dict[str, float]:
    """Nearest-rank percentiles, each only when ten samples lie beyond it."""
    durations = sorted((spans[i][END] - spans[i][START]) * scale for i in idx)
    n = len(durations)
    out = {}
    for p in levels:
        if n * (100 - p) / 100.0 >= 10:
            out[f"{prefix}_p{p}"] = durations[max(math.ceil(p / 100.0 * n) - 1, 0)]
    return out
