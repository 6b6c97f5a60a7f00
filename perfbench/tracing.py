"""Spans around the public functions of each dpsketch layer.

``install`` wraps functions and methods from the outside (the program is
not modified).  Spans are kept in memory, one list per process, and
written out once at the end.  A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np


class Tracer:
    """Records nested spans: id, name, start, end, parent and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, under the span currently open."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent})

    def wrap(self, name: str, fn, counts=None):
        """Return fn wrapped in a span; counts(args, result) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "start": self.clock(),
                    "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if counts is not None:
                try:
                    span.update(counts(args, result))
                except Exception as exc:  # tracing must never change the run
                    span["counts_error"] = repr(exc)
            return result

        return traced


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's (clipped) intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ()))
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# -- what to wrap ---------------------------------------------------------


def _rows(args, result):
    return {"rows": int(np.atleast_2d(args[-1]).shape[0])}


def _gram(args, result):
    return {"bytes": int(result.nbytes)}  # computed: m * m * 8


def _cho_factor(args, result):
    m = result[0].shape[0]
    return {"flops": m ** 3 / 3.0}  # computed: Cholesky of an m x m matrix


def _file_bytes(path_arg):
    def counts(args, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return counts


def _answers_cdf(args, result):
    return {"answers": len(result.values)}


def _answers_cov(args, result):
    d = result.shape[0]
    return {"answers": d * (d + 1) // 2}


def _answers_queries(args, result):
    return {"answers": len(result.fractions)}


def _gd(args, result):
    return {"iterations": int(result[2]["iterations"])}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer.  Call once per process.

    A function or module that no longer exists is skipped, so a refactored
    layer reads 0 instead of breaking the traced run.
    """
    import importlib

    import scipy.linalg

    mods = {}
    for name in ("cli", "domain", "estimator", "feature_maps", "metrics",
                 "reweighting", "sketch", "targets"):
        try:
            mods[name] = importlib.import_module(f"dpsketch.{name}")
        except ImportError:
            pass

    def get(module, attr=None):
        owner = mods.get(module)
        return owner if attr is None else getattr(owner, attr, None)

    def patch(owner, attr, name, counts=None, also=()):
        """Wrap owner.attr, and the same function where also binds it by name."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            return
        traced = tracer.wrap(name, fn, counts)
        for target in (owner, *also):
            if getattr(target, attr, None) is fn:
                setattr(target, attr, traced)

    cli = get("cli")
    for attr in dir(cli) if cli is not None else ():
        if attr.startswith("cmd_"):
            patch(cli, attr, f"cli.{attr}")

    domain = get("domain", "Domain")
    patch(domain, "validate", "domain.validate")
    patch(domain, "sample", "domain.sample")

    for cls in ("HistMap", "RffMap", "RaceMap"):
        cls = get("feature_maps", cls)
        patch(cls, "encode_batch", "feature_maps.encode", _rows)
        patch(cls, "sum_features", "feature_maps.sum")
        patch(cls, "gram", "feature_maps.gram", _gram)
        patch(cls, "dot_targets", "feature_maps.dot_targets")
        patch(cls, "apply", "feature_maps.apply")

    sketch = get("sketch")
    patch(sketch, "sketch_exact", "sketch.sketch_exact", _rows)
    patch(sketch, "privatize", "sketch.privatize")
    patch(sketch, "save_sketch", "sketch.save", _file_bytes(0))
    patch(sketch, "load_sketch", "sketch.load", _file_bytes(0))

    synth = get("estimator", "SyntheticFeatures")
    patch(synth, "__init__", "estimator.synthetic_features")
    patch(synth, "gram", "estimator.gram")
    patch(synth, "solve", "estimator.solve")
    patch(synth, "fit", "estimator.fit")
    patch(synth, "target_values", "estimator.target_values")
    # the estimator calls it through the scipy.linalg module at call time
    patch(scipy.linalg, "cho_factor", "estimator.cho_factor", _cho_factor)
    # targets binds it by name at import
    patch(get("estimator"), "learn_and_estimate", "estimator.learn_and_estimate",
          also=[get("targets")])

    targets = get("targets")
    patch(targets, "estimate_cdf", "targets.cdf", _answers_cdf)
    patch(targets, "estimate_covariance", "targets.cov", _answers_cov)
    patch(targets, "answer_queries", "targets.queries", _answers_queries)

    reweighting = get("reweighting")
    patch(reweighting, "fit_logistic_from_sketch", "reweighting.fit_logistic")
    patch(reweighting, "compute_weights", "reweighting.weights")
    patch(reweighting, "fit_weighted", "reweighting.fit_weighted", _gd)
    patch(reweighting, "logistic_loss_and_grad", "reweighting.loss_grad")
    patch(reweighting, "evaluate_auc", "reweighting.evaluate_auc")
    patch(get("metrics"), "auc", "metrics.auc", also=[reweighting])  # bound at import


# -- per-layer metrics ------------------------------------------------------
#
# metric name -> (span name, what is summed over the traced pass, unit).
# "total" is inclusive span time, "self" excludes wrapped children, "calls"
# counts spans, anything else sums that counter.  Layer times of leaf spans
# are the same either way.

LAYER_METRICS = {
    "cli.import_s": ("cli.import", "total", "s"),
    "cli.commands": ("cli.main", "calls", "count"),
    "cli.sketch.self_s": ("cli.cmd_sketch", "self", "s"),
    "cli.rows_read": ("sketch.sketch_exact", "rows", "count"),
    "domain.validate_s": ("domain.validate", "total", "s"),
    "domain.sample_s": ("domain.sample", "total", "s"),
    "feature_maps.encode_s": ("feature_maps.encode", "self", "s"),
    "feature_maps.encode_rows": ("feature_maps.encode", "rows", "count"),
    "feature_maps.sum_s": ("feature_maps.sum", "total", "s"),
    "feature_maps.gram_s": ("feature_maps.gram", "total", "s"),
    "feature_maps.gram_calls": ("feature_maps.gram", "calls", "count"),
    "feature_maps.gram_bytes_computed": ("feature_maps.gram", "bytes", "B"),
    "feature_maps.dot_targets_s": ("feature_maps.dot_targets", "total", "s"),
    "feature_maps.dot_targets_calls": ("feature_maps.dot_targets", "calls", "count"),
    "feature_maps.apply_s": ("feature_maps.apply", "total", "s"),
    "feature_maps.apply_calls": ("feature_maps.apply", "calls", "count"),
    "estimator.synthetic_self_s": ("estimator.synthetic_features", "self", "s"),
    "estimator.factorize_s": ("estimator.cho_factor", "total", "s"),
    "estimator.factorizations": ("estimator.cho_factor", "calls", "count"),
    "estimator.factorize_flops_computed": ("estimator.cho_factor", "flops", "flop"),
    "estimator.solves": ("estimator.solve", "calls", "count"),
    "estimator.solve_s": ("estimator.solve", "self", "s"),
    "estimator.fits": ("estimator.fit", "calls", "count"),
    "estimator.fit_self_s": ("estimator.fit", "self", "s"),
    "estimator.target_eval_s": ("estimator.target_values", "total", "s"),
    "targets.cdf_s": ("targets.cdf", "total", "s"),
    "targets.cov_s": ("targets.cov", "total", "s"),
    "targets.queries_s": ("targets.queries", "total", "s"),
    "targets.answers": (("targets.cdf", "targets.cov", "targets.queries"),
                        "answers", "count"),
    "sketch.exact_s": ("sketch.sketch_exact", "total", "s"),
    "sketch.privatize_s": ("sketch.privatize", "total", "s"),
    "sketch.save_s": ("sketch.save", "total", "s"),
    "sketch.load_s": ("sketch.load", "total", "s"),
    "sketch.file_bytes": (("sketch.save", "sketch.load"), "bytes", "B"),
    "reweighting.fit_s": ("reweighting.fit_logistic", "total", "s"),
    "reweighting.weights_s": ("reweighting.weights", "total", "s"),
    "reweighting.loss_grad_calls": ("reweighting.loss_grad", "calls", "count"),
    "reweighting.loss_grad_s": ("reweighting.loss_grad", "total", "s"),
    "reweighting.gd_iterations": ("reweighting.fit_weighted", "iterations", "count"),
    "reweighting.restarts_diverged": ("reweighting.fit_weighted", "error", "count"),
    "metrics.auc_s": ("metrics.auc", "total", "s"),
}


def span_table(processes: list[list[dict]]) -> dict[str, list]:
    """Span name -> [calls, total seconds, self seconds] over several processes."""
    table: dict[str, list] = {}
    for spans in processes:
        own = self_times(spans)
        for s in spans:
            row = table.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["end"] - s["start"]
            row[2] += own[s["id"]]
    return table


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Sum LAYER_METRICS over the spans of several processes (one per command)."""
    out = {name: 0.0 for name in LAYER_METRICS}
    for spans in processes:
        own = self_times(spans)
        for name, (span_names, what, _) in LAYER_METRICS.items():
            if isinstance(span_names, str):
                span_names = (span_names,)
            for s in spans:
                if s["name"] not in span_names:
                    continue
                if what == "total":
                    out[name] += s["end"] - s["start"]
                elif what == "self":
                    out[name] += own[s["id"]]
                elif what == "calls":
                    out[name] += 1
                elif what == "error":
                    out[name] += 1 if "error" in s else 0
                else:
                    out[name] += s.get(what, 0)
    return out
