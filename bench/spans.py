"""Spans around the calls into each precboot module, recorded from outside.

``Tracer.install`` replaces every public function of the package's modules
(and a few methods and private helpers that mark a layer boundary) with a
wrapper that records a span: layer, name, start, end, parent span and
operation. The wrapper is bound wherever the function is visible, so calls
from one module into another and within one module are both seen. Hooks on
some calls add counts taken from their arguments and results, and keep a few
sampled inputs and outputs for the layer checks, which run after the
operation and outside every span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import warnings
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import checks

LAYERS = ("cli", "core", "pipeline", "nodewise", "precision", "longrun",
          "bootstrap", "inference", "simulate")
# layer checks run on the first few calls of each kind in every operation
SAMPLES_PER_OP = 2
W_COLUMNS = 16

# span-time metrics: the spans whose durations they sum
TIME_METRICS = {
    "nodewise.fit_all_s": ["nodewise.fit_all"],
    "pipeline.fit_s": ["pipeline.fit_pipeline"],
    "precision.estimate_s": ["precision.estimate_v", "precision.estimate_omega"],
    "pipeline.scores_s": ["pipeline.PipelineFit.scores"],
    "longrun.bandwidth_s": ["longrun.andrews_bandwidth"],
    "longrun.w_diag_s": ["longrun.w_diag"],
    "bootstrap.factor_s": ["bootstrap.gaussian_mult_factor"],
    "core.index_set_s": ["core.index_set_all_offdiag",
                         "core.index_set_from_blocks"],
    "cli.main_s": ["cli.main"],
    "cli.load_s": ["cli._load_dataset"],
    "inference.test_s": ["inference.test_structure"],
    "inference.recover_s": ["inference.recover_support"],
    "simulate.generate_s": ["simulate.generate"],
}
# draw time minus the factor: self time of the draw engines
DRAW_SPANS = ("bootstrap.kmb_draws", "bootstrap.kmb_draws_dual",
              "bootstrap.kmb_draw_vectors")
SELF_METRICS = {"cli.self_s": "cli", "inference.self_s": "inference",
                "simulate.self_s": "simulate"}
# counts from the hooks below
COUNT_METRICS = {
    "nodewise.cd_sweeps": "count", "nodewise.nodes": "count",
    "nodewise.nonconverged": "count", "precision.score_entries": "count",
    "longrun.w_floored": "count", "bootstrap.draws": "count",
    "bootstrap.proj_gflop": "GFLOP", "core.rng_substreams": "count",
    "inference.block_pairs": "count", "simulate.replicates": "count",
}
# counts of spans
CALL_METRICS = {"longrun.bandwidth_calls": "longrun.andrews_bandwidth",
                "bootstrap.factor_calls": "bootstrap.gaussian_mult_factor"}


class Tracer:
    def __init__(self):
        self.spans = []  # [op, layer, name, parent, start, end]
        self.stack = []
        self.counts = defaultdict(Counter)  # op -> metric -> count
        self.samples = defaultdict(list)  # check kind -> sampled arguments
        self.op = 0

    # -- recording ---------------------------------------------------------

    def _span(self, layer, name, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.op, layer, name,
                    self.stack[-1] if self.stack else None, perf_counter(),
                    None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self.stack.pop()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, out)
            return out
        return wrapper

    def _counted(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op][metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _floored(self, fn):
        """Count the floored variances that w_diag reports in its
        DegenerateVariance warning, then pass the warning on."""
        from precboot.errors import DegenerateVariance

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, DegenerateVariance):
                    self.add("longrun.w_floored", int(str(w.message).split()[0]))
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno)
            return out
        return wrapper

    def add(self, metric, value):
        self.counts[self.op][metric] += value

    def sample(self, kind, item):
        """Keep ``item()`` for a layer check if this operation has fewer than
        SAMPLES_PER_OP of this kind."""
        if sum(1 for op, _ in self.samples[kind] if op == self.op) \
                < SAMPLES_PER_OP:
            self.samples[kind].append((self.op, item()))

    def install(self):
        """Wrap the package's functions; returns a callable that undoes it."""
        import precboot
        from precboot.core import RngSpec
        from precboot.pipeline import PipelineFit

        modules = [precboot] + [importlib.import_module(f"precboot.{m}")
                                for m in LAYERS]
        replace = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    key = f"{layer}.{name}"
                    inner = (self._floored(obj) if key == "longrun.w_diag"
                             else obj)
                    replace[obj] = self._span(layer, key, inner,
                                              HOOKS.get(key))
        load = modules[1]._load_dataset
        replace[load] = self._span("cli", "cli._load_dataset", load)
        undo = []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    undo.append((mod, name, obj))
                    setattr(mod, name, replace[obj])
        for cls, name, wrapper in (
                (PipelineFit, "scores",
                 self._span("pipeline", "pipeline.PipelineFit.scores",
                            PipelineFit.scores)),
                (RngSpec, "generator",
                 self._counted("core.rng_substreams", RngSpec.generator))):
            undo.append((cls, name, vars(cls)[name]))
            setattr(cls, name, wrapper)

        def uninstall():
            for owner, name, obj in reversed(undo):
                setattr(owner, name, obj)
        return uninstall

    # -- layer checks ------------------------------------------------------

    def run_checks(self):
        """Layer checks on this operation's samples; returns the problems."""
        problems = []
        for kind, fn in LAYER_CHECKS.items():
            for op, item in self.samples[kind]:
                if op == self.op:
                    problems += fn(*item)
        return problems

    # -- metrics -----------------------------------------------------------

    def metrics(self, ops):
        """Median over operations of every per-layer metric."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[5] - s[4]
        per_op = {op: (Counter(), Counter(), Counter(), Counter())
                  for op in ops}
        for s, c in zip(self.spans, child):
            if s[0] in per_op:
                total, self_time, layer_self, calls = per_op[s[0]]
                total[s[2]] += s[5] - s[4]
                self_time[s[2]] += s[5] - s[4] - c
                layer_self[s[1]] += s[5] - s[4] - c
                calls[s[2]] += 1
        values = defaultdict(list)
        for op, (total, self_time, layer_self, calls) in per_op.items():
            for name, spans in TIME_METRICS.items():
                values[name].append(sum(total[n] for n in spans))
            values["bootstrap.draws_s"].append(
                sum(self_time[n] for n in DRAW_SPANS))
            for name, layer in SELF_METRICS.items():
                values[name].append(layer_self[layer])
            for name, span in CALL_METRICS.items():
                values[name].append(calls[span])
            for name in COUNT_METRICS:
                values[name].append(self.counts[op][name])
        units = {**dict.fromkeys(TIME_METRICS, "s"), "bootstrap.draws_s": "s",
                 **dict.fromkeys(SELF_METRICS, "s"), **COUNT_METRICS,
                 **dict.fromkeys(CALL_METRICS, "count")}
        return {name: {"value": float(statistics.median(values[name])),
                       "unit": unit} for name, unit in units.items()}

    def dump(self):
        keys = ("op", "layer", "name", "parent", "start", "end")
        return {"spans": [dict(zip(keys, s)) for s in self.spans],
                "counts": {op: dict(c) for op, c in self.counts.items()}}


# ---------------------------------------------------------------------------
# hooks: counts and samples taken at the layer boundaries

def _fit_all(tr, args, out):
    tr.add("nodewise.nodes", out.alpha.shape[0])
    tr.add("nodewise.cd_sweeps", int(out.iterations.sum()))
    tr.add("nodewise.nonconverged",
           int((out.iterations >= args["cfg"].max_iter).sum()))
    tr.sample("kkt", lambda: (args["data"].values, out.alpha, out.lambdas))


def _scores_for(tr, args, out):
    tr.add("precision.score_entries", out.shape[0] * out.shape[1])


def _w_sample(tr, args, out):
    eta = args["eta"]
    cols = np.unique(np.linspace(0, eta.shape[1] - 1, W_COLUMNS).astype(int))
    tr.sample("w_diag", lambda: (
        np.array(eta[:, cols]), args["h_diag"][cols], args["s_n"],
        args["kernel"].truncation_eps, out[cols]))


def _factor(tr, args, out):
    tr.sample("factor", lambda: (out, args["s_n"]))


def _draws(tr, args, out):
    n, r = args["eta"].shape
    m = args["cfg"].M
    tr.add("bootstrap.draws", m)
    tr.add("bootstrap.proj_gflop", 2.0 * n * r * m / 1e9)


def _blocks(tr, args, out):
    tr.add("inference.block_pairs", len(out.tests))


def _coverage(tr, args, out):
    tr.add("simulate.replicates", args["replicates"] + args["truth_reps"])


HOOKS = {
    "nodewise.fit_all": _fit_all,
    "precision.scores_for": _scores_for,
    "longrun.w_diag": _w_sample,
    "bootstrap.gaussian_mult_factor": _factor,
    "bootstrap.kmb_draws": _draws,
    "bootstrap.kmb_draws_dual": _draws,
    "bootstrap.kmb_draw_vectors": _draws,
    "inference.block_test_matrix": _blocks,
    "simulate.coverage_experiment": _coverage,
}

LAYER_CHECKS = {
    "kkt": checks.check_kkt,
    "w_diag": checks.check_w_diag,
    "factor": checks.check_factor,
}
