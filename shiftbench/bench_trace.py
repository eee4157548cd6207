"""Span tracing for the benchmark's traced runs (``--trace 1``).

Nothing in shiftguard is edited: ``install`` replaces each public function
and method of the traced modules with a wrapper that records a span, at
every name it is looked up under (``shiftguard.cdc.fit_disagreeing`` is
the same function object as ``shiftguard.learners.fit_disagreeing``, so
both names are rebound to one wrapper).  A span is (name, operation,
parent, start, end); spans stay in memory and are written out once, when
the run ends.  Self time is a span's duration minus the durations of its
direct child spans.

The learner implementation modules (``learners.gbt``, ``learners.mlp``)
are the inside of the learners layer and get no spans of their own,
except the two prediction kernels ``GbtModel.margins`` and
``MlpModel.logits``, which are aggregated as ``learners.predict``.  So
``learners.fit_disagreeing`` self time is GBT split search and boosting,
or the MLP forward pass, backward pass and Adam step.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

TRACED_MODULES = ("numerics", "losses", "learners", "cdc", "stats",
                  "detectron", "data", "cli")
PREDICT_KERNELS = (("learners.gbt", "GbtModel", "margins"),
                   ("learners.mlp", "MlpModel", "logits"))


class Tracer:
    """Span recorder plus per-key aggregates.

    A key groups spans for the per-layer table: it is the span name,
    except that all ``RngStream`` methods share ``numerics.rng`` and both
    prediction kernels share ``learners.predict``.  ``calls`` and
    ``total_s`` count only the outermost span of a key, so a draw made by
    ``integers`` through ``uniform`` is counted once.
    """

    def __init__(self):
        self.spans = []          # [name, op, parent, start, end]
        self.op = ""             # current operation; empty: record nothing
        self._stack = []         # [span index, key, child seconds]
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def _enter(self, name, key):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0])
        self._stack.append([len(self.spans) - 1, key, 0.0])
        self._depth[key] += 1

    def _exit(self):
        end = time.perf_counter()
        index, key, child_s = self._stack.pop()
        span = self.spans[index]
        span[4] = end
        duration = end - span[3]
        self.self_s[key] += duration - child_s
        self._depth[key] -= 1
        if self._depth[key] == 0:
            self.calls[key] += 1
            self.total_s[key] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name, fn, key=None, before=None, after=None):
        """Wrap ``fn`` in a span.  ``before(args)`` runs at the outermost
        entry of the key and returns state for ``after(counts, args,
        result, state)``, which runs when that outermost span ends."""
        key = key or name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.op:   # outside a benchmark operation
                return fn(*args, **kwargs)
            outermost = self._depth[key] == 0
            state = before(args) if before and outermost else None
            self._enter(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after and outermost:
                after(self.counts, args, result, state)
            return result

        return traced

    def ms(self, key):
        return self.total_s.get(key, 0.0) * 1000.0

    def self_ms(self, key):
        return self.self_s.get(key, 0.0) * 1000.0

    def write(self, path):
        """Write every span, with times relative to the first one."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1)}) + "\n")


# ---------------------------------------------------------------------------
# counters read at layer boundaries
# ---------------------------------------------------------------------------

def _count_rows(counts, args, result, state):
    counts["learners.predict.rows"] += len(args[1])


def _count_exact_ks(counts, args, result, state):
    # d == 0 returns p = 1 before the lattice DP runs
    if result.method == "exact" and result.statistic > 0.0:
        counts["stats.ks_two_sample.exact_calls"] += 1


def _count_members(counts, args, result, state):
    previous = 0.0
    for phi in result.per_round_phi:
        counts["cdc.members_trained"] += 1
        counts["cdc.members_raising_phi"] += phi > previous
        previous = phi


def _draw_counter(args):
    return args[0]._counter


def _count_draws(counts, args, result, state):
    counts["numerics.rng.values"] += args[0]._counter - state


# span name -> (before, after) hooks
HOOKS = {
    "stats.ks_two_sample": (None, _count_exact_ks),
    "cdc.build_ensemble": (None, _count_members),
    "learners.gbt.GbtModel.margins": (None, _count_rows),
    "learners.mlp.MlpModel.logits": (None, _count_rows),
}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _public_functions(namespace, module_name):
    for attr, obj in list(vars(namespace).items()):
        if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == module_name):
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions and methods."""
    for name in (*TRACED_MODULES, "learners.gbt", "learners.mlp"):
        importlib.import_module(f"shiftguard.{name}")

    replaced = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"shiftguard.{short}"]
        for attr, fn in _public_functions(module, module.__name__):
            name = f"{short}.{attr}"
            replaced[fn] = tracer.wrap(name, fn, None, *HOOKS.get(name, ()))
        for cls_name, cls in list(vars(module).items()):
            if (cls_name.startswith("_") or not isinstance(cls, type)
                    or cls.__module__ != module.__name__):
                continue
            rng = cls_name == "RngStream"
            for attr, fn in _public_functions(cls, module.__name__):
                setattr(cls, attr, tracer.wrap(
                    f"{short}.{cls_name}.{attr}", fn,
                    *(("numerics.rng", _draw_counter, _count_draws) if rng
                      else ())))

    for short, cls_name, attr in PREDICT_KERNELS:
        cls = getattr(sys.modules[f"shiftguard.{short}"], cls_name)
        name = f"{short}.{cls_name}.{attr}"
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr),
                                       "learners.predict", *HOOKS[name]))

    # rebind every module-level name bound to a wrapped function, which
    # covers ``from .x import f`` copies in other shiftguard modules
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "shiftguard" and not mod_name.startswith("shiftguard."):
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                setattr(module, attr, replaced[obj])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER = (
    "learners.fit_disagreeing.self_ms", "learners.fit_disagreeing.calls",
    "learners.predict.ms", "learners.predict.calls", "learners.predict.rows",
    "learners.fit.ms", "learners.fit.calls",
    "learners.evaluate_metric.ms", "learners.evaluate_metric.calls",
    "learners.model_fingerprint.ms", "learners.model_fingerprint.calls",
    "losses.cdc_batch_loss.ms",
    "cdc.build_ensemble.self_ms", "cdc.train_cdc.calls", "cdc.member_yield",
    "cdc.cdc_entropy.ms",
    "stats.ks_two_sample.ms", "stats.ks_two_sample.calls",
    "stats.ks_two_sample.exact_calls",
    "numerics.rng.ms", "numerics.rng.values",
    "detectron.config_hash.ms", "detectron.calibrate.self_ms",
    "detectron.load_calibration.ms", "detectron.save_calibration.ms",
    "data.synth_generate.ms", "data.partition.ms", "data.load_csv.ms",
    "cli.build_environment.ms",
)


def per_layer_metrics(t: Tracer) -> dict:
    """name -> (value, unit) for every per-layer metric.  The last part of
    a name says what is read: ``ms`` is time in the key's outermost spans,
    ``self_ms`` its self time, ``calls`` its outermost span count; any
    other name is a counter."""
    metrics = {}
    for metric in PER_LAYER:
        key, what = metric.rsplit(".", 1)
        if what == "ms":
            metrics[metric] = (t.ms(key), "ms")
        elif what == "self_ms":
            metrics[metric] = (t.self_ms(key), "ms")
        elif what == "calls":
            metrics[metric] = (t.calls.get(key, 0), "count")
        elif metric == "cdc.member_yield":
            trained = t.counts["cdc.members_trained"]
            raised = t.counts["cdc.members_raising_phi"]
            metrics[metric] = (raised / trained if trained else 0.0, "ratio")
        else:
            metrics[metric] = (t.counts[metric], "count")
    return metrics
