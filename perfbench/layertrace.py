"""Outside-in layer tracer for the multistable benchmark.

The package itself carries no instrumentation.  ``install`` wraps the public
functions of each layer from outside, in every package module that holds a
reference to them, and the wrappers accumulate per layer:

  calls    number of calls into the layer
  busy_s   time spent inside the layer, summed across threads; a call nested
           inside the same layer on the same thread is not counted twice
  self_s   busy time minus the time of the wrapped calls it made
  counts   work sizes visible at the call boundary (points, pairs, terms,
           csv_bytes, fallbacks)

``estimate.diagonal_samples`` fans its chunks out to a thread pool.  Each
chunk is traced as a continuation of that layer on the worker thread, and
the time the calling thread spends waiting for the pool is reported as
``wait_s`` and left out of the layer's busy and self time, so that busy time
counts work, not waiting.

Spans of the coarse layers are kept in memory with their parent span and
written out at the end of the run; the hot layers (expression evaluation,
stable-law constants, kernel evaluation) are counted without spans.

Import this module only in a traced run: untraced runs never load it, so no
wrapper can leak into an untraced measurement.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np


class _Frame:
    __slots__ = ("layer", "id", "parent", "start", "child", "idle")

    def __init__(self, layer: str, span_id: int, parent):
        self.layer = layer
        self.id = span_id
        self.parent = parent
        self.start = 0.0
        self.child = 0.0  # time of wrapped calls made from this span
        self.idle = 0.0   # time spent waiting on the worker pool


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.stats: dict[str, dict[str, float]] = defaultdict(dict)
        self.spans: list[tuple] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _declare(self, layer: str, keys) -> None:
        st = self.stats[layer]
        for key in ("calls", "busy_s", "self_s", *keys):
            st.setdefault(key, 0)

    def wrap(self, func, layer: str, *, count=None, count_keys=(),
             continuation: bool = False, hot: bool = False):
        """Trace ``func`` as ``layer``.  ``count(args, kwargs, result)``
        returns work counts; a continuation adds time to the layer without
        counting a call; hot layers keep no spans."""
        self._declare(layer, count_keys)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1].id if stack else getattr(self._local,
                                                         "parent", None)
            frame = _Frame(layer, next(self._ids), parent)
            stack.append(frame)
            frame.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(stack, frame, end, continuation, hot)
            if count is not None:
                sizes = count(args, kwargs, result)
                with self._lock:
                    st = self.stats[layer]
                    for key, val in sizes.items():
                        st[key] += val
            return result

        return traced

    def _close(self, stack, frame: _Frame, end: float, continuation: bool,
               hot: bool) -> None:
        dur = end - frame.start
        nested = any(f.layer == frame.layer for f in stack)
        with self._lock:
            st = self.stats[frame.layer]
            if not continuation:
                st["calls"] += 1
            st["self_s"] += dur - frame.child
            if not nested:
                st["busy_s"] += dur - frame.idle
            if not hot:
                self.spans.append((frame.id, frame.parent, frame.layer,
                                   threading.get_ident(), frame.start, end))
        if stack:
            stack[-1].child += dur

    def pool_class(self):
        """A ThreadPoolExecutor that hands the submitting span to its worker
        threads and books the submitter's wait from ``map`` to shutdown."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                stack = tracer._stack()
                parent = stack[-1].id if stack else None
                self._wait_from = perf_counter()

                def run(*args):
                    tracer._local.parent = parent
                    return fn(*args)

                return super().map(run, *iterables, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                stack = tracer._stack()
                if stack and hasattr(self, "_wait_from"):
                    waited = perf_counter() - self._wait_from
                    stack[-1].child += waited
                    stack[-1].idle += waited
                    with tracer._lock:
                        st = tracer.stats[stack[-1].layer]
                        st["wait_s"] = st.get("wait_s", 0.0) + waited

        return TracedPool

    def metrics(self) -> dict[str, float]:
        return {f"{layer}.{key}": val
                for layer, st in self.stats.items()
                for key, val in st.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "thread", "start",
                                  "end"], "spans": self.spans}, fh)


def _replace_everywhere(modules, original, wrapped) -> None:
    for mod in modules:
        for name, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, name, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of an imported multistable package."""
    import multistable
    from multistable import cli, engine, estimate, expr, kernels, stable

    modules = (multistable, cli, engine, estimate, expr, kernels, stable)

    def patch(owner, name, layer, **opts):
        original = getattr(owner, name)
        _replace_everywhere(modules, original,
                            tracer.wrap(original, layer, **opts))

    expr.FuncSpec.__call__ = tracer.wrap(expr.FuncSpec.__call__, "expr",
                                         hot=True)
    for name in ("c_alpha", "sin2_integral", "sas_abs_moment",
                 "sin2_phase_integral"):
        patch(stable, name, "stable", hot=True)

    # kernel and measure are closures built per process, so wrap them on
    # every ProcessSpec that make_process hands out
    make_process = kernels.make_process

    def traced_make_process(*args, **kwargs):
        spec = make_process(*args, **kwargs)
        kernel = dataclasses.replace(spec.kernel, evaluate=tracer.wrap(
            spec.kernel.evaluate, "kernels.evaluate", hot=True,
            count=lambda a, k, r: {"points": np.size(a[2])},
            count_keys=("points",)))
        measure = dataclasses.replace(spec.measure, sample=tracer.wrap(
            spec.measure.sample, "kernels.sample",
            count=lambda a, k, r: {"points": a[1]}, count_keys=("points",)))
        return dataclasses.replace(spec, kernel=kernel, measure=measure)

    _replace_everywhere(modules, make_process, traced_make_process)
    patch(kernels, "pair_integral", "kernels.pair_integral")
    patch(kernels, "kink_power_integral", "kernels.kink_integral")

    patch(engine, "tail_covariance", "engine.tail_covariance",
          count=lambda a, k, r: {"pairs": len(a[1]) * (len(a[1]) + 1) // 2},
          count_keys=("pairs",))
    patch(engine, "tail_sqrt", "engine.tail_sqrt",
          count=lambda a, k, r: {"fallbacks": int(np.any(np.triu(r, 1)))},
          count_keys=("fallbacks",))
    patch(engine, "tail_draw", "engine.tail_draw")

    diag_sig = inspect.signature(estimate.diagonal_samples)

    def diag_terms(args, kwargs, result):
        b = diag_sig.bind(*args, **kwargs).arguments
        return {"terms": b["m_paths"] * b["n_terms"] * len(b["grid"])}

    patch(estimate, "diagonal_samples", "estimate.diagonal_samples",
          count=diag_terms, count_keys=("terms", "wait_s"))
    patch(estimate, "_chunk_values", "estimate.diagonal_samples",
          continuation=True)
    estimate.ThreadPoolExecutor = tracer.pool_class()
    for name in ("estimate_increment_moments", "fit_scaling",
                 "holder_pathwise"):
        patch(estimate, name, "estimate.reduce")

    for name in ("cmd_path", "cmd_moments", "cmd_holder", "cmd_verify"):
        patch(cli, name, "cli")
    patch(cli, "_write_csv", "cli", continuation=True,
          count=lambda a, k, r: {"csv_bytes": os.path.getsize(a[0])},
          count_keys=("csv_bytes",))
