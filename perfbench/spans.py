"""In-memory spans around the public entry points of each layer.

The benchmark traces the program from the outside: :func:`install` replaces
a fixed list of public functions and methods with wrappers that record one
span per call (name, start, end, parent span, request id and a few counts
taken from the call's arguments or result).  Nothing in the program is
edited; an untraced run never imports this module's wrappers.

Spans are kept in a list and written out once, when the traced process
ends.  :func:`layer_metrics` turns them into the per-layer metrics of
``BENCHMARK.json``; a layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Iterable, Sequence

from openloop import percentile

# Span tuple layout: (id, name, start, end, parent id or -1, request id, attrs)
ID, NAME, START, END, PARENT, RID, ATTRS = range(7)


class Recorder:
    """Collects spans from any thread; parents follow each thread's call stack."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: Submit time and request id of each query waiting in the batcher.
        self.queued: dict[int, tuple[float, str | None]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, parent: int = -1,
            rid: str | None = None, attrs: dict | None = None) -> None:
        self.spans.append((next(self._ids), name, start, end, parent, rid, attrs or {}))

    def wrap(self, fn: Callable, name: str,
             before: Callable[..., dict] | None = None,
             after: Callable[..., dict] | None = None) -> Callable:
        """Synchronous wrapper recording one span per call.

        *before(args, kwargs)* and *after(args, result)* return attrs to
        store on the span (and may record side spans).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else -1
            attrs = before(args, kwargs) if before is not None else {}
            rid = attrs.pop("rid", None)
            stack.append(span_id)
            start = recorder.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = recorder.clock()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent, rid, attrs))
            if after is not None:
                attrs.update(after(args, result))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


# ------------------------------------------------------------------ install
def mlp_flops_per_step(n_networks: int, n_features: int, n_hidden: int) -> int:
    """Floating-point operations of one stacked SGD step, from tensor sizes.

    Counts every elementwise operation and multiply-add of
    ``NumpyBackend.mlp_sgd`` per network: 7FH for the two F x H products
    and the hidden-weight momentum update, 21H for the hidden-layer
    vectors, and 7 scalars for the output unit.
    """
    f, h = n_features, n_hidden
    return n_networks * (7 * f * h + 21 * h + 7)


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point (call before the program starts work)."""
    from repro.baselines.ga_knn import BatchedGAKNN
    from repro.core import pipeline
    from repro.core.backends import NumpyBackend
    from repro.core.batch import SplitContext
    from repro.data import spec_dataset
    from repro.ml.batched_mlp import BatchedMLPRegressor
    from repro.service import api, server
    from repro.service.batching import MicroBatcher
    from repro.service.cache import SplitContextCache
    from repro.service.resilience import ResilientBackend

    wrap = recorder.wrap

    def sgd_attrs(args, kwargs):
        w_hidden, orders = args[3], args[7]
        n, f, h = w_hidden.shape
        steps = int(orders.shape[0] * orders.shape[1])
        return {"steps": steps, "flop": steps * mlp_flops_per_step(n, f, h)}

    NumpyBackend.mlp_sgd = wrap(NumpyBackend.mlp_sgd, "kernel.mlp_sgd", before=sgd_attrs)
    NumpyBackend.nnt_downdated_statistics = wrap(
        NumpyBackend.nnt_downdated_statistics, "kernel.nnt"
    )

    def fallbacks_before(args, kwargs):
        return {"fallbacks_before": args[0].fallback_calls}

    def fallbacks_after(args, result):
        return {"fallbacks": args[0].fallback_calls}

    for kernel in ("mlp_sgd", "nnt_downdated_statistics"):
        setattr(ResilientBackend, kernel, wrap(
            getattr(ResilientBackend, kernel), "backend." + kernel,
            before=fallbacks_before, after=fallbacks_after,
        ))

    BatchedMLPRegressor.fit = wrap(
        BatchedMLPRegressor.fit, "mlp.fit",
        before=lambda args, kwargs: {"networks": int(args[1].shape[0])},
    )
    BatchedGAKNN.predict_all_applications = wrap(
        BatchedGAKNN.predict_all_applications, "gaknn.predict"
    )

    split_scores = wrap(pipeline.predict_split_scores, "pipeline.split_pass")
    pipeline.predict_split_scores = split_scores
    api.predict_split_scores = split_scores  # imported by name there
    SplitContext.for_split = classmethod(
        wrap(SplitContext.for_split.__func__, "splitctx.for_split")
    )
    SplitContext.__init__ = wrap(SplitContext.__init__, "splitctx.build")

    def cache_after(args, result):
        attrs = {"hit": bool(result[1])}
        if not result[1]:
            attrs["evictions"] = args[0].stats().evictions
        return attrs

    SplitContextCache.get_or_create = wrap(
        SplitContextCache.get_or_create, "cache.get_or_create", after=cache_after
    )

    def rank_before(args, kwargs):
        now = recorder.clock()
        for query in args[1]:
            queued = recorder.queued.pop(id(query), None)
            if queued is not None:
                recorder.add("batcher.queue_wait", queued[0], now, rid=queued[1])
        return {"batch": len(args[1])}

    def rank_after(args, result):
        warm = sum(1 for reply in result if reply.cache_hit)
        return {"warm": warm, "cold": len(result) - warm}

    api.PredictionService.rank_many = wrap(
        api.PredictionService.rank_many, "service.rank_many",
        before=rank_before, after=rank_after,
    )

    submit = MicroBatcher.submit

    @functools.wraps(submit)
    async def traced_submit(self, query):
        rid = query.trace.trace_id if query.trace is not None else None
        start = recorder.clock()
        recorder.queued[id(query)] = (start, rid)
        attrs: dict = {}
        try:
            return await submit(self, query)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            recorder.queued.pop(id(query), None)
            recorder.add("batcher.submit", start, recorder.clock(), rid=rid, attrs=attrs)

    MicroBatcher.submit = traced_submit

    def parse_rid(args, kwargs):
        payload = args[0]
        return {"rid": payload.get("trace_id") if isinstance(payload, dict) else None}

    # The server looks both up as module globals at call time.
    server.query_from_payload = wrap(server.query_from_payload, "wire.parse", before=parse_rid)
    server.reply_to_payload = wrap(server.reply_to_payload, "wire.encode")

    build = wrap(spec_dataset.build_default_dataset, "data.build")
    spec_dataset.build_default_dataset = build
    server.build_default_dataset = build


# --------------------------------------------------------------- summarise
def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span[ID]] = (end - start) - covered
    return out


def layer_metrics(spans: Iterable[tuple], window: tuple[float, float], wall_s: float) -> dict:
    """Per-layer metrics of the spans that started inside *window*.

    ``data.build`` is set-up work and is counted wherever it happened.
    """
    everything = list(spans)
    setup = [s for s in everything if s[NAME] == "data.build"]
    lo, hi = window
    spans = [s for s in everything if lo <= s[START] <= hi]
    own = self_times(spans)
    by: dict[str, list[tuple]] = {}
    for span in spans:
        by.setdefault(span[NAME], []).append(span)

    def busy(name: str) -> float:
        return sum(s[END] - s[START] for s in by.get(name, ()))

    def self_sum(*names: str) -> float:
        return sum(own[s[ID]] for name in names for s in by.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(s[ATTRS].get(key, 0) for s in by.get(name, ()))

    def ms_p(name: str, q: float, scale: float = 1000.0) -> float:
        values = [(s[END] - s[START]) * scale for s in by.get(name, ())]
        return percentile(values, q) if values else 0.0

    sgd = by.get("kernel.mlp_sgd", [])
    fits = by.get("mlp.fit", [])
    lookups = by.get("cache.get_or_create", [])
    inserts = [s for s in lookups if not s[ATTRS].get("hit")]
    before_window = [s for s in everything
                     if s[NAME] == "cache.get_or_create" and s[START] < lo
                     and "evictions" in s[ATTRS]]
    evictions_start = max((s[ATTRS]["evictions"] for s in before_window), default=0)
    evictions_end = max((s[ATTRS]["evictions"] for s in inserts), default=evictions_start)
    backend_spans = by.get("backend.mlp_sgd", []) + by.get("backend.nnt_downdated_statistics", [])
    rank = by.get("service.rank_many", [])
    submits = by.get("batcher.submit", [])
    return {
        "kernel.mlp_sgd.calls": len(sgd),
        "kernel.mlp_sgd.busy_s": busy("kernel.mlp_sgd"),
        "kernel.mlp_sgd.share": busy("kernel.mlp_sgd") / wall_s if wall_s > 0 else 0.0,
        "kernel.mlp_sgd.steps": int(attr_sum("kernel.mlp_sgd", "steps")),
        "kernel.mlp_sgd.gflop_computed": attr_sum("kernel.mlp_sgd", "flop") / 1e9,
        "kernel.nnt.calls": len(by.get("kernel.nnt", [])),
        "kernel.nnt.busy_s": busy("kernel.nnt"),
        "mlp.fit_calls": len(fits),
        "mlp.networks_per_fit": (sum(s[ATTRS]["networks"] for s in fits) / len(fits)
                                 if fits else 0.0),
        "mlp.fit_self_s": self_sum("mlp.fit"),
        "gaknn.calls": len(by.get("gaknn.predict", [])),
        "gaknn.busy_s": busy("gaknn.predict"),
        "pipeline.split_passes": len(by.get("pipeline.split_pass", [])),
        "pipeline.self_s": self_sum("pipeline.split_pass"),
        "splitctx.builds": len(by.get("splitctx.build", [])),
        "backend.calls": len(backend_spans),
        "backend.failures": sum(1 for s in backend_spans if "error" in s[ATTRS]),
        "backend.fallbacks": sum(s[ATTRS].get("fallbacks", 0) - s[ATTRS].get("fallbacks_before", 0)
                                 for s in backend_spans),
        "backend.self_ms": 1000.0 * self_sum("backend.mlp_sgd", "backend.nnt_downdated_statistics"),
        "cache.lookups": len(lookups),
        "cache.hit_ratio": (len(lookups) - len(inserts)) / len(lookups) if lookups else 0.0,
        "cache.inserts": len(inserts),
        "cache.evictions": evictions_end - evictions_start,
        "service.batches": len(rank),
        "service.warm_hits": int(attr_sum("service.rank_many", "warm")),
        "service.cold_passes": int(attr_sum("service.rank_many", "cold")),
        "service.self_ms_p50": (percentile([own[s[ID]] * 1000.0 for s in rank], 0.5)
                                if rank else 0.0),
        "batcher.queue_wait_ms_p50": ms_p("batcher.queue_wait", 0.50),
        "batcher.queue_wait_ms_p99": ms_p("batcher.queue_wait", 0.99),
        "batcher.batch_size_mean": (sum(s[ATTRS]["batch"] for s in rank) / len(rank)
                                    if rank else 0.0),
        "batcher.shed": sum(1 for s in submits if s[ATTRS].get("error") == "OverloadedError"),
        "wire.requests": len(by.get("wire.parse", [])),
        "wire.parse_us_p50": ms_p("wire.parse", 0.50, 1e6),
        "wire.encode_us_p50": ms_p("wire.encode", 0.50, 1e6),
        "data.build_s": sum(s[END] - s[START] for s in setup),
        # The load generator's own health; set by the serving workloads.
        "gen.sent": 0,
        "gen.lateness_p99_ms": 0.0,
    }
