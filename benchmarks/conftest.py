"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  They run the
experiments once per bench (``rounds=1``) because the quantity of interest
is the reproduced result, not micro-timing stability; pytest-benchmark still
records the wall-clock cost of regenerating each artefact.

The default configuration is the ``fast`` preset (all 17 family splits /
all machine splits, a 10-benchmark application subset including the paper's
outliers, reduced training budgets).  Set ``REPRO_BENCH_PRESET=full`` to run
the paper-faithful configuration (much slower).

Besides pytest-benchmark's own ``--benchmark-json`` artefact, a session
that ran benches persists per-module summaries at the repository root —
``BENCH_service.json``, ``BENCH_engine.json``, ... (one per
``test_bench_<module>.py`` that ran) — so the perf trajectory is tracked
across PRs in-tree (ROADMAP open item 3).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import build_default_dataset
from repro.experiments import ExperimentConfig


def _preset() -> ExperimentConfig:
    name = os.environ.get("REPRO_BENCH_PRESET", "fast").lower()
    if name == "full":
        return ExperimentConfig.full()
    if name == "smoke":
        return ExperimentConfig.smoke()
    return ExperimentConfig.fast()


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """Experiment configuration used by all benches."""
    return _preset()


@pytest.fixture(scope="session")
def dataset(config):
    """The 29-benchmark x 117-machine study dataset."""
    return build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)


def run_once(benchmark, func, *args, **kwargs):
    """Run *func* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def interleaved_speedup(baseline, candidate, pairs):
    """(median baseline/candidate time ratio, baseline result, candidate result).

    Both zero-argument callables run once untimed first (allocator and
    cache warm-up); their results are returned.  Then each of *pairs*
    pairs times the baseline and the candidate back to back (ABAB), so
    load drift on a shared machine hits both sides of a pair alike and
    cancels in its ratio; the median ignores one outlier pair either way.
    """
    results = baseline(), candidate()
    ratios = []
    for _ in range(pairs):
        start = time.perf_counter()
        baseline()
        middle = time.perf_counter()
        candidate()
        ratios.append((middle - start) / (time.perf_counter() - middle))
    print(f"\n{pairs} ABAB pairs, speedup per pair: " + ", ".join(f"{r:.2f}x" for r in ratios))
    return float(np.median(ratios)), *results


#: Extra per-module payloads merged into BENCH_<module>.json at session end.
#: Keyed module -> name -> JSON-safe payload; see :func:`record_bench_extra`.
_BENCH_EXTRAS: dict[str, dict[str, object]] = {}


def record_bench_extra(module: str, name: str, payload) -> None:
    """Attach a JSON-safe *payload* to ``BENCH_<module>.json`` under ``extra``.

    Lets benches persist richer results than pytest-benchmark timing —
    e.g. the load bench stores full :class:`repro.loadgen.LoadReport`
    payloads (client percentiles, error counts, server metrics snapshot)
    alongside the wall-clock numbers.  A module with only extras (no
    timed benches) still gets its file written.
    """
    _BENCH_EXTRAS.setdefault(module, {})[name] = payload


def pytest_sessionfinish(session, exitstatus):
    """Persist per-module bench summaries as BENCH_<module>.json at the root.

    ``benchmarks/test_bench_service.py`` writes ``BENCH_service.json`` and
    so on, but only for modules whose benches actually ran (a filtered run
    never truncates another module's history).  Errored benches are
    skipped so a red run cannot poison the trajectory.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    by_module: dict[str, dict[str, dict[str, float]]] = {}
    for bench in getattr(bench_session, "benchmarks", []):
        if getattr(bench, "has_error", False):
            continue
        stem = Path(str(getattr(bench, "fullname", "")).split("::")[0]).stem
        if not stem.startswith("test_bench_"):
            continue
        stats = bench.stats
        by_module.setdefault(stem.removeprefix("test_bench_"), {})[bench.name] = {
            "mean_s": stats.mean,
            "min_s": stats.min,
            "max_s": stats.max,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
        }
    modules = sorted(set(by_module) | set(_BENCH_EXTRAS))
    if not modules:
        return
    root = Path(__file__).resolve().parent.parent
    preset = os.environ.get("REPRO_BENCH_PRESET", "fast").lower()
    for module in modules:
        results = by_module.get(module, {})
        payload = {
            "preset": preset,
            "results": {name: results[name] for name in sorted(results)},
        }
        extras = _BENCH_EXTRAS.get(module)
        if extras:
            payload["extra"] = {name: extras[name] for name in sorted(extras)}
        (root / f"BENCH_{module}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
