"""Benches for the batched GA-kNN path, with its speedup contract.

Times a full split's GA fitness work — every leave-one-out cell's GA —
under both engines:

* sequential (``GAKNNBaseline``): one identically-seeded GA per cell, each
  rebuilding its standardised working set from scratch; and
* batched (``BatchedGAKNN``): the per-cell working sets built once per
  split (the cells differ by a single benchmark row — structural dedup of
  the standardised feature statistics), all GAs evolved in lockstep with
  one stacked fitness tensor pass per generation and elite fitnesses
  reused across generations.

The contract test pins the acceptance criterion: on one core, the batched
full-split evaluation must be ``>= 3x`` faster than the sequential loop it
replaces, while returning bit-identical predictions.  Beside that noisy
ratio, a deterministic one: the number of fitness evaluations and kernel
calls each engine makes per split.  A second contract times the fitness
kernel alone: the compiled ``gaknn_fitness`` must be ``>= 1.5x`` the NumPy
pass on a split's real kernel calls, with bit-equal outputs.
"""

import numpy as np
import pytest

from repro.baselines.ga_knn import BatchedGAKNN, GAKNNBaseline
from repro.core.backends import CompiledBackend, NumpyBackend
from repro.data import family_cross_validation_splits
from repro.ml.genetic import GAConfig

from conftest import interleaved_speedup, run_once

#: Full-split speedup the batched GA-kNN path must deliver on one core
#: (acceptance criterion: shared-statistics dedup + lockstep GA >= 3x).
MIN_BATCHED_GAKNN_SPEEDUP = 3.0

#: Speedup the compiled GA-kNN fitness kernel must deliver over the NumPy
#: pass on the same calls (bit-equal outputs).
MIN_COMPILED_GAKNN_SPEEDUP = 1.5

#: The contract is measured at a fixed GA budget (the paper-faithful
#: ``full``-preset budget), independent of REPRO_BENCH_PRESET: the smoke
#: preset's tiny budget leaves the ratio with no noise margin over the 3x
#: floor, which would make the contract flaky on shared CI runners.
CONTRACT_GA = GAConfig(population_size=30, generations=15)


def _sequential_split(dataset, split, applications, ga_config, k=10, seed=0):
    method = GAKNNBaseline(k=k, ga_config=ga_config, seed=seed)
    scores = {}
    for application in applications:
        training = [b for b in dataset.benchmark_names if b != application]
        scores[application] = method.predict_application_scores(
            dataset, split, application, training
        )
    return scores


def _batched_split(dataset, split, applications, ga_config, k=10, seed=0, backend=None):
    method = BatchedGAKNN(k=k, ga_config=ga_config, seed=seed, backend=backend)
    return method.predict_all_applications(dataset, split, applications)


class _RecordingBackend:
    """Forwards ``gaknn_fitness`` to *inner*, keeping every call's inputs."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = []

    def gaknn_fitness(self, genomes, pairwise_sq, scores, k):
        self.calls.append((np.copy(genomes), pairwise_sq, scores, k))
        return self.inner.gaknn_fitness(genomes, pairwise_sq, scores, k)


def test_bench_gaknn_batched_split(benchmark, dataset, config):
    """All 29 leave-one-out GA-kNN cells of a split as one lockstep pass."""
    split = family_cross_validation_splits(dataset)[0]
    applications = dataset.benchmark_names
    scores = run_once(
        benchmark, _batched_split, dataset, split, applications,
        config.ga_config(), config.knn_neighbours, config.seed,
    )
    assert sorted(scores) == sorted(applications)


def test_bench_gaknn_sequential_split(benchmark, dataset, config):
    """The same 29 cells through the historical one-GA-per-cell loop."""
    split = family_cross_validation_splits(dataset)[0]
    applications = dataset.benchmark_names
    scores = run_once(
        benchmark, _sequential_split, dataset, split, applications,
        config.ga_config(), config.knn_neighbours, config.seed,
    )
    assert sorted(scores) == sorted(applications)


def test_gaknn_batched_split_meets_speedup_contract(dataset):
    """Acceptance: batched full-split GA fitness >= 3x the sequential loop."""
    split = family_cross_validation_splits(dataset)[0]
    applications = dataset.benchmark_names

    speedup, sequential, batched = interleaved_speedup(
        lambda: _sequential_split(dataset, split, applications, CONTRACT_GA),
        lambda: _batched_split(dataset, split, applications, CONTRACT_GA),
        pairs=3,
    )

    # Identical answers either way; only the cost differs.
    for application in applications:
        np.testing.assert_array_equal(batched[application], sequential[application])
    print(f"GA-kNN full split: median batched speedup {speedup:.1f}x")
    assert speedup >= MIN_BATCHED_GAKNN_SPEEDUP


def test_gaknn_fitness_evaluations_per_split(dataset):
    """Structural: fitness evaluations and kernel calls per split.

    The sequential loop evaluates every genome of every generation for each
    cell; the lockstep GA reuses elite fitnesses and evaluates the whole
    split's population block in one kernel call per generation.
    """
    split = family_cross_validation_splits(dataset)[0]
    applications = dataset.benchmark_names
    cells, ga = len(applications), CONTRACT_GA
    children = ga.population_size - ga.elitism

    recorder = _RecordingBackend(NumpyBackend())
    _batched_split(dataset, split, applications, ga, backend=recorder)
    evaluations = sum(genomes.shape[0] * genomes.shape[1] for genomes, *_ in recorder.calls)
    assert evaluations == cells * (ga.population_size + ga.generations * children)
    assert len(recorder.calls) == ga.generations + 1

    sequential = GAKNNBaseline(k=10, ga_config=ga, seed=0)
    per_genome = sequential._loo_fitness
    counted = []
    sequential._loo_fitness = lambda *args: counted.append(1) or per_genome(*args)
    for application in applications:
        training = [b for b in applications if b != application]
        sequential.predict_application_scores(dataset, split, application, training)
    assert len(counted) == cells * ga.population_size * (ga.generations + 1)


def test_compiled_gaknn_fitness_meets_speedup_contract(dataset):
    """Acceptance: compiled GA-kNN fitness >= 1.5x the NumPy pass, bit-equal.

    Both kernels replay the fitness calls of one full split's lockstep GA
    (every cell, the contract GA budget).
    """
    if not CompiledBackend.is_available():
        pytest.skip("no C compiler")
    split = family_cross_validation_splits(dataset)[0]
    recorder = _RecordingBackend(NumpyBackend())
    _batched_split(dataset, split, dataset.benchmark_names, CONTRACT_GA, backend=recorder)

    def replay(backend):
        return lambda: [backend.gaknn_fitness(*call) for call in recorder.calls]

    speedup, reference, compiled = interleaved_speedup(
        replay(NumpyBackend()), replay(CompiledBackend()), pairs=5
    )
    for got, want in zip(compiled, reference):
        np.testing.assert_array_equal(got, want)
    print(f"GA-kNN fitness, {len(recorder.calls)} calls: median compiled speedup {speedup:.1f}x")
    assert speedup >= MIN_COMPILED_GAKNN_SPEEDUP
