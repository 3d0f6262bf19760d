"""Benches for the batched cross-validation engine.

Each vectorised path is timed next to the per-cell path it replaces, so the
pytest-benchmark trajectory records the speedup (and catches regressions):

* stacked-network MLP training vs one ``MLPRegressor.fit`` per network,
* rank-one leave-one-out NNᵀ vs one refit per application, and
* ``run_cross_validation`` end-to-end with the batched method line-up vs
  the historical per-cell adapters (transposition methods only — GA-kNN has
  no batched entry point and would time identically in both engines), and
* the compiled MLP SGD kernel vs the NumPy reference kernel on the
  cross-split stack a fast-preset Table 2 run trains, with its speedup
  contract.

The MLP micro benches cap the epoch budget so default runs stay quick; the
end-to-end benches use the preset's configured budget (set
``REPRO_BENCH_PRESET=full`` for the paper-faithful measurement).
"""

import numpy as np
import pytest

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    LinearTranspositionPredictor,
    TranspositionMethod,
    run_cross_validation,
)
from repro.core.backends import COMPILED_RTOL, CompiledBackend, NumpyBackend
from repro.core.mlp_predictor import MLPTranspositionPredictor
from repro.data import family_cross_validation_splits

from conftest import interleaved_speedup, run_once

#: Speed the compiled SGD kernel must deliver over the NumPy kernel on the
#: fast-preset cross-split stack (about 6x measured on a 2-vCPU guest).
MIN_COMPILED_SGD_SPEEDUP = 2.5

#: Epoch cap of the kernel contract: the speedup is per step, so a short
#: run measures it at a fraction of the cost.
CONTRACT_EPOCHS = 15


def _mlp_training_stack(dataset, n_networks=8, n_samples=40, n_queries=12):
    """Stacked leave-one-out style training blocks carved from the matrix."""
    scores = dataset.matrix.scores
    n_benchmarks = scores.shape[0]
    features = np.stack(
        [scores[np.arange(n_benchmarks) != row, :n_samples].T for row in range(n_networks)]
    )
    targets = scores[:n_networks, :n_samples]
    queries = np.stack(
        [
            scores[np.arange(n_benchmarks) != row, n_samples : n_samples + n_queries].T
            for row in range(n_networks)
        ]
    )
    return features, targets, queries


def test_bench_batched_mlp_fit(benchmark, dataset, config):
    """Training a stack of leave-one-out networks in one tensor pass."""
    from repro.ml import BatchedMLPRegressor

    features, targets, queries = _mlp_training_stack(dataset)
    epochs = min(config.mlp_epochs, 60)

    def run():
        model = BatchedMLPRegressor(epochs=epochs, seed=0).fit(features, targets)
        return model.predict(queries)

    predictions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert predictions.shape == (features.shape[0], queries.shape[1])


def test_bench_sequential_mlp_fit(benchmark, dataset, config):
    """The same network stack trained one ``MLPRegressor`` at a time."""
    from repro.ml import MLPRegressor

    features, targets, queries = _mlp_training_stack(dataset)
    epochs = min(config.mlp_epochs, 60)

    def run():
        return np.stack(
            [
                MLPRegressor(epochs=epochs, seed=0).fit(features[n], targets[n]).predict(queries[n])
                for n in range(features.shape[0])
            ]
        )

    predictions = run_once(benchmark, run)
    assert predictions.shape == (features.shape[0], queries.shape[1])


def test_bench_nnt_leave_one_out(benchmark, dataset):
    """All 29 leave-one-out NNᵀ fits of a split by sufficient-statistic downdating."""
    split = family_cross_validation_splits(dataset)[0]
    predictive = dataset.matrix.select_machines(split.predictive_ids).scores
    target = dataset.matrix.select_machines(split.target_ids).scores

    def run():
        return LinearTranspositionPredictor().predict_leave_one_out(predictive, target)

    predictions = benchmark(run)
    assert predictions.shape == (dataset.matrix.shape[0], split.n_target)


def test_bench_nnt_per_cell_refit(benchmark, dataset):
    """The same 29 leave-one-out NNᵀ fits, re-centred and refit per application."""
    split = family_cross_validation_splits(dataset)[0]
    predictive = dataset.matrix.select_machines(split.predictive_ids).scores
    target = dataset.matrix.select_machines(split.target_ids).scores
    n_benchmarks = predictive.shape[0]

    def run():
        rows = np.arange(n_benchmarks)
        return np.stack(
            [
                LinearTranspositionPredictor().predict(
                    predictive[rows != row], predictive[row], target[rows != row]
                )
                for row in range(n_benchmarks)
            ]
        )

    predictions = benchmark(run)
    assert predictions.shape == (n_benchmarks, split.n_target)


def _engine_methods(config, batched):
    """The two transposition methods under either engine, same hyper-parameters."""
    if batched:
        return {
            "NN^T": BatchedLinearTransposition(),
            "MLP^T": BatchedMLPTransposition(epochs=config.mlp_epochs, seed=config.seed),
        }
    return {
        "NN^T": TranspositionMethod(LinearTranspositionPredictor, "NN^T"),
        "MLP^T": TranspositionMethod(
            lambda: MLPTranspositionPredictor(epochs=config.mlp_epochs, seed=config.seed),
            "MLP^T",
        ),
    }


def test_bench_cross_validation_batched(benchmark, dataset, config):
    """End-to-end cross-validation over two family splits, batched engine."""
    splits = family_cross_validation_splits(dataset)[:2]
    applications = list(config.applications) if config.applications else None
    results = run_once(
        benchmark,
        run_cross_validation,
        dataset,
        splits,
        _engine_methods(config, batched=True),
        applications,
    )
    expected = len(splits) * (len(applications) if applications else dataset.matrix.shape[0])
    assert all(len(r.cells) == expected for r in results.values())


def test_bench_cross_validation_per_cell(benchmark, dataset, config):
    """The same end-to-end sweep through the historical per-cell loop."""
    splits = family_cross_validation_splits(dataset)[:2]
    applications = list(config.applications) if config.applications else None
    results = run_once(
        benchmark,
        run_cross_validation,
        dataset,
        splits,
        _engine_methods(config, batched=False),
        applications,
    )
    expected = len(splits) * (len(applications) if applications else dataset.matrix.shape[0])
    assert all(len(r.cells) == expected for r in results.values())


class _RecordingBackend:
    """Forwards ``mlp_sgd`` to *inner*, keeping every call's inputs and result."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = []

    def mlp_sgd(self, *args):
        inputs = tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args)
        result = self.inner.mlp_sgd(*args)
        self.calls.append((inputs, result))
        return result


def test_compiled_sgd_kernel_meets_speedup_contract(dataset, config):
    """Acceptance: the compiled SGD kernel >= 2.5x the NumPy kernel.

    Both kernels get the one cross-split call a Table 2 run makes (every
    family split's MLPᵀ networks in one stack; epochs capped).  Beside the
    timing, a deterministic check: each backend received exactly one call
    of ``epochs x max_samples`` steps, and the trained weights agree within
    the compiled kernel's declared tolerance.
    """
    if not CompiledBackend.is_available():
        pytest.skip("no C compiler")
    splits = family_cross_validation_splits(dataset)
    applications = list(config.applications) if config.applications else dataset.benchmark_names
    epochs = min(config.mlp_epochs, CONTRACT_EPOCHS)
    recorders = [_RecordingBackend(backend) for backend in (NumpyBackend(), CompiledBackend())]
    for recorder in recorders:
        BatchedMLPTransposition(epochs=epochs, seed=config.seed, backend=recorder).predict_all_splits(
            dataset, splits, applications
        )
    assert [len(recorder.calls) for recorder in recorders] == [1, 1]
    (reference_args, reference), (args, trained) = (recorder.calls[0] for recorder in recorders)
    for given, expected in zip(args, reference_args):
        np.testing.assert_array_equal(given, expected)
    orders = args[6]
    max_samples = max(split.n_predictive for split in splits)
    assert orders.shape[0] * orders.shape[1] == epochs * max_samples
    for got, want in zip(trained, reference):
        np.testing.assert_allclose(got, want, rtol=COMPILED_RTOL)

    def kernel(backend):
        return lambda: backend.mlp_sgd(
            *(np.copy(a) if isinstance(a, np.ndarray) else a for a in args)
        )

    speedup, _, _ = interleaved_speedup(
        kernel(NumpyBackend()), kernel(CompiledBackend()), pairs=5
    )
    print(f"MLP SGD kernel, {args[2].shape[0]} networks: median compiled speedup {speedup:.1f}x")
    assert speedup >= MIN_COMPILED_SGD_SPEEDUP
