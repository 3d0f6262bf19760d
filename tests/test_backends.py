"""Tests for the pluggable array backends (repro.core.backends)."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backends as backends_module
from repro.core.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    COMPILED_RTOL,
    ArrayBackend,
    CompiledBackend,
    NumpyBackend,
    available_backends,
    resolve_backend,
)
from repro.baselines.ga_knn import GAKNNBaseline
from repro.core.linear_predictor import LinearTranspositionPredictor
from repro.ml.batched_mlp import BatchedMLPRegressor


# ------------------------------------------------------------------ resolution
def test_numpy_backend_is_always_available(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert "numpy" in available_backends()
    assert type(resolve_backend("numpy")) is NumpyBackend
    # The default is the compiled kernel wherever a C compiler works.
    expected = "compiled" if CompiledBackend.is_available() else "numpy"
    assert resolve_backend().name == expected
    assert isinstance(resolve_backend(), ArrayBackend)


def test_resolution_order_explicit_env_default(monkeypatch):
    instance = NumpyBackend()
    assert resolve_backend(instance) is instance          # explicit instance wins
    assert resolve_backend("numpy") is resolve_backend("numpy")  # cached singleton

    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    assert resolve_backend().name == "numpy"
    # An empty variable means "not set": the default applies.
    monkeypatch.delenv(BACKEND_ENV_VAR)
    default = resolve_backend()
    monkeypatch.setenv(BACKEND_ENV_VAR, "")
    assert resolve_backend() is default


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown array backend"):
        resolve_backend("cuda-from-the-future")


def test_unavailable_backend_falls_back_with_one_warning(monkeypatch):
    class MissingBackend:
        name = "missing"

        def __init__(self):
            raise ImportError("optional dependency not installed")

        @staticmethod
        def is_available():
            return False

    monkeypatch.setitem(BACKENDS, "missing", MissingBackend)
    monkeypatch.delitem(backends_module._INSTANCES, "missing", raising=False)
    backends_module._WARNED.discard("missing")
    with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
        assert resolve_backend("missing").name == "numpy"
    # Second resolution is silent (warn once per process).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("missing").name == "numpy"
    backends_module._WARNED.discard("missing")
    assert "missing" not in available_backends()


# ------------------------------------------------------------- numpy kernels
def test_numpy_nnt_kernel_matches_manual_downdating():
    rng = np.random.default_rng(0)
    pred = rng.uniform(1.0, 2.0, size=(9, 4))
    target = rng.uniform(1.0, 2.0, size=(9, 3))
    rows = np.array([0, 4, 8])

    sxx, syy, sxy, mean_x, mean_y = NumpyBackend().nnt_downdated_statistics(
        pred, target, rows
    )
    for i, row in enumerate(rows):
        keep = np.arange(9) != row
        px, ty = pred[keep], target[keep]
        np.testing.assert_allclose(mean_x[i], px.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(mean_y[i], ty.mean(axis=0), rtol=1e-12)
        dx = px - px.mean(axis=0)
        dy = ty - ty.mean(axis=0)
        np.testing.assert_allclose(sxx[i], (dx**2).sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(syy[i], (dy**2).sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(sxy[i], dx.T @ dy, rtol=1e-9, atol=1e-12)


def _mlp_problem(seed=1):
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.5, 1.5, size=(3, 20, 5))
    targets = rng.uniform(0.5, 1.5, size=(3, 20))
    queries = rng.uniform(0.5, 1.5, size=(3, 6, 5))
    return features, targets, queries


def test_env_numpy_backend_is_bit_identical_to_explicit_numpy(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    features, targets, queries = _mlp_problem()
    from_env = BatchedMLPRegressor(epochs=20, seed=0).fit(features, targets)
    explicit = BatchedMLPRegressor(epochs=20, seed=0, backend="numpy").fit(
        features, targets
    )
    np.testing.assert_array_equal(from_env.predict(queries), explicit.predict(queries))

    rng = np.random.default_rng(2)
    pred = rng.uniform(1.0, 2.0, size=(8, 4))
    target = rng.uniform(1.0, 2.0, size=(8, 3))
    np.testing.assert_array_equal(
        LinearTranspositionPredictor().predict_leave_one_out(pred, target),
        LinearTranspositionPredictor(backend="numpy").predict_leave_one_out(
            pred, target
        ),
    )


def test_default_backend_agrees_with_numpy_within_tolerance(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    features, targets, queries = _mlp_problem()
    default = BatchedMLPRegressor(epochs=60, seed=0).fit(features, targets)
    reference = BatchedMLPRegressor(epochs=60, seed=0, backend="numpy").fit(
        features, targets
    )
    np.testing.assert_allclose(
        default.predict(queries), reference.predict(queries), rtol=COMPILED_RTOL
    )


# ------------------------------------------------------------ compiled kernel
@pytest.fixture
def fresh_kernel_build(monkeypatch, tmp_path):
    """Forget the process's compiled kernel; build into *tmp_path* instead."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    backends_module._compiled_library.cache_clear()
    backends_module._WARNED.discard("compiled")
    yield tmp_path
    backends_module._compiled_library.cache_clear()
    backends_module._WARNED.discard("compiled")


def test_missing_compiler_falls_back_to_numpy_with_one_warning(
    fresh_kernel_build, monkeypatch
):
    monkeypatch.setenv("PATH", "")
    with pytest.warns(RuntimeWarning, match="'compiled' is not available"):
        assert type(resolve_backend()) is NumpyBackend
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert type(resolve_backend()) is NumpyBackend
    assert "compiled" not in available_backends()
    features, targets, queries = _mlp_problem()
    fallback = BatchedMLPRegressor(epochs=20, seed=0).fit(features, targets)
    reference = BatchedMLPRegressor(epochs=20, seed=0, backend="numpy").fit(
        features, targets
    )
    np.testing.assert_array_equal(fallback.predict(queries), reference.predict(queries))


def test_compiled_kernel_is_cached_in_a_private_directory(fresh_kernel_build):
    if not CompiledBackend.is_available():
        pytest.skip("no C compiler")
    cache = fresh_kernel_build / "repro"
    assert cache.stat().st_mode & 0o777 == 0o700
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_kernels-")
    # A second process-level load reuses the cached library.
    backends_module._compiled_library.cache_clear()
    assert CompiledBackend.is_available()
    assert list(cache.iterdir()) == built


def test_unsafe_cache_directory_is_not_used(fresh_kernel_build):
    cache = fresh_kernel_build / "repro"
    cache.mkdir(mode=0o700)
    cache.chmod(0o777)
    if not CompiledBackend.is_available():
        pytest.skip("no C compiler")
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("bad_order", [-1, 3])
def test_out_of_range_shuffle_order_is_rejected(backend, bad_order):
    if not BACKENDS[backend].is_available():
        pytest.skip(f"backend {backend!r} is not available")
    rng = np.random.default_rng(0)
    # Two networks with 4 and 3 samples: column 1 orders may only use 0..2.
    x = rng.uniform(size=(2, 4, 2))
    y = rng.uniform(size=(2, 4))
    orders = np.array([[[0, 2], [1, 0], [2, 1], [3, 0]]])
    orders[0, 1, 1] = bad_order
    weights = (np.zeros((2, 2, 1)), np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError, match="shuffle order"):
        BACKENDS[backend]().mlp_sgd(x, y, *weights, orders, 0.3, 0.2, 1.0, [4, 3])


# ------------------------------------------------------------ GA-kNN fitness
def _gaknn_problem(rng, n_cells, n_pop, n_genes, n_benchmarks, n_targets, levels):
    """A fitness problem whose features and weights come from *levels* grid
    values, so duplicate rows (zero distances) and tied distances abound."""
    features = rng.integers(0, levels, size=(n_cells, n_benchmarks, n_genes)).astype(float)
    pairwise_sq = np.ascontiguousarray(
        ((features[:, :, None, :] - features[:, None, :, :]) ** 2).transpose(0, 3, 1, 2)
    )
    genomes = rng.integers(0, levels, size=(n_cells, n_pop, n_genes)) / max(levels - 1, 1)
    scores = rng.uniform(0.5, 2.0, size=(n_cells, n_benchmarks, n_targets))
    return genomes, pairwise_sq, scores


@given(
    n_cells=st.integers(1, 3),
    n_pop=st.integers(1, 4),
    n_genes=st.integers(1, 9),
    n_benchmarks=st.integers(2, 30),
    n_targets=st.integers(1, 40),
    k_past_limit=st.integers(-12, 2),
    levels=st.sampled_from([1, 2, 3, 5, 1000]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_compiled_gaknn_fitness_is_bit_identical_to_numpy(
    n_cells, n_pop, n_genes, n_benchmarks, n_targets, k_past_limit, levels, seed
):
    """Compiled ≡ NumPy ≡ the per-cell fitness (two or more targets), bit for bit.

    Coarse grids give duplicate feature rows (all-zero genomes make every
    distance zero) and distances tied at the k-th boundary; ``k`` runs up
    to two past ``B - 1``, where both kernels clamp it.
    """
    if not CompiledBackend.is_available():
        pytest.skip("no C compiler")
    rng = np.random.default_rng(seed)
    genomes, pairwise_sq, scores = _gaknn_problem(
        rng, n_cells, n_pop, n_genes, n_benchmarks, n_targets, levels
    )
    k = max(1, n_benchmarks - 1 + k_past_limit)
    reference = NumpyBackend().gaknn_fitness(genomes, pairwise_sq, scores, k)
    # No input here is outside the compiled kernel's bounds: it must not
    # hand the pass back to NumPy.
    with mock.patch.object(NumpyBackend, "_gaknn_pass", side_effect=AssertionError):
        compiled = CompiledBackend().gaknn_fitness(genomes, pairwise_sq, scores, k)
    np.testing.assert_array_equal(compiled, reference)
    if n_targets == 1:
        # The per-cell einsum("nk,nkm->nm") does not sum a single target's
        # k terms in order, so only the stacked kernels agree there.
        return
    per_cell = GAKNNBaseline(k=k)
    for c in range(n_cells):
        for p in range(n_pop):
            assert reference[c, p] == per_cell._loo_fitness(
                genomes[c, p], pairwise_sq[c], scores[c]
            )


def test_compiled_gaknn_fitness_defers_to_numpy_outside_its_bounds():
    """NaN distances, rows short of k finite neighbours and target counts
    above 128 run the NumPy pass, so the bits still match."""
    if not CompiledBackend.is_available():
        pytest.skip("no C compiler")
    rng = np.random.default_rng(5)
    genomes, pairwise_sq, scores = _gaknn_problem(rng, 2, 3, 4, 12, 5, 1000)
    negative = genomes.copy()
    negative[0, 0, 1] = -1.0  # a negative weight can make a distance NaN
    infinite = pairwise_sq.copy()
    infinite[1, 2, 3, :] = np.inf  # benchmark 3 has no finite neighbour
    _, _, wide_scores = _gaknn_problem(rng, 2, 3, 4, 12, 130, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for args in (
            (negative, pairwise_sq, scores),
            (genomes, infinite, scores),
            (genomes, pairwise_sq, wide_scores),
        ):
            np.testing.assert_array_equal(
                CompiledBackend().gaknn_fitness(*args, 4),
                NumpyBackend().gaknn_fitness(*args, 4),
            )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_gaknn_fitness_rejects_mismatched_shapes(backend):
    if not BACKENDS[backend].is_available():
        pytest.skip(f"backend {backend!r} is not available")
    genomes, pairwise_sq, scores = _gaknn_problem(np.random.default_rng(0), 2, 3, 4, 6, 2, 3)
    kernel = BACKENDS[backend]().gaknn_fitness
    with pytest.raises(ValueError, match="share cells"):
        kernel(genomes, pairwise_sq[:1], scores, 3)
    with pytest.raises(ValueError, match="share cells"):
        kernel(genomes, pairwise_sq, scores[:, :5], 3)
    with pytest.raises(ValueError, match="k >= 1"):
        kernel(genomes, pairwise_sq, scores, 0)
