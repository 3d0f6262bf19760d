"""Tests for the pluggable array backends (repro.core.backends)."""

import warnings

import numpy as np
import pytest

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
    backends_module._compiled_kernel.cache_clear()
    backends_module._WARNED.discard("compiled")
    yield tmp_path
    backends_module._compiled_kernel.cache_clear()
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
    assert len(built) == 1 and built[0].name.startswith("_sgd-")
    # A second process-level load reuses the cached library.
    backends_module._compiled_kernel.cache_clear()
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
