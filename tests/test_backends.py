"""Tests for the pluggable array backends (repro.core.backends)."""

import warnings

import numpy as np
import pytest

from repro.core import backends as backends_module
from repro.core.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    ArrayBackend,
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
    assert resolve_backend().name == "numpy"
    assert isinstance(resolve_backend(), ArrayBackend)


def test_resolution_order_explicit_env_default(monkeypatch):
    instance = NumpyBackend()
    assert resolve_backend(instance) is instance          # explicit instance wins
    assert resolve_backend("numpy") is resolve_backend("numpy")  # cached singleton

    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    assert resolve_backend().name == "numpy"
    monkeypatch.setenv(BACKEND_ENV_VAR, "")
    assert resolve_backend().name == "numpy"


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


def test_explicit_numpy_backend_is_bit_identical_to_default(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    rng = np.random.default_rng(1)
    features = rng.uniform(0.5, 1.5, size=(3, 20, 5))
    targets = rng.uniform(0.5, 1.5, size=(3, 20))
    queries = rng.uniform(0.5, 1.5, size=(3, 6, 5))

    default = BatchedMLPRegressor(epochs=20, seed=0).fit(features, targets)
    explicit = BatchedMLPRegressor(epochs=20, seed=0, backend="numpy").fit(
        features, targets
    )
    np.testing.assert_array_equal(default.predict(queries), explicit.predict(queries))

    pred = rng.uniform(1.0, 2.0, size=(8, 4))
    target = rng.uniform(1.0, 2.0, size=(8, 3))
    np.testing.assert_array_equal(
        LinearTranspositionPredictor().predict_leave_one_out(pred, target),
        LinearTranspositionPredictor(backend="numpy").predict_leave_one_out(
            pred, target
        ),
    )

