"""Pluggable array backends for the engine's dense kernels.

The hottest loops of the engine — the stacked-network SGD inside
:class:`~repro.ml.batched_mlp.BatchedMLPRegressor` and the rank-one
leave-one-out downdating inside :class:`~repro.core.linear_predictor.
LinearTranspositionPredictor` — are expressed here as *backend kernels*:
coarse-grained operations an :class:`ArrayBackend` implements end to end.
Kernel granularity (rather than op-by-op indirection) keeps the NumPy
reference path free of per-call dispatch overhead and gives alternative
array libraries enough work per call to amortise their own.

One backend ships: :class:`NumpyBackend`, the reference implementation,
always available.  Its MLP kernel is the lockstep ragged SGD pass
described on :meth:`ArrayBackend.mlp_sgd`; every network in the stack
follows bit for bit the trajectory it would follow if trained alone (the
equivalence suite pins this).  Further backends register in
:data:`BACKENDS`; one whose dependency is missing makes
:func:`resolve_backend` warn once and fall back to NumPy.

Selection order for every kernel consumer: an explicit ``backend=``
argument (name or instance) wins, otherwise ``REPRO_BACKEND``, otherwise
NumPy.

Examples::

    >>> resolve_backend().name
    'numpy'
    >>> resolve_backend("numpy") is resolve_backend("numpy")   # cached singleton
    True
    >>> sorted(BACKENDS)
    ['numpy']
"""

from __future__ import annotations

import os
import warnings
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "NumpyBackend",
    "available_backends",
    "resolve_backend",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Bytes of training samples the NumPy SGD kernel gathers in one go.  Small
#: enough to stay out of the allocator's retained heap when the service runs
#: the kernel on several executor threads.
_SGD_CHUNK_BYTES = 1 << 16


@runtime_checkable
class ArrayBackend(Protocol):
    """The kernel surface an array backend must provide.

    A backend owns two dense kernels.  Inputs and outputs are NumPy
    arrays regardless of the backend's internal representation, so the
    callers (``repro.ml`` / ``repro.core``) never see backend-native
    tensors.
    """

    name: str

    def mlp_sgd(
        self,
        x_samples: np.ndarray,
        y_samples: np.ndarray,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_output: np.ndarray,
        b_output: np.ndarray,
        shuffle_orders: np.ndarray,
        learning_rate: float,
        momentum: float,
        gradient_clip: float,
        sample_counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the ragged lockstep SGD pass; return the trained weights.

        ``x_samples`` is ``(networks, samples, features)`` training data
        padded to the longest sample count, ``y_samples`` is ``(networks,
        samples)``.  ``sample_counts`` gives each network's own sample
        count; the stack must be ordered by it, descending.
        ``shuffle_orders`` is ``(epochs, samples, orders)`` with one order
        per distinct sample count, largest first: a network with ``c``
        samples visits ``shuffle_orders[e, :c, g]`` in epoch ``e``, ``g``
        being the rank of ``c``.  The RNG draws stay in the caller, so the
        stream is backend-independent.
        The initial weight tensors are consumed and must not be relied on
        afterwards.
        """
        ...  # pragma: no cover - protocol definition

    def nnt_downdated_statistics(
        self,
        pred: np.ndarray,
        target: np.ndarray,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Leave-one-out sufficient statistics for every requested row.

        Given ``(benchmarks x predictive)`` / ``(benchmarks x target)``
        score matrices and the row indices to leave out, return the
        stacked downdated statistics ``(sxx, syy, sxy, mean_x, mean_y)``
        with shapes ``(rows, P)``, ``(rows, T)``, ``(rows, P, T)``,
        ``(rows, P)`` and ``(rows, T)``.
        """
        ...  # pragma: no cover - protocol definition


class NumpyBackend:
    """Reference backend: the historical inner loops, moved verbatim.

    Every kernel preserves the exact operation order of the code it was
    extracted from, so results are bit-identical to the pre-backend
    implementation (and therefore to the sequential per-cell paths the
    batched engine is benchmarked against).
    """

    name = "numpy"

    @staticmethod
    def is_available() -> bool:
        """NumPy is a hard dependency, so the reference backend always is."""
        return True

    def mlp_sgd(
        self,
        x_samples: np.ndarray,
        y_samples: np.ndarray,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_output: np.ndarray,
        b_output: np.ndarray,
        shuffle_orders: np.ndarray,
        learning_rate: float,
        momentum: float,
        gradient_clip: float,
        sample_counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n_networks, n_features, n_hidden = w_hidden.shape
        n_epochs, max_samples, n_orders = shuffle_orders.shape
        counts = np.asarray(sample_counts, dtype=np.intp)
        if counts.shape != (n_networks,) or np.any(np.diff(counts) > 0):
            raise ValueError("sample_counts must give one count per network, descending")
        if np.any((counts < 1) | (counts > max_samples)):
            raise ValueError("every sample count must lie in [1, shuffle_orders.shape[1]]")
        # Column g of the orders belongs to the g-th largest sample count.
        distinct_counts, order_of = np.unique(-counts, return_inverse=True)
        if len(distinct_counts) != n_orders:
            raise ValueError("shuffle_orders needs one order per distinct sample count")

        # Network n takes n_epochs * counts[n] steps.  The stack is ordered
        # by that, so the networks still training at any step are a prefix
        # of it: finished networks drop out by slicing, and each segment
        # between two drop-outs runs on fixed prefix views.
        total_steps = n_epochs * counts
        x_rows = x_samples.reshape(n_networks * max_samples, n_features)
        y_rows = y_samples.reshape(n_networks * max_samples)
        first_row = np.arange(n_networks) * max_samples
        # Per order column, the sample visited at each step (epochs end to end).
        visits = [
            shuffle_orders[:, :count, column].reshape(-1)
            for column, count in enumerate(-distinct_counts)
        ]

        vel_w_hidden = np.zeros_like(w_hidden)
        vel_b_hidden = np.zeros_like(b_hidden)
        vel_w_output = np.zeros_like(w_output)
        vel_b_output = np.zeros(n_networks)

        lr = learning_rate
        clip = gradient_clip

        # Scratch buffers reused across the whole SGD loop; every update
        # below preserves the sequential implementation's operation order,
        # so each stacked network follows bit-for-bit the same trajectory
        # an individually trained MLPRegressor would.  Stacked matmul
        # reduces each network on its own, whatever the stack width.
        hidden_pre = np.empty((n_networks, 1, n_hidden))
        hidden_act = np.empty((n_networks, n_hidden))
        one_minus_act = np.empty_like(hidden_act)
        output = np.empty((n_networks, 1, 1))
        error = np.empty(n_networks)
        grad_w_output = np.empty_like(w_output)
        delta_hidden = np.empty_like(b_hidden)
        grad_w_hidden = np.empty_like(w_hidden)

        start = 0
        for end in np.unique(total_steps):
            active = int(np.count_nonzero(total_steps >= end))
            (w_h, b_h, w_o, b_o, v_w_h, v_b_h, v_w_o, v_b_o, h_pre, h_act,
             one_minus, out, err, g_w_o, d_h, g_w_h) = (
                buffer[:active] for buffer in (
                    w_hidden, b_hidden, w_output, b_output,
                    vel_w_hidden, vel_b_hidden, vel_w_output, vel_b_output,
                    hidden_pre, hidden_act, one_minus_act, output, error,
                    grad_w_output, delta_hidden, grad_w_hidden,
                )
            )
            h_pre_flat, out_flat = h_pre[:, 0, :], out[:, 0, 0]
            h_act_row, w_o_col, err_col = h_act[:, None, :], w_o[:, :, None], err[:, None]
            orders_active, rows_active = order_of[:active], first_row[:active]
            visited = np.stack(
                [column[start:end] for column in visits[: orders_active[-1] + 1]], axis=1
            )
            start = end
            chunk = max(1, _SGD_CHUNK_BYTES // (active * n_features * x_rows.itemsize))
            for first in range(0, len(visited), chunk):
                # Gather a chunk of steps at once, so each step below reads
                # a contiguous (active, features) block by basic indexing.
                rows = visited[first : first + chunk].take(orders_active, axis=1) + rows_active
                for xi, yi in zip(x_rows.take(rows, axis=0), y_rows.take(rows)):
                    np.matmul(xi[:, None, :], w_h, out=h_pre)
                    np.add(h_pre_flat, b_h, out=h_act)
                    np.maximum(h_act, -60.0, out=h_act)
                    np.minimum(h_act, 60.0, out=h_act)
                    np.negative(h_act, out=h_act)
                    np.exp(h_act, out=h_act)
                    h_act += 1.0
                    np.reciprocal(h_act, out=h_act)

                    np.matmul(h_act_row, w_o_col, out=out)
                    np.add(out_flat, b_o, out=err)
                    err -= yi
                    np.maximum(err, -clip, out=err)
                    np.minimum(err, clip, out=err)

                    np.multiply(err_col, h_act, out=g_w_o)
                    np.multiply(err_col, w_o, out=d_h)
                    d_h *= h_act
                    np.subtract(1.0, h_act, out=one_minus)
                    d_h *= one_minus
                    np.einsum("nf,nh->nfh", xi, d_h, out=g_w_h)

                    v_w_o *= momentum
                    g_w_o *= lr
                    v_w_o -= g_w_o
                    v_b_o *= momentum
                    err *= lr
                    v_b_o -= err
                    v_w_h *= momentum
                    g_w_h *= lr
                    v_w_h -= g_w_h
                    v_b_h *= momentum
                    d_h *= lr
                    v_b_h -= d_h

                    w_o += v_w_o
                    b_o += v_b_o
                    w_h += v_w_h
                    b_h += v_b_h

        return w_hidden, b_hidden, w_output, b_output

    def nnt_downdated_statistics(
        self,
        pred: np.ndarray,
        target: np.ndarray,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n_benchmarks = pred.shape[0]
        factor = n_benchmarks / (n_benchmarks - 1.0)

        # Full-set sufficient statistics, computed once.
        mean_x = pred.mean(axis=0)                                # (P,)
        mean_y = target.mean(axis=0)                              # (T,)
        dx = pred - mean_x[None, :]                               # (B, P)
        dy = target - mean_y[None, :]                             # (B, T)
        sxx_full = (dx**2).sum(axis=0)                            # (P,)
        syy_full = (dy**2).sum(axis=0)                            # (T,)
        sxy_full = dx.T @ dy                                      # (P, T)

        # Stacked rank-one downdates for all requested rows at once; each
        # arithmetic step is elementwise, so row i matches the historical
        # one-row-at-a-time downdate bit for bit.
        dxr = dx[rows]                                            # (R, P)
        dyr = dy[rows]                                            # (R, T)
        sxx = np.clip(sxx_full[None, :] - factor * dxr**2, 0.0, None)
        syy = np.clip(syy_full[None, :] - factor * dyr**2, 0.0, None)
        outer = dxr[:, :, None] * dyr[:, None, :]                 # (R, P, T)
        sxy = sxy_full[None, :, :] - factor * outer
        loo_mean_x = (n_benchmarks * mean_x[None, :] - pred[rows]) / (n_benchmarks - 1)
        loo_mean_y = (n_benchmarks * mean_y[None, :] - target[rows]) / (n_benchmarks - 1)
        return sxx, syy, sxy, loo_mean_x, loo_mean_y


#: Known backends, by configuration name.
BACKENDS: dict[str, type] = {
    NumpyBackend.name: NumpyBackend,
}

_INSTANCES: dict[str, ArrayBackend] = {}
_WARNED: set[str] = set()


def available_backends() -> tuple[str, ...]:
    """Names of the backends whose dependencies are importable right now.

    Examples::

        >>> "numpy" in available_backends()
        True
    """
    return tuple(name for name, cls in BACKENDS.items() if cls.is_available())


def resolve_backend(backend: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """Resolve a backend name/instance/None to a ready :class:`ArrayBackend`.

    Resolution order: an explicit instance is returned as-is; an explicit
    name is looked up in :data:`BACKENDS`; ``None`` consults the
    ``REPRO_BACKEND`` environment variable and defaults to ``"numpy"``.
    A known but unavailable backend (one whose optional dependency is
    not installed) warns once per process and falls back to the NumPy
    reference so opt-in configurations degrade instead of failing;
    an unknown name raises ``ValueError``.

    Examples::

        >>> resolve_backend(None).name
        'numpy'
        >>> resolve_backend(NumpyBackend()).name
        'numpy'
    """
    if backend is not None and not isinstance(backend, str):
        return backend
    name = backend if backend is not None else os.environ.get(BACKEND_ENV_VAR, "numpy")
    name = name.strip().lower() or "numpy"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r} (known: {sorted(BACKENDS)})"
        )
    cls = BACKENDS[name]
    if not cls.is_available():
        if name not in _WARNED:
            _WARNED.add(name)
            warnings.warn(
                f"array backend {name!r} is not available "
                "(optional dependency missing); falling back to 'numpy'",
                RuntimeWarning,
                stacklevel=2,
            )
        name = NumpyBackend.name
        cls = NumpyBackend
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = cls()
        _INSTANCES[name] = instance
    return instance
